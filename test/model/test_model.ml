(* Model layer: time quantization, arrival patterns, system validation,
   priority assignment, and the textual format round trip. *)

open Rta_model

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Time                                                                *)
(* ------------------------------------------------------------------ *)

let test_time_units () =
  check_int "1 unit" 1000 (Time.of_units 1.0);
  check_int "rounding" 1500 (Time.of_units 1.4996);
  check_int "ceil" 1500 (Time.of_units_ceil 1.4995);
  check_int "negative clamps" 0 (Time.of_units (-3.0));
  Alcotest.(check (float 1e-9)) "roundtrip" 2.5 (Time.to_units (Time.of_units 2.5))

let test_isqrt () =
  check_int "0" 0 (Time.isqrt 0);
  check_int "1" 1 (Time.isqrt 1);
  check_int "24" 4 (Time.isqrt 24);
  check_int "25" 5 (Time.isqrt 25);
  check_int "26" 5 (Time.isqrt 26);
  check_int "big" 1000000 (Time.isqrt 1000000000000);
  Alcotest.check_raises "negative" (Invalid_argument "Time.isqrt: negative input")
    (fun () -> ignore (Time.isqrt (-1)))

let prop_isqrt =
  Rta_testsupport.Gen.qtest ~count:500 "isqrt is the floor square root"
    QCheck2.Gen.(int_range 0 (1 lsl 40))
    string_of_int
    (fun n ->
      let r = Time.isqrt n in
      r * r <= n && (r + 1) * (r + 1) > n)

(* ------------------------------------------------------------------ *)
(* Arrival patterns                                                    *)
(* ------------------------------------------------------------------ *)

let test_periodic_releases () =
  let times =
    Arrival.release_times (Arrival.Periodic { period = 10; offset = 3 }) ~horizon:40
  in
  Alcotest.(check (array int)) "releases" [| 3; 13; 23; 33 |] times

let test_bursty_shape () =
  (* Eq. 27: first release at 0; inter-arrival times increase toward the
     period from below (the burst relaxes). *)
  let period = 3 * Time.ticks_per_unit in
  let times = Arrival.release_times (Arrival.Bursty { period }) ~horizon:(30 * 1000) in
  check_int "first at 0" 0 times.(0);
  let gaps =
    Array.init (Array.length times - 1) (fun i -> times.(i + 1) - times.(i))
  in
  check_bool "at least a few releases" true (Array.length times >= 5);
  Array.iteri
    (fun i g ->
      check_bool (Printf.sprintf "gap %d below period" i) true (g <= period);
      if i > 0 then
        check_bool (Printf.sprintf "gap %d non-decreasing" i) true (g >= gaps.(i - 1)))
    gaps

let test_burst_periodic () =
  let times =
    Arrival.release_times
      (Arrival.Burst_periodic { burst = 3; period = 5; offset = 2 })
      ~horizon:15
  in
  Alcotest.(check (array int)) "burst then periodic" [| 2; 2; 2; 7; 12 |] times

let test_sporadic_worst () =
  let times =
    Arrival.release_times (Arrival.Sporadic_worst { min_gap = 4; count = 3 }) ~horizon:100
  in
  Alcotest.(check (array int)) "packed at min gap" [| 0; 4; 8 |] times

let test_trace_validation () =
  check_bool "sorted ok" true
    (Arrival.validate (Arrival.Trace [| 1; 1; 5 |]) = Ok ());
  check_bool "unsorted rejected" true
    (Result.is_error (Arrival.validate (Arrival.Trace [| 5; 1 |])));
  check_bool "negative rejected" true
    (Result.is_error (Arrival.validate (Arrival.Trace [| -1 |])))

let prop_arrival_function_counts =
  let pattern_gen =
    let open QCheck2.Gen in
    oneof
      [
        (let* period = int_range 1 20 in
         let* offset = int_range 0 10 in
         return (Arrival.Periodic { period; offset }));
        (let* period = int_range 500 5000 in
         return (Arrival.Bursty { period }));
        (let* burst = int_range 1 4 in
         let* period = int_range 1 20 in
         return (Arrival.Burst_periodic { burst; period; offset = 0 }));
      ]
  in
  Rta_testsupport.Gen.qtest ~count:200
    "arrival_function counts releases at every tick" pattern_gen
    (Format.asprintf "%a" Arrival.pp)
    (fun pattern ->
      let horizon = 200 in
      let times = Arrival.release_times pattern ~horizon in
      let f = Arrival.arrival_function pattern ~horizon in
      let ok = ref true in
      List.iter
        (fun t ->
          let expect =
            Array.fold_left (fun acc x -> if x <= t then acc + 1 else acc) 0 times
          in
          if Rta_curve.Step.eval f t <> expect then ok := false)
        [ 0; 1; 7; 50; horizon ];
      !ok)

(* ------------------------------------------------------------------ *)
(* System validation                                                   *)
(* ------------------------------------------------------------------ *)

let basic_job ?(prio = 1) ?(proc = 0) ?(exec = 2) name =
  {
    System.name;
    arrival = Arrival.Periodic { period = 10; offset = 0 };
    deadline = 20;
    steps = [| { System.proc; exec; prio } |];
  }

let test_validation_errors () =
  let reject ~schedulers ~jobs msg =
    match System.make ~schedulers ~jobs with
    | Ok _ -> Alcotest.failf "expected rejection: %s" msg
    | Error _ -> ()
  in
  reject ~schedulers:[| Sched.Spp |]
    ~jobs:[| { (basic_job "A") with System.steps = [||] } |]
    "empty chain";
  reject ~schedulers:[| Sched.Spp |]
    ~jobs:[| basic_job ~proc:3 "A" |]
    "processor out of range";
  reject ~schedulers:[| Sched.Spp |]
    ~jobs:[| { (basic_job "A") with System.deadline = 0 } |]
    "zero deadline";
  reject ~schedulers:[| Sched.Spp |]
    ~jobs:[| basic_job ~prio:1 "A"; basic_job ~prio:1 "B" |]
    "duplicate priorities on SPP";
  (* Duplicate priorities are fine on FCFS. *)
  match
    System.make ~schedulers:[| Sched.Fcfs |]
      ~jobs:[| basic_job ~prio:1 "A"; basic_job ~prio:1 "B" |]
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "FCFS should accept equal priorities: %s" e

let test_blocking_and_neighbors () =
  let jobs =
    [|
      basic_job ~prio:1 ~exec:2 "A";
      basic_job ~prio:2 ~exec:7 "B";
      basic_job ~prio:3 ~exec:4 "C";
    |]
  in
  let s = System.make_exn ~schedulers:[| Sched.Spnp |] ~jobs in
  let id_a = { System.job = 0; step = 0 } in
  let id_c = { System.job = 2; step = 0 } in
  check_int "A blocked by max(7,4)" 7 (System.max_blocking s id_a);
  check_int "C blocked by none" 0 (System.max_blocking s id_c);
  check_int "A has no hp" 0 (List.length (System.higher_priority_on s id_a));
  check_int "C has two hp" 2 (List.length (System.higher_priority_on s id_c))

let test_utilization () =
  let s =
    System.make_exn ~schedulers:[| Sched.Spp |]
      ~jobs:[| basic_job ~prio:1 ~exec:2 "A"; basic_job ~prio:2 ~exec:3 "B" |]
  in
  (match System.utilization s ~proc:0 with
  | Some u -> Alcotest.(check (float 1e-9)) "0.5" 0.5 u
  | None -> Alcotest.fail "expected utilization");
  let with_trace =
    System.make_exn ~schedulers:[| Sched.Spp |]
      ~jobs:
        [|
          {
            (basic_job ~prio:1 "A") with
            System.arrival = Arrival.Trace [| 0; 5 |];
          };
        |]
  in
  check_bool "trace has no rate" true (System.utilization with_trace ~proc:0 = None)

(* ------------------------------------------------------------------ *)
(* Priorities (Eq. 24)                                                 *)
(* ------------------------------------------------------------------ *)

let test_deadline_monotonic () =
  (* Two 2-stage jobs sharing both processors.  Sub-deadlines (Eq. 24):
     T1: D=20, taus (2,2): both stages 10.  T2: D=12, taus (1,3): stage 1
     gets 3, stage 2 gets 9.  So T2 outranks T1 on both processors. *)
  let mk name deadline e1 e2 =
    {
      System.name;
      arrival = Arrival.Periodic { period = 40; offset = 0 };
      deadline;
      steps =
        [|
          { System.proc = 0; exec = e1; prio = 0 };
          { System.proc = 1; exec = e2; prio = 0 };
        |];
    }
  in
  let jobs = Priority.deadline_monotonic [| mk "T1" 20 2 2; mk "T2" 12 1 3 |] in
  check_int "T2 stage 1 highest" 1 jobs.(1).System.steps.(0).System.prio;
  check_int "T1 stage 1 second" 2 jobs.(0).System.steps.(0).System.prio;
  check_int "T2 stage 2 highest" 1 jobs.(1).System.steps.(1).System.prio;
  check_int "T1 stage 2 second" 2 jobs.(0).System.steps.(1).System.prio

let test_priorities_unique_per_proc () =
  let mk i =
    {
      System.name = Printf.sprintf "T%d" i;
      arrival = Arrival.Periodic { period = 10 + i; offset = 0 };
      deadline = 20 + i;
      steps = [| { System.proc = 0; exec = 1 + (i mod 3); prio = 0 } |];
    }
  in
  let jobs = Priority.deadline_monotonic (Array.init 6 mk) in
  let prios =
    Array.to_list jobs |> List.map (fun j -> j.System.steps.(0).System.prio)
  in
  Alcotest.(check (list int)) "ranks are a permutation" [ 1; 2; 3; 4; 5; 6 ]
    (List.sort compare prios)

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

let test_builder_basic () =
  let system =
    Builder.(
      create [ spp; fcfs ]
      |> job "control" ~arrival:(periodic 5.0) ~deadline:4.0
           ~chain:[ on 0 1.0 ~prio:1 (); on 1 1.5 () ]
      |> job "logger" ~arrival:(bursty 4.0) ~deadline:12.0
           ~chain:[ on 0 0.8 ~prio:2 () ]
      |> build_exn)
  in
  check_int "processors" 2 (System.processor_count system);
  check_int "jobs" 2 (System.job_count system);
  let control = System.job system 0 in
  check_int "exec ticks" 1000 control.System.steps.(0).System.exec;
  check_int "deadline ticks" 4000 control.System.deadline;
  (match control.System.arrival with
  | Arrival.Periodic { period; offset } ->
      check_int "period" 5000 period;
      check_int "offset" 0 offset
  | _ -> Alcotest.fail "expected periodic");
  match (System.job system 1).System.arrival with
  | Arrival.Bursty { period } -> check_int "bursty period" 4000 period
  | _ -> Alcotest.fail "expected bursty"

let test_builder_auto_prio () =
  let system =
    Builder.(
      create [ spp ]
      |> job "slow" ~arrival:(periodic 10.0) ~deadline:10.0
           ~chain:[ on 0 1.0 () ]
      |> job "fast" ~arrival:(periodic 2.0) ~deadline:2.0
           ~chain:[ on 0 0.5 () ]
      |> auto_prio |> build_exn)
  in
  (* Eq. 24: "fast" has the smaller sub-deadline, so it outranks "slow". *)
  check_int "fast on top" 1 (System.job system 1).System.steps.(0).System.prio;
  check_int "slow below" 2 (System.job system 0).System.steps.(0).System.prio

let test_builder_rejects_invalid () =
  let b =
    Builder.(
      create [ spp ]
      |> job "a" ~arrival:(periodic 5.0) ~deadline:5.0 ~chain:[ on 3 1.0 () ])
  in
  Alcotest.(check bool) "out-of-range proc rejected" true
    (Result.is_error (Builder.build b))

(* ------------------------------------------------------------------ *)
(* Pattern envelopes                                                   *)
(* ------------------------------------------------------------------ *)

let test_pattern_envelopes () =
  let module E = Rta_curve.Envelope in
  let release_horizon = 100 in
  let check_conforms pattern =
    let alpha = Arrival.envelope pattern ~release_horizon in
    let times = Arrival.release_times pattern ~horizon:release_horizon in
    check_bool
      (Format.asprintf "%a conforms" Arrival.pp pattern)
      true
      (E.conforms alpha times)
  in
  List.iter check_conforms
    [
      Arrival.Periodic { period = 7; offset = 3 };
      Arrival.Bursty { period = 2000 };
      Arrival.Burst_periodic { burst = 3; period = 9; offset = 0 };
      Arrival.Sporadic_worst { min_gap = 5; count = 8 };
      Arrival.Trace [| 0; 1; 1; 30; 31 |];
    ]

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let sample_text =
  {|# sample system
processors spp spp fcfs

job T1 arrival periodic period=5.0 deadline 12.5
  step proc=0 exec=0.5 prio=1
  step proc=2 exec=0.4

job T2 arrival bursty period=3.0 deadline 9.0
  step proc=1 exec=0.25 prio=2

job T3 arrival trace 0,1.5,1.5,9.25 deadline 4.0
  step proc=1 exec=0.5 prio=1
|}

let test_parse_sample () =
  match Parser.parse sample_text with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check_int "processors" 3 (System.processor_count s);
      check_int "jobs" 3 (System.job_count s);
      let t1 = System.job s 0 in
      check_int "T1 deadline" 12500 t1.System.deadline;
      check_int "T1 step 2 proc" 2 t1.System.steps.(1).System.proc;
      check_int "T1 step 2 default prio" 1 t1.System.steps.(1).System.prio;
      (match (System.job s 2).System.arrival with
      | Arrival.Trace times ->
          Alcotest.(check (array int)) "trace" [| 0; 1500; 1500; 9250 |] times
      | _ -> Alcotest.fail "expected trace")

let test_parse_errors () =
  let reject text =
    match Parser.parse text with
    | Ok _ -> Alcotest.failf "expected parse error for %S" text
    | Error _ -> ()
  in
  reject "job T1 arrival periodic period=5 deadline 10\n  step proc=0 exec=1\n";
  reject "processors spp\njob T1 arrival periodic deadline 10\n  step proc=0 exec=1\n";
  reject "processors spp\njob T1 arrival periodic period=5 deadline 10\n  step proc=2 exec=1\n";
  reject "processors warp\n";
  reject "processors spp\nfrobnicate\n"

(* The batch service turns each bad NDJSON line into a structured per-line
   error, so the parser's messages are load-bearing: they must carry the
   offending line number and say what was wrong. *)
let test_parse_error_messages () =
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let expect ?line ~sub text =
    match Parser.parse text with
    | Ok _ -> Alcotest.failf "expected parse error for %S" text
    | Error e ->
        (match line with
        | Some l ->
            let prefix = Printf.sprintf "line %d:" l in
            Alcotest.(check bool)
              (Printf.sprintf "%S starts with %S" e prefix)
              true
              (String.length e >= String.length prefix
              && String.sub e 0 (String.length prefix) = prefix)
        | None -> ());
        Alcotest.(check bool)
          (Printf.sprintf "%S mentions %S" e sub)
          true (contains ~sub e)
  in
  let header = "processors spp\n" in
  (* Unknown scheduler name. *)
  expect ~line:1 ~sub:"unknown scheduler" "processors warp\n";
  (* Spec with no processors line at all. *)
  expect ~sub:"missing 'processors" "";
  expect ~sub:"missing 'processors" "# only a comment\n";
  (* Negative / non-positive quantities. *)
  expect ~line:3 ~sub:"expected a positive number"
    (header ^ "job T1 arrival periodic period=5 deadline 10\n\
               \  step proc=0 exec=-1\n");
  expect ~line:2 ~sub:"expected a positive number"
    (header ^ "job T1 arrival periodic period=-5 deadline 10\n");
  expect ~line:2 ~sub:"expected a non-negative number"
    (header ^ "job T1 arrival periodic period=5 offset=-2 deadline 10\n");
  expect ~line:2 ~sub:"burst must be a positive integer"
    (header ^ "job T1 arrival burst_periodic burst=0 period=9 deadline 10\n");
  (* Missing required fields. *)
  expect ~line:2 ~sub:"missing deadline"
    (header ^ "job T1 arrival periodic period=5\n");
  expect ~line:2 ~sub:"missing period="
    (header ^ "job T1 arrival periodic deadline 10\n");
  expect ~line:2 ~sub:"missing arrival kind" (header ^ "job T1 arrival\n");
  (* Malformed structure. *)
  expect ~line:2 ~sub:"unknown arrival kind"
    (header ^ "job T1 arrival warp deadline 10\n");
  expect ~line:2 ~sub:"step before any job" (header ^ "  step proc=0 exec=1\n");
  expect ~line:3 ~sub:"proc must be an integer"
    (header ^ "job T1 arrival periodic period=5 deadline 10\n\
               \  step proc=zero exec=1\n");
  expect ~line:2 ~sub:"unknown directive" (header ^ "frobnicate\n");
  (* Line numbers keep counting past comments and blank lines. *)
  expect ~line:5 ~sub:"unknown directive"
    (header ^ "# comment\n\njob T1 arrival periodic period=5 deadline 10\nwat\n")

let test_roundtrip () =
  match Parser.parse sample_text with
  | Error e -> Alcotest.fail e
  | Ok s -> (
      match Parser.parse (Parser.print s) with
      | Error e -> Alcotest.failf "re-parse failed: %s" e
      | Ok s' ->
          check_int "same processors" (System.processor_count s)
            (System.processor_count s');
          check_int "same jobs" (System.job_count s) (System.job_count s');
          for j = 0 to System.job_count s - 1 do
            let a = System.job s j and b = System.job s' j in
            check_bool "same job" true (a = b)
          done)

let prop_roundtrip_random_systems =
  (* print/parse on randomly generated stage shops must reproduce the exact
     same model (job for job). *)
  let gen =
    let open QCheck2.Gen in
    let* seed = int_range 0 100_000 in
    let* stages = int_range 1 4 in
    let* jobs = int_range 1 6 in
    return (seed, stages, jobs)
  in
  Rta_testsupport.Gen.qtest ~count:150 "parser roundtrip on generated shops" gen
    (fun (s, st, j) -> Printf.sprintf "seed=%d stages=%d jobs=%d" s st j)
    (fun (seed, stages, jobs) ->
      let config =
        Rta_workload.Jobshop.default ~stages ~jobs ~utilization:0.5
          ~arrival:Rta_workload.Jobshop.Periodic_eq25
          ~deadline:(Rta_workload.Jobshop.Multiple_of_period 2.0)
          ~sched:Sched.Spnp
      in
      let system =
        Rta_workload.Jobshop.generate config ~rng:(Rta_workload.Rng.make seed)
      in
      match Parser.parse (Parser.print system) with
      | Error _ -> false
      | Ok reparsed ->
          System.processor_count reparsed = System.processor_count system
          && List.for_all
               (fun j -> System.job reparsed j = System.job system j)
               (List.init (System.job_count system) Fun.id))

(* The printer is exact: units are the integer part plus the tick
   fraction without trailing zeros.  The former "%g" printer kept six
   significant digits, so 1234.567 units printed as 1234.57. *)

let contains_at text i sub =
  i + String.length sub <= String.length text
  && String.sub text i (String.length sub) = sub

let index_of sub text =
  let rec go i =
    if i + String.length sub > String.length text then raise Not_found
    else if contains_at text i sub then i
    else go (i + 1)
  in
  go 0

(* The units text [Parser.print] writes for [t], read back from the
   trace of a one-job system. *)
let printed_units t =
  let job =
    {
      System.name = "T";
      arrival = Arrival.Trace [| t |];
      deadline = 1;
      steps = [| { System.proc = 0; exec = 1; prio = 1 } |];
    }
  in
  let text = Parser.print (System.make_exn ~schedulers:[| Sched.Fcfs |] ~jobs:[| job |]) in
  let i = index_of "trace " text + String.length "trace " in
  String.sub text i (String.index_from text i ' ' - i)

(* The former printer's format. *)
let g_units t =
  let f = Time.to_units t in
  if Float.is_integer f then Printf.sprintf "%.0f" f else Printf.sprintf "%g" f

let test_print_exact () =
  List.iter
    (fun (t, text) -> Alcotest.(check string) (string_of_int t) text (printed_units t))
    [
      (0, "0"); (1, "0.001"); (10, "0.01"); (500, "0.5"); (12_500, "12.5");
      (1_234_567, "1234.567"); (1_234_568, "1234.568"); (99_999_999, "99999.999");
      (1_000_000_000, "1000000"); (1_000_000_001, "1000000.001");
      (4_499_999_999, "4499999.999"); (1_000_000_000_000_000, "1000000000000");
    ]

let prop_print_matches_g_where_exact =
  Rta_testsupport.Gen.qtest ~count:500 "printer = %g wherever %g was exact"
    Rta_testsupport.Sysgen.ticks_gen string_of_int (fun t ->
      let g = g_units t in
      Time.of_units (float_of_string g) <> t || printed_units t = g)

let prop_roundtrip_tick_values =
  Rta_testsupport.Gen.qtest ~count:500 "parser roundtrip over arbitrary tick values"
    Rta_testsupport.Sysgen.tick_system_gen Parser.print (fun system ->
      Parser.parse (Parser.print system) = Ok system)

(* Plain decimals [digits[.d{1,3}]] are read straight to ticks; every
   other form goes through [float_of_string].  Wherever the float path is
   exact (below about 4.5 x 10^9 ticks) a number must land on the tick it
   gives, with its error messages. *)

let offset_spec s =
  "processors fcfs\njob T arrival periodic period=1 offset=" ^ s
  ^ " deadline 1\n  step proc=0 exec=1\n"

let exec_spec s =
  "processors fcfs\njob T arrival periodic period=1 deadline 1\n  step proc=0 exec="
  ^ s ^ "\n"

let one_job ?(offset = 0) ?(exec = 1000) () =
  System.make ~schedulers:[| Sched.Fcfs |]
    ~jobs:
      [|
        {
          System.name = "T";
          arrival = Arrival.Periodic { period = 1000; offset };
          deadline = 1000;
          steps = [| { System.proc = 0; exec; prio = 1 } |];
        };
      |]

(* What the float path makes of [s] as an offset (non-negative units) and
   as an execution time (positive units, rounded up). *)
let float_offset s =
  match float_of_string_opt s with
  | Some f when f >= 0. -> one_job ~offset:(Time.of_units f) ()
  | Some _ | None ->
      Error (Printf.sprintf "line 2: expected a non-negative number, got %S" s)

let float_exec s =
  match float_of_string_opt s with
  | Some f when f > 0. -> one_job ~exec:(max 1 (Time.of_units_ceil f)) ()
  | Some _ | None ->
      Error (Printf.sprintf "line 3: expected a positive number, got %S" s)

let show = function Ok s -> "Ok " ^ Parser.print s | Error e -> "Error " ^ e

let check_number s =
  let same what expected got =
    if expected <> got then
      Alcotest.failf "%s %S: expected %s, got %s" what s (show expected) (show got)
  in
  same "offset" (float_offset s) (Parser.parse (offset_spec s));
  same "exec" (float_exec s) (Parser.parse (exec_spec s))

let test_fast_numbers_match_float_path () =
  let fractions =
    List.concat_map
      (fun digits ->
        List.init
          (int_of_float (10. ** float_of_int digits))
          (fun f -> Printf.sprintf ".%0*d" digits f))
      [ 1; 2; 3 ]
  in
  List.iter
    (fun ip ->
      let ip = string_of_int ip in
      check_number ip;
      List.iter (fun frac -> check_number (ip ^ frac)) fractions)
    [ 0; 1; 7; 99; 1_000; 12_345; 99_998; 99_999; 100_000; 100_001; 123_456 ]

(* Past the float path's exact range a plain decimal is still its digits:
   at 16,777,217 units the float path's ceiling snap adds a tick to 240 of
   the 1,000 three-decimal fractions, and reading the digits to none.  The
   largest integer part whose ticks fit an int is exact too. *)
let test_plain_decimals_exact () =
  let exec_ticks s =
    match Parser.parse (exec_spec s) with
    | Ok sys -> (System.job sys 0).System.steps.(0).System.exec
    | Error e -> Alcotest.failf "exec=%s should parse: %s" s e
  in
  for f = 0 to 999 do
    let s = Printf.sprintf "16777217.%03d" f in
    let t = exec_ticks s in
    check_int ("exec=" ^ s) ((16_777_217 * 1000) + f) t;
    match one_job ~exec:t () with
    | Ok sys -> check_bool (s ^ " round-trips") true (Parser.parse (Parser.print sys) = Ok sys)
    | Error e -> Alcotest.fail e
  done;
  let whole = (max_int - 999) / 1000 in
  check_int "largest exact integer part" ((whole * 1000) + 999)
    (exec_ticks (string_of_int whole ^ ".999"))

(* A job that is never released prints as [trace none] and parses back. *)
let test_empty_trace_roundtrip () =
  let sys =
    System.make_exn ~schedulers:[| Sched.Fcfs |]
      ~jobs:
        [|
          {
            System.name = "T";
            arrival = Arrival.Trace [||];
            deadline = 1000;
            steps = [| { System.proc = 0; exec = 1000; prio = 1 } |];
          };
        |]
  in
  let text = Parser.print sys in
  Alcotest.(check string) "spelled trace none"
    "processors fcfs\n\njob T arrival trace none deadline 1\n  step proc=0 exec=1 prio=1\n" text;
  check_bool "parses back" true (Parser.parse text = Ok sys)

let test_fallback_numbers () =
  List.iter check_number
    [ "1e3"; "0x10"; "1_000"; ".5"; "5."; "0.0005"; "0.000"; "+1"; "inf"; "nan";
      "-1"; "-0"; ""; "1.2.3"; "1.0000"; "0099.5"; "1e-3"; "12a" ];
  (* The values these forms have always had. *)
  let ticks what spec read =
    match Parser.parse spec with
    | Ok s -> read s
    | Error e -> Alcotest.failf "%s should parse: %s" what e
  in
  let exec s = ticks s (exec_spec s) (fun sys -> (System.job sys 0).System.steps.(0).System.exec) in
  let offset s =
    ticks s (offset_spec s) (fun sys ->
        match (System.job sys 0).System.arrival with
        | Arrival.Periodic { offset; _ } -> offset
        | _ -> Alcotest.fail "expected a periodic arrival")
  in
  List.iter
    (fun (s, t) -> check_int ("exec=" ^ s) t (exec s))
    [ ("1e3", 1_000_000); ("0x10", 16_000); ("1_000", 1_000_000); (".5", 500);
      ("5.", 5000); ("0.0005", 1); ("+1", 1000); ("1234.567", 1_234_567) ];
  List.iter
    (fun (s, t) -> check_int ("offset=" ^ s) t (offset s))
    [ ("0.000", 0); ("0.0005", 1); ("0.0004", 0); ("1e3", 1_000_000) ]

(* Words are separated by spaces only: a tab inside a line belongs to its
   word, while tabs (and a CR) at either end of a line are trimmed. *)
let test_tab_separated_tokens () =
  let job = "processors fcfs\njob T arrival periodic period=1 deadline 1\n" in
  let expect text expected =
    let got = Parser.parse text in
    if got <> expected then
      Alcotest.failf "%S: expected %s, got %s" text (show expected) (show got)
  in
  expect (job ^ "\tstep proc=0 exec=1\t\n") (one_job ());
  expect
    "processors fcfs\r\njob T arrival periodic period=1 deadline 1\r\n  step proc=0 exec=1\r\n"
    (one_job ());
  expect (job ^ "  step\tproc=0 exec=1\n")
    (Error "line 3: unknown directive \"step\\tproc=0\"");
  expect (job ^ "  step proc=0\texec=1\n") (Error "line 3: missing exec=...");
  expect (job ^ "  step proc=0 exec=1\tprio=2\n")
    (Error "line 3: expected a positive number, got \"1\\tprio=2\"");
  expect "processors fcfs\njob T\tarrival periodic period=1 deadline 1\n"
    (Error "line 2: expected: job NAME arrival KIND ... deadline D");
  expect "processors\tfcfs\n" (Error "line 1: unknown directive \"processors\\tfcfs\"")

let () =
  Alcotest.run "rta_model"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "isqrt" `Quick test_isqrt;
          prop_isqrt;
        ] );
      ( "arrival",
        [
          Alcotest.test_case "periodic" `Quick test_periodic_releases;
          Alcotest.test_case "bursty shape" `Quick test_bursty_shape;
          Alcotest.test_case "burst periodic" `Quick test_burst_periodic;
          Alcotest.test_case "sporadic worst" `Quick test_sporadic_worst;
          Alcotest.test_case "trace validation" `Quick test_trace_validation;
          prop_arrival_function_counts;
        ] );
      ( "system",
        [
          Alcotest.test_case "validation errors" `Quick test_validation_errors;
          Alcotest.test_case "blocking/neighbors" `Quick test_blocking_and_neighbors;
          Alcotest.test_case "utilization" `Quick test_utilization;
        ] );
      ( "priority",
        [
          Alcotest.test_case "deadline monotonic (Eq. 24)" `Quick test_deadline_monotonic;
          Alcotest.test_case "unique ranks" `Quick test_priorities_unique_per_proc;
        ] );
      ( "builder",
        [
          Alcotest.test_case "basic" `Quick test_builder_basic;
          Alcotest.test_case "auto prio" `Quick test_builder_auto_prio;
          Alcotest.test_case "rejects invalid" `Quick test_builder_rejects_invalid;
        ] );
      ( "envelopes",
        [ Alcotest.test_case "patterns conform" `Quick test_pattern_envelopes ] );
      ( "parser",
        [
          Alcotest.test_case "sample" `Quick test_parse_sample;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error messages" `Quick test_parse_error_messages;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          prop_roundtrip_random_systems;
          Alcotest.test_case "print is exact" `Quick test_print_exact;
          prop_print_matches_g_where_exact;
          prop_roundtrip_tick_values;
          Alcotest.test_case "fast numbers = float path" `Quick
            test_fast_numbers_match_float_path;
          Alcotest.test_case "plain decimals exact at any size" `Quick
            test_plain_decimals_exact;
          Alcotest.test_case "empty trace roundtrip" `Quick test_empty_trace_roundtrip;
          Alcotest.test_case "fallback number forms" `Quick test_fallback_numbers;
          Alcotest.test_case "tab-separated tokens" `Quick test_tab_separated_tokens;
        ] );
    ]
