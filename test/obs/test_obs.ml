(* The observability layer's own contract:

   - spans nest into a tree with correct parent/depth links;
   - histogram quantiles are nearest-rank on the recorded observations;
   - a disabled registry costs one branch per hook and does NOT allocate
     (checked with Gc.minor_words around a hot loop of every hook);
   - the engine and fixpoint instrumentation record what the report
     promises: per-subjob spans carrying the theorem path and curve sizes,
     and iteration counts matching a hand-checked cyclic example;
   - the kernel-call counts of every theorem path on fixed seeded shops
     stay at or below their pins (the operation-count gate). *)

open Rta_model
module Obs = Rta_obs

let with_obs f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  with_obs (fun () ->
      let a = Obs.span_begin "a" in
      let b = Obs.span_begin "b" in
      Obs.span_int b "size" 7;
      Obs.span_end b;
      let c = Obs.span_begin "c" in
      Obs.span_end c;
      Obs.span_str a "path" "root";
      Obs.span_end a;
      let s = Obs.spans () in
      check_int "span count" 3 (Array.length s);
      Alcotest.(check string) "first is a" "a" s.(0).Obs.si_name;
      check_int "a is a root" (-1) s.(0).Obs.si_parent;
      check_int "a depth" 0 s.(0).Obs.si_depth;
      Alcotest.(check string) "second is b" "b" s.(1).Obs.si_name;
      check_int "b's parent is a" 0 s.(1).Obs.si_parent;
      check_int "b depth" 1 s.(1).Obs.si_depth;
      Alcotest.(check string) "third is c" "c" s.(2).Obs.si_name;
      check_int "c's parent is a (b closed)" 0 s.(2).Obs.si_parent;
      check_int "c depth" 1 s.(2).Obs.si_depth;
      check_bool "b has its attribute" true
        (s.(1).Obs.si_attrs = [ ("size", Obs.Int 7) ]);
      check_bool "a has its attribute" true
        (s.(0).Obs.si_attrs = [ ("path", Obs.Str "root") ]);
      Array.iter
        (fun (i : Obs.span_info) ->
          check_bool "duration is a number >= 0" true (i.Obs.si_duration >= 0.))
        s)

let test_span_disabled_token () =
  Obs.set_enabled false;
  Obs.reset ();
  let t = Obs.span_begin "never" in
  check_bool "disabled span_begin returns no_span" true (t = Obs.no_span);
  Obs.span_int t "k" 1;
  Obs.span_end t;
  check_int "nothing recorded" 0 (Array.length (Obs.spans ()))

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let test_histogram_quantiles () =
  with_obs (fun () ->
      let h = Obs.histogram "t.quantiles" in
      (* Insert 1..100 shuffled (deterministically) to rule out
         order-dependence. *)
      let values = Array.init 100 (fun i -> i + 1) in
      let swap i j =
        let t = values.(i) in
        values.(i) <- values.(j);
        values.(j) <- t
      in
      Array.iteri (fun i _ -> swap i ((i * 37) mod 100)) values;
      Array.iter (fun v -> Obs.observe_int h v) values;
      check_int "count" 100 (Obs.histogram_count h);
      Alcotest.(check (float 0.)) "p50" 50. (Obs.quantile h 0.5);
      Alcotest.(check (float 0.)) "p95" 95. (Obs.quantile h 0.95);
      Alcotest.(check (float 0.)) "p0 is the minimum" 1. (Obs.quantile h 0.);
      Alcotest.(check (float 0.)) "p100 is the maximum" 100. (Obs.quantile h 1.);
      Alcotest.(check (float 0.)) "max" 100. (Obs.histogram_max h));
  let h_empty = Obs.histogram "t.quantiles.empty" in
  check_bool "empty histogram quantile is nan" true
    (Float.is_nan (Obs.quantile h_empty 0.5))

(* ------------------------------------------------------------------ *)
(* Disabled hook path: zero allocations                                *)
(* ------------------------------------------------------------------ *)

let test_disabled_no_alloc () =
  Obs.set_enabled false;
  Obs.reset ();
  let c = Obs.counter "t.disabled.counter" in
  let g = Obs.gauge "t.disabled.gauge" in
  let h = Obs.histogram "t.disabled.histogram" in
  (* Warm-up: any one-time setup happens outside the measured window. *)
  Obs.incr c;
  Obs.observe_int h 1;
  let w0 = Gc.minor_words () in
  for i = 1 to 100_000 do
    Obs.incr c;
    Obs.add c 3;
    Obs.observe_int h i;
    Obs.max_gauge g i;
    let sp = Obs.span_begin "t.disabled.span" in
    Obs.span_end sp
  done;
  let w1 = Gc.minor_words () in
  (* 100k iterations of 6 hooks; allow a generous constant for the
     Gc.minor_words boxes themselves.  Any per-hook allocation would show
     up as >= 100k words. *)
  check_bool
    (Printf.sprintf "allocated %.0f minor words across 100k disabled hooks"
       (w1 -. w0))
    true
    (w1 -. w0 < 256.);
  check_int "counter did not move" 0 (Obs.counter_value c);
  check_int "histogram stayed empty" 0 (Obs.histogram_count h);
  check_bool "gauge stayed unset" true (Obs.gauge_value g = None)

(* ------------------------------------------------------------------ *)
(* Concurrency: hooks from several workers must not lose updates       *)
(* ------------------------------------------------------------------ *)

(* Hammer every hook from [workers] tasks at once on the service's domain
   pool: the totals must be exact.  Counters and gauges are atomics;
   histograms and spans serialise on the registry mutex. *)
let test_concurrent_hooks () =
  with_obs (fun () ->
      let c = Obs.counter "t.stress.counter" in
      let g = Obs.gauge "t.stress.gauge" in
      let h = Obs.histogram "t.stress.histogram" in
      let workers = 8 and per_worker = 5_000 in
      let tasks =
        Array.init workers (fun w () ->
            for i = 1 to per_worker do
              Obs.incr c;
              Obs.add c 2;
              Obs.max_gauge g ((w * per_worker) + i);
              Obs.observe_int h i;
              let sp = Obs.span_begin "t.stress.span" in
              Obs.span_int sp "i" i;
              Obs.span_end sp
            done)
      in
      Rta_service.Backend.run ~jobs:workers tasks;
      check_int "no lost counter increments"
        (3 * workers * per_worker)
        (Obs.counter_value c);
      check_bool "gauge holds the global maximum" true
        (Obs.gauge_value g = Some (workers * per_worker));
      check_int "no lost observations" (workers * per_worker)
        (Obs.histogram_count h);
      Alcotest.(check (float 0.))
        "histogram max survives the race"
        (float_of_int per_worker) (Obs.histogram_max h);
      let s = Obs.spans () in
      check_int "every span begun was ended and recorded"
        (workers * per_worker) (Array.length s);
      Array.iter
        (fun (i : Obs.span_info) ->
          check_bool "span record is well-formed" true
            (i.Obs.si_name = "t.stress.span"
            && i.Obs.si_duration >= 0.
            && List.mem_assoc "i" i.Obs.si_attrs))
        s)

(* ------------------------------------------------------------------ *)
(* JSON parsing (the NDJSON ingest side of Json)                       *)
(* ------------------------------------------------------------------ *)

let json =
  Alcotest.testable
    (fun ppf j -> Format.pp_print_string ppf (Obs.Json.to_string j))
    (fun a b -> Obs.Json.to_string a = Obs.Json.to_string b)

let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_json_of_string () =
  let ok s expected =
    match Obs.Json.of_string s with
    | Ok j -> Alcotest.check json s expected j
    | Error e -> Alcotest.fail (Printf.sprintf "%s: unexpected error %s" s e)
  in
  let module J = Obs.Json in
  ok "null" J.Null;
  ok "  true " (J.Bool true);
  ok "-42" (J.Int (-42));
  ok "3.5" (J.Float 3.5);
  ok "1e3" (J.Float 1000.);
  ok "[1,2,[3]]" (J.List [ J.Int 1; J.Int 2; J.List [ J.Int 3 ] ]);
  ok {|{"a": 1, "b": [true, null], "c": "x"}|}
    (J.Obj
       [ ("a", J.Int 1); ("b", J.List [ J.Bool true; J.Null ]); ("c", J.String "x") ]);
  ok {|"tab\tquote\"uA"|} (J.String "tab\tquote\"uA");
  (* Surrogate pair: U+1F600 as UTF-8. *)
  ok {|"😀"|} (J.String "\xf0\x9f\x98\x80");
  let err s =
    match Obs.Json.of_string s with
    | Ok j ->
        Alcotest.fail
          (Printf.sprintf "%s: expected an error, got %s" s (J.to_string j))
    | Error e ->
        check_bool
          (Printf.sprintf "%s: error mentions the offset (%s)" s e)
          true
          (String.length e > 0 && contains_substring ~sub:"offset" e)
  in
  List.iter err
    [ ""; "{"; "[1,"; "tru"; "1 2"; {|{"a":}|}; {|"\q"|}; {|"unterminated|};
      {|{"a" 1}|}; "[1 2]"; "nul"; {|"\ud83d"|} ]

(* Round-trip: to_string output of every value shape parses back equal. *)
let test_json_roundtrip () =
  let module J = Obs.Json in
  let v =
    J.Obj
      [
        ("ints", J.List [ J.Int 0; J.Int (-1); J.Int max_int ]);
        ("floats", J.List [ J.Float 0.5; J.Float (-2.25); J.Float 1e100 ]);
        ("strings", J.List [ J.String ""; J.String "a\"b\\c\n\t"; J.String "\xc3\xa9" ]);
        ("misc", J.List [ J.Null; J.Bool true; J.Bool false; J.Obj [] ]);
      ]
  in
  match Obs.Json.of_string (J.to_string v) with
  | Ok j -> Alcotest.check json "roundtrip" v j
  | Error e -> Alcotest.fail ("roundtrip failed: " ^ e)

(* \uXXXX surrogate handling: every malformed combination is a parse
   error with a useful offset, never a bogus code point or a crash; valid
   pairs decode to the astral code point's UTF-8. *)
let test_json_surrogates () =
  let module J = Obs.Json in
  let ok s expected =
    match Obs.Json.of_string s with
    | Ok j -> Alcotest.check json s expected j
    | Error e -> Alcotest.fail (Printf.sprintf "%s: unexpected error %s" s e)
  in
  let err s =
    match Obs.Json.of_string s with
    | Ok j ->
        Alcotest.fail
          (Printf.sprintf "%s: expected an error, got %s" s (J.to_string j))
    | Error e ->
        check_bool
          (Printf.sprintf "%s: error carries the offset (%s)" s e)
          true (contains_substring ~sub:"offset" e)
  in
  (* Valid escaped pair: U+1F600 decodes to its UTF-8 bytes. *)
  ok "\"\\ud83d\\ude00\"" (J.String "\xf0\x9f\x98\x80");
  ok "\"a\\ud83d\\ude00b\"" (J.String "a\xf0\x9f\x98\x80b");
  (* The BMP neighbours of the surrogate range are ordinary code points. *)
  ok "\"\\ud7ff\"" (J.String "\xed\x9f\xbf");
  ok "\"\\ue000\"" (J.String "\xee\x80\x80");
  (* Lone high surrogate at end of input. *)
  err {|"\ud800"|};
  (* Lone high surrogate followed by ordinary content. *)
  err {|"\ud800x"|};
  err {|"\ud800\n"|};
  (* High surrogate followed by a non-low escape. *)
  err {|"\ud800A"|};
  (* High followed by another high. *)
  err {|"\ud800\ud800"|};
  (* Unpaired low surrogate leading. *)
  err {|"\udc00"|};
  err {|"\udfff"|};
  (* Truncated second escape. *)
  err {|"\ud83d\ude0|};
  err {|"\ud83d\u|}

(* Strings are copied a run of plain characters at a time; escapes and
   the control-character check cut the runs, and keep their messages and
   offsets. *)
let test_json_string_runs () =
  let module J = Obs.Json in
  let ok s expected =
    match Obs.Json.of_string s with
    | Ok j -> Alcotest.check json s expected j
    | Error e -> Alcotest.fail (Printf.sprintf "%s: unexpected error %s" s e)
  in
  let long = String.make 300 'x' in
  ok ("\"" ^ long ^ "\"") (J.String long);
  ok ("\"" ^ long ^ "\\n" ^ long ^ "\\\"\\\\\"") (J.String (long ^ "\n" ^ long ^ "\"\\"));
  ok "\"\\n\\n\"" (J.String "\n\n");
  ok "\"a\\u00e9b\\/c\"" (J.String "a\xc3\xa9b/c");
  ok {|{"spec":"processors spp\njob T1"}|} (J.Obj [ ("spec", J.String "processors spp\njob T1") ]);
  List.iter
    (fun (s, message) ->
      Alcotest.(check (result reject string))
        (String.escaped s) (Error message)
        (Result.map (fun _ -> ()) (Obs.Json.of_string s)))
    [
      ("\"ab\001c\"", "JSON parse error at offset 3: unescaped control character");
      ("\"ab\\n\tc\"", "JSON parse error at offset 5: unescaped control character");
      ("\"abc", "JSON parse error at offset 4: unterminated string");
      ("\"abc\\", "JSON parse error at offset 5: unterminated escape");
      ("\"ab\\q\"", "JSON parse error at offset 4: invalid escape \\'q'");
      ("\"a\\ud800b\"", "JSON parse error at offset 8: lone high surrogate");
    ]

(* ------------------------------------------------------------------ *)
(* Engine instrumentation                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_spans () =
  let system =
    System.make_exn
      ~schedulers:[| Sched.Spp |]
      ~jobs:
        [|
          {
            System.name = "A";
            arrival = Arrival.Periodic { period = 10; offset = 0 };
            deadline = 10;
            steps = [| { System.proc = 0; exec = 3; prio = 1 } |];
          };
        |]
  in
  with_obs (fun () ->
      let e =
        match Rta_core.Engine.run ~horizon:100 system with
        | Ok e -> e
        | Error (`Cyclic _) -> Alcotest.fail "unexpected cyclic"
      in
      let s = Obs.spans () in
      let find name =
        match
          Array.to_list s
          |> List.find_opt (fun (i : Obs.span_info) -> i.Obs.si_name = name)
        with
        | Some i -> i
        | None -> Alcotest.fail ("missing span " ^ name)
      in
      let root = find "engine.run" in
      check_int "engine.run is a root span" (-1) root.Obs.si_parent;
      let subjob = find "engine.subjob A.1" in
      check_bool "subjob span nests under engine.run" true
        (s.(subjob.Obs.si_parent).Obs.si_name = "engine.run");
      let attr k =
        match List.assoc_opt k subjob.Obs.si_attrs with
        | Some (Obs.Int n) -> n
        | Some (Obs.Str _) | None -> Alcotest.fail ("missing int attr " ^ k)
      in
      check_bool "theorem path recorded" true
        (List.assoc_opt "path" subjob.Obs.si_attrs = Some (Obs.Str "spp-exact"));
      (* 10 releases of a period-10 job in [0, 100]. *)
      check_int "arrival curve size recorded" 11 (attr "arr_lo.jumps");
      check_bool "departure curve size recorded" true (attr "dep_lo.jumps" > 0);
      (* The exact SPP service is built only when forced, and tracing
         forces nothing: no size is reported for a curve never built. *)
      let svc = (Rta_core.Engine.entry e { System.job = 0; step = 0 }).svc_lo in
      check_bool "tracing leaves the service curve unbuilt" false (Lazy.is_val svc);
      check_bool "no size for an unbuilt service curve" true
        (List.assoc_opt "svc_lo.knots" subjob.Obs.si_attrs = None);
      check_bool "built on demand" true (Rta_curve.Pl.knot_count (Lazy.force svc) > 0))

(* ------------------------------------------------------------------ *)
(* Fixpoint instrumentation on a hand-checked cyclic example           *)
(* ------------------------------------------------------------------ *)

(* Two jobs crossing two SPP processors in opposite directions: the
   dependency graph is cyclic, so only the Section 6 fixed-point analysis
   applies.

     A: released at 0, 20, 40, ...   A.1 on P0 (exec 2, prio 2),
                                     A.2 on P1 (exec 2, prio 1)
     B: released at 2, 22, 42, ...   B.1 on P1 (exec 2, prio 2),
                                     B.2 on P0 (exec 2, prio 1)

   Hand check of the schedule: A.1 runs [0,2] on an empty P0; A.2 is
   released at 2 on P1 where it has the higher priority, runs [2,4] — A's
   response is 4.  B.1 (released at 2 on P1) loses to A.2, runs [4,6];
   B.2 runs [6,8] on P0 — B's response is 8 - 2 = 6.  The iteration
   starts from X = (execution prefixes) = A:(2,4), B:(2,4), raises B to
   (4,6) as A's interference propagates, and needs one final sweep to
   observe stability: 3 iterations, converged. *)
let cyclic_system () =
  System.make_exn
    ~schedulers:[| Sched.Spp; Sched.Spp |]
    ~jobs:
      [|
        {
          System.name = "A";
          arrival = Arrival.Periodic { period = 20; offset = 0 };
          deadline = 100;
          steps =
            [|
              { System.proc = 0; exec = 2; prio = 2 };
              { System.proc = 1; exec = 2; prio = 1 };
            |];
        };
        {
          System.name = "B";
          arrival = Arrival.Periodic { period = 20; offset = 2 };
          deadline = 100;
          steps =
            [|
              { System.proc = 1; exec = 2; prio = 2 };
              { System.proc = 0; exec = 2; prio = 1 };
            |];
        };
      |]

let test_fixpoint_iterations () =
  let system = cyclic_system () in
  (match Rta_core.Deps.compute system with
  | Rta_core.Deps.Cyclic _ -> ()
  | Rta_core.Deps.Acyclic _ -> Alcotest.fail "example should be cyclic");
  let bounds per_job =
    match per_job with
    | [| Verdict.Bounded a; Verdict.Bounded b |] ->
        check_int "A's end-to-end bound" 4 a;
        check_int "B's end-to-end bound" 6 b
    | _ -> Alcotest.fail "expected two bounded jobs"
  in
  (* The textbook Jacobi sweep, as hand-checked above. *)
  let r = Rta_check.Reference.jacobi ~release_horizon:200 ~horizon:400 system in
  check_int "hand-checked iteration count" 3 r.Rta_check.Reference.iterations;
  bounds r.Rta_check.Reference.per_job;
  (* The analysis iterates the one loop in its symmetric sweep: P0 then
     P1 raises B.1 to 4 after B.2 has read it, P1 then P0 raises B.2 to
     6, and a third round observes stability, at the same bounds. *)
  with_obs (fun () ->
      let config = Rta_core.Analysis.config ~release_horizon:200 ~horizon:400 () in
      bounds (Rta_core.Analysis.run ~config system).Rta_core.Analysis.per_job;
      check_bool "gauge records the rounds" true
        (Obs.gauge_value (Obs.gauge "fixpoint.last.iterations") = Some 3);
      check_bool "convergence verdict recorded" true
        (Obs.gauge_value (Obs.gauge "fixpoint.last.converged") = Some 1);
      let s = Obs.spans () in
      let iter_spans =
        Array.to_list s
        |> List.filter (fun (i : Obs.span_info) ->
               String.starts_with ~prefix:"fixpoint.iteration" i.Obs.si_name)
      in
      check_int "one span per iteration" 3 (List.length iter_spans);
      (* The final sweep observes stability: residual 0. *)
      match List.rev iter_spans with
      | last :: _ ->
          check_bool "last iteration has residual 0" true
            (List.assoc_opt "residual" last.Obs.si_attrs = Some (Obs.Int 0))
      | [] -> Alcotest.fail "no iteration spans")

(* ------------------------------------------------------------------ *)
(* Operation-count gate                                                *)
(* ------------------------------------------------------------------ *)

(* The work each theorem path does, as deterministic kernel-call counts
   on fixed seeded shops: the same on any hardware and free of timing
   noise.  Every count must stay at or below its pin (skipped_clean at or
   above), so a glue regression - say, re-summing a processor-wide
   workload per resident - fails here.  Lower a pin when an optimization
   lowers the count. *)

let seeded_shop ~stages ~jobs sched =
  let config =
    Rta_workload.Jobshop.default ~stages ~jobs ~utilization:0.5
      ~arrival:Rta_workload.Jobshop.Periodic_eq25
      ~deadline:(Rta_workload.Jobshop.Multiple_of_period 2.0) ~sched
  in
  Rta_workload.Jobshop.generate config ~rng:(Rta_workload.Rng.make 7)

(* No verdict reads a job's last-stage upper bracket: after the analysis
   of an acyclic shop with tracing on, under each estimator, every last
   stage's [svc_hi] is unbuilt, and so is its [dep_hi] save where the
   path's exactness made it one curve with [dep_lo] (exact SPP, or FCFS
   with exact tie-free inputs).  The traced run reports no size for an
   unbuilt curve, and its verdicts equal the untraced run's. *)
let test_last_stage_upper_unbuilt () =
  List.iter
    (fun sched ->
      let system = seeded_shop ~stages:3 ~jobs:6 sched in
      let release_horizon, horizon = System.suggested_horizons system in
      let config = Rta_core.Analysis.config ~release_horizon ~horizon () in
      let untraced = Rta_core.Analysis.run ~config system in
      with_obs (fun () ->
          let traced = Rta_core.Analysis.run ~config system in
          check_bool "traced verdicts = untraced" true
            (traced.per_job = untraced.per_job);
          let e = Result.get_ok (Rta_core.Engine.run ~release_horizon ~horizon system) in
          List.iter
            (fun estimator -> ignore (Rta_core.Response.schedulable e ~estimator))
            [ `Direct; `Sum ];
          let last j = Array.length (System.job system j).System.steps - 1 in
          for job = 0 to System.job_count system - 1 do
            let id = { System.job; step = last job } in
            let en = Rta_core.Engine.entry e id in
            let name =
              Printf.sprintf "%s.%d" (System.job system job).System.name (last job + 1)
            in
            check_bool (name ^ ": svc_hi unbuilt") false (Lazy.is_val en.svc_hi);
            check_bool (name ^ ": dep_hi unbuilt") en.exact (Lazy.is_val en.dep_hi);
            Array.iter
              (fun (i : Obs.span_info) ->
                if i.Obs.si_name = "engine.subjob " ^ name then
                  check_bool (name ^ ": no size for unbuilt curves") en.exact
                    (List.mem_assoc "dep_hi.jumps" i.Obs.si_attrs
                    || List.mem_assoc "svc_hi.knots" i.Obs.si_attrs))
              (Obs.spans ())
          done))
    [ Sched.Spp; Sched.Spnp; Sched.Fcfs ]

let check_counts ~at_most ?(at_least = []) run () =
  with_obs (fun () ->
      run ();
      let value name = Obs.counter_value (Obs.counter name) in
      List.iter
        (fun (name, pin) ->
          let v = value name in
          if v > pin then Alcotest.failf "%s = %d, above its pin %d" name v pin)
        at_most;
      List.iter
        (fun (name, pin) ->
          let v = value name in
          if v < pin then Alcotest.failf "%s = %d, below its pin %d" name v pin)
        at_least)

let kernel_counters =
  [
    "step.add.calls";
    "step.scale.calls";
    "pl.add.calls";
    "pl.sub.calls";
    "pl.max2.calls";
    "minplus.utilization.calls";
  ]

let kernel_pins ~step_add ~step_scale ~pl_add ~pl_sub ~pl_max2 ~utilization =
  List.combine kernel_counters
    [ step_add; step_scale; pl_add; pl_sub; pl_max2; utilization ]

let sweep_pins ~lo_events ~hi_windows ~hi_reads ~crossings =
  [
    ("sp.lo.events", lo_events);
    ("sp.hi.windows", hi_windows);
    ("sp.hi.reads", hi_reads);
    ("pl.merged.crossings", crossings);
  ]

let departure_pins ~calls ~seeks ~steps =
  [
    ("minplus.departures.calls", calls);
    ("pl.inverse.seeks", seeks);
    ("pl.inverse.steps", steps);
  ]

let run_engine system =
  let release_horizon, horizon = System.suggested_horizons system in
  match Rta_core.Engine.run ~release_horizon ~horizon system with
  | Ok e ->
      ignore (Rta_core.Response.schedulable e ~estimator:`Direct);
      e
  | Error (`Cyclic _) -> Alcotest.fail "job shops are acyclic"

let engine_counts sched ~pins =
  check_counts ~at_most:pins (fun () ->
      ignore (run_engine (seeded_shop ~stages:3 ~jobs:6 sched)))

(* The analysis of a chain-swapped SPP shop ({!Rta_testsupport.Loops}):
   its loops run the Section 6 iteration, the rest one step per subjob. *)
let fixpoint_counts ~seed ~stages ~jobs ~pins ~recomputes ~skipped_clean =
  check_counts
    ~at_most:(("fixpoint.recomputes", recomputes) :: pins)
    ~at_least:[ ("fixpoint.skipped_clean", skipped_clean) ]
    (fun () ->
      let system = Rta_testsupport.Loops.chain_swapped ~stages ~seed Sched.Spp ~jobs in
      let release_horizon, horizon = System.suggested_horizons system in
      let config = Rta_core.Analysis.config ~release_horizon ~horizon () in
      ignore (Rta_core.Analysis.run ~config system))

(* The golden batch corpus's FCFS loop (L1 revisits the FCFS P0): the
   loop {L1.1, L1.2, L2.1} iterates alone, 6 rounds and 10 recomputes,
   and the two subjobs after it, L1.3 and L2.2 on P0, are stepped exactly
   once each, from a context rebuilt on the loop's final brackets. *)
let loop_counts () =
  let paths ~fcfs =
    [
      ("engine.path.spp_exact", 0);
      ("engine.path.spp_bounds", 0);
      ("engine.path.spnp", 0);
      ("engine.path.fcfs", fcfs);
      ("engine.path.fcfs_exact", 0);
    ]
  in
  check_counts
    ~at_most:
      ((("fixpoint.recomputes", 10) :: paths ~fcfs:2)
      @ kernel_pins ~step_add:23 ~step_scale:24 ~pl_add:0 ~pl_sub:0 ~pl_max2:0
          ~utilization:16)
    ~at_least:(("fixpoint.skipped_clean", 8) :: paths ~fcfs:2)
    (fun () ->
      let system = Rta_testsupport.Loops.fcfs_loop () in
      let release_horizon, horizon = System.suggested_horizons system in
      let config = Rta_core.Analysis.config ~release_horizon ~horizon () in
      ignore (Rta_core.Analysis.run ~config system))
    ()

let count_cases =
  [
    ( "engine SPP 6x3",
      engine_counts Sched.Spp
        ~pins:
          (kernel_pins ~step_add:0 ~step_scale:18 ~pl_add:0 ~pl_sub:0
             ~pl_max2:0 ~utilization:0
          @ [
              (* Every resident is exact: it consumes idle intervals and
                 runs no curve kernel, one map search per instance plus
                 one per interval it uses up before it is done. *)
              ("spp.idle.queries", 405);
              ("spp.idle.removed", 19);
              ("spp.idle.splits", 386);
            ]) );
    ( "engine SPNP 6x3",
      engine_counts Sched.Spnp
        ~pins:
          (kernel_pins ~step_add:16 ~step_scale:30 ~pl_add:0 ~pl_sub:0
             ~pl_max2:0 ~utilization:12
          (* Each resident's bounds are two sweeps and the [`Right]
             utilization of its own workload: the lower sweep walks the
             jumps of its higher-priority upper workload and its level-k
             lower workload once, and the upper reads spans of the
             higher-priority service sum only in the windows where its
             own upper workload is above the bound so far, through a
             merged reader over the members' curves that moves only the
             members whose knots it passes: no service curve is added.
             Its two departure bounds read their service curves
             forward, one search per instance.  The upper sweep, the
             utilization and the upper departure bound run only where
             the next stage's arrival bracket reads them: not on the 6
             last stages. *)
          @ sweep_pins ~lo_events:1150 ~hi_windows:212 ~hi_reads:301 ~crossings:284
          @ departure_pins ~calls:30 ~seeks:545 ~steps:1306) );
    ( "engine FCFS 6x3",
      engine_counts Sched.Fcfs
        ~pins:
          (kernel_pins ~step_add:20 ~step_scale:30 ~pl_add:0 ~pl_sub:0
             ~pl_max2:0 ~utilization:10
          @ [
              (* A lower inverse handle per processor and an upper one
                 where some resident's upper bound is read (4 of the 6
                 processors: the other 2 hold last stages only), one
                 O(log knots) search per arrival jump and bound read,
                 and workload sums added in pairwise rounds.  The
                 inspection-only service curves are never built. *)
              ("pl.inverse.handles", 10);
              ("pl.inverse.queries", 545);
              ("pl.inverse.probes", 3902);
              ("step.add.jumps", 922);
              (* Each resident depends on its chain predecessor and on its
                 processor's join point, which depends on the residents'
                 predecessors: O(N) edges per processor. *)
              ("deps.edges", 42);
            ]) );
    (* Chain-swapped SPP shops of 3 jobs by 2 stages, 6 by 3 and 9 by 4
       (seed 8): one loop each, of 4, 6 and 26 subjobs, settled in 3, 21
       and 6 rounds.  The iteration reads only the members' lower
       departure bounds, so a round runs no upper sweep: the upper
       brackets are built once, after the loop, where a later stage
       outside it reads them. *)
    ( "fixpoint 3x2",
      fixpoint_counts ~seed:8 ~stages:2 ~jobs:3 ~recomputes:6 ~skipped_clean:6
        ~pins:
          (kernel_pins ~step_add:7 ~step_scale:10 ~pl_add:0 ~pl_sub:0
             ~pl_max2:0 ~utilization:0
          @ sweep_pins ~lo_events:218 ~hi_windows:0 ~hi_reads:0 ~crossings:0
          @ departure_pins ~calls:6 ~seeks:66 ~steps:147) );
    ( "fixpoint 6x3",
      fixpoint_counts ~seed:8 ~stages:3 ~jobs:6 ~recomputes:66 ~skipped_clean:60
        ~pins:
          (kernel_pins ~step_add:123 ~step_scale:84 ~pl_add:0 ~pl_sub:0
             ~pl_max2:0 ~utilization:3
          @ sweep_pins ~lo_events:23385 ~hi_windows:88 ~hi_reads:176
              ~crossings:191
          @ departure_pins ~calls:73 ~seeks:4204 ~steps:11779) );
    ( "fixpoint 9x4",
      fixpoint_counts ~seed:8 ~stages:4 ~jobs:9 ~recomputes:101 ~skipped_clean:55
        ~pins:
          (kernel_pins ~step_add:162 ~step_scale:135 ~pl_add:0 ~pl_sub:0
             ~pl_max2:0 ~utilization:6
          @ sweep_pins ~lo_events:33276 ~hi_windows:290 ~hi_reads:351
              ~crossings:231
          @ departure_pins ~calls:113 ~seeks:4675 ~steps:14384) );
    (* The 16-job chain-swapped SPP shop of seed 3: one loop of 23
       subjobs.  The symmetric sweep settles it in 11 rounds and 138
       member steps; the textbook Jacobi order takes 12 rounds and 266. *)
    ( "fixpoint 16 chain-swapped SPP",
      fixpoint_counts ~seed:3 ~stages:2 ~jobs:16 ~recomputes:138
        ~skipped_clean:115 ~pins:[] );
  ]

let ceil_log2 n =
  let rec go k p = if p >= n then k else go (k + 1) (2 * p) in
  go 0 1

(* The jumps of a set of entries' arrival brackets, both sides. *)
let bracket_jumps e residents =
  List.fold_left
    (fun acc sid ->
      let en = Rta_core.Engine.entry e sid in
      acc + Rta_curve.Step.jump_count en.arr_lo + Rta_curve.Step.jump_count en.arr_hi)
    0 residents

(* Whether some resident's upper bracket was read: its upper departure
   bound is built (forced), and not by the exactness test of exact
   tie-free inputs, which reads the lower utilization only. *)
let upper_read e id =
  let en = Rta_core.Engine.entry e id in
  Lazy.is_val en.Rta_core.Engine.dep_hi && not en.exact

(* An FCFS processor with N residents and I instances costs O(I log I):
   - Theorem 7's utilization walks: the [`Left] one once per processor,
     and the [`Right] one once more where some resident's upper bracket
     is read, which a job's last stage never asks for;
   - at most one inverse handle per utilization walk;
   - one inverse query per arrival jump and bound read, the instances of
     a jump sharing their arrival time, so at most the lower brackets'
     jumps and the upper brackets' jumps of the residents whose upper
     bound is read (a query per instance overshoots on bursts, below);
   - at most [ceil (log2 knots) + 1] knot reads per inverse query, a
     binary search where a linear scan reads up to every knot;
   - workload sums in pairwise rounds: a sum over residents whose
     brackets have J jumps in all outputs at most J jumps per round in
     [ceil (log2 N)] rounds, where a left fold outputs about J N / 2
     (it overshoots at 12 and 24 jobs: 7,418 > 7,344, 45,079 > 33,960). *)
let fcfs_counts ~jobs system e =
  let value name = Obs.counter_value (Obs.counter name) in
  let at_most what v bound =
    if v > bound then Alcotest.failf "%d jobs: %s = %d, above %d" jobs what v bound
  in
  let processors =
    List.filter
      (fun p -> System.subjobs_on system p <> [])
      (List.init (System.processor_count system) Fun.id)
  in
  let n_procs = List.length processors in
  let upper_procs =
    List.length
      (List.filter (fun p -> List.exists (upper_read e) (System.subjobs_on system p)) processors)
  in
  check_int
    (Printf.sprintf "%d jobs: utilization per processor" jobs)
    (n_procs + upper_procs)
    (value "minplus.utilization.calls");
  at_most "pl.inverse.handles" (value "pl.inverse.handles") (n_procs + upper_procs);
  at_most "pl.inverse.queries" (value "pl.inverse.queries")
    (List.fold_left
       (fun acc p ->
         List.fold_left
           (fun acc sid ->
             let en = Rta_core.Engine.entry e sid in
             acc + Rta_curve.Step.jump_count en.arr_lo
             + if Lazy.is_val en.dep_hi then Rta_curve.Step.jump_count en.arr_hi else 0)
           acc (System.subjobs_on system p))
       0 processors);
  let max_knots =
    Option.value ~default:0 (Obs.gauge_value (Obs.gauge "pl.inverse.knots.max"))
  in
  at_most "pl.inverse.probes" (value "pl.inverse.probes")
    (value "pl.inverse.queries" * (ceil_log2 max_knots + 1));
  let sum_bound p =
    let residents = System.subjobs_on system p in
    bracket_jumps e residents * ceil_log2 (List.length residents)
  in
  at_most "step.add.jumps" (value "step.add.jumps")
    (List.fold_left (fun acc p -> acc + sum_bound p) 0 processors)

(* Bursts of three simultaneous releases on one FCFS processor: one
   inverse query per arrival jump and bound read makes 1 per jump of a
   first-stage bracket for the lower bound, and 1 more for the upper one
   when it is forced (both sides are the release trace), where one per
   instance makes 3 and 6.  Single-stage jobs read no upper bound. *)
let test_fcfs_bursts () =
  let burst t = [| t; t; t |] in
  let job name offset exec =
    {
      System.name;
      arrival =
        Arrival.Trace (Array.concat (List.init 8 (fun k -> burst (offset + (40 * k)))));
      deadline = 400;
      steps = [| { System.proc = 0; exec; prio = 1 } |];
    }
  in
  let system =
    System.make_exn ~schedulers:[| Sched.Fcfs |] ~jobs:[| job "A" 0 3; job "B" 5 4 |]
  in
  with_obs (fun () ->
      let e = run_engine system in
      let residents = System.subjobs_on system 0 in
      let jumps = bracket_jumps e residents in
      check_int "release jumps" 32 jumps;
      let queries () = Obs.counter_value (Obs.counter "pl.inverse.queries") in
      check_int "one query per jump of the lower bound" (jumps / 2) (queries ());
      List.iter
        (fun sid -> ignore (Lazy.force (Rta_core.Engine.entry e sid).dep_hi))
        residents;
      check_int "one query per jump and bound once forced" jumps (queries ()))

(* An exact SPP processor with I instances costs O(I log I): each
   instance takes one map search, cuts at most one interval at its start
   and one at its end, and removes whole intervals, of which it can add
   at most one.  So per processor, with the unbounded last interval never
   removed, searches stay within 3 I + 1, removals within I + 1 and cuts
   within 2 I.  A linear walk from the map's first interval reads up to
   every interval per instance instead. *)
let spp_counts ~jobs system e =
  let value name = Obs.counter_value (Obs.counter name) in
  let at_most what v bound =
    if v > bound then Alcotest.failf "%d jobs: %s = %d, above %d" jobs what v bound
  in
  let procs = List.init (System.processor_count system) Fun.id in
  let instances =
    List.concat_map (System.subjobs_on system) procs
    |> List.fold_left
         (fun acc sid ->
           acc + Rta_curve.Step.final_value (Rta_core.Engine.entry e sid).arr_lo)
         0
  in
  let n_procs = List.length procs in
  at_most "spp.idle.queries" (value "spp.idle.queries") ((3 * instances) + n_procs);
  at_most "spp.idle.removed" (value "spp.idle.removed") (instances + n_procs);
  at_most "spp.idle.splits" (value "spp.idle.splits") (2 * instances)

(* A static-priority processor with N residents, whose brackets have J_lo
   and J_hi jumps in all, bounds each resident with two sweeps:
   - the lower one visits every jump of the resident's higher-priority
     upper workload and level-k lower workload once, so at most
     N (J_lo + J_hi) events;
   - the upper one reads the higher-priority service sum once per
     window, and every window starts at a jump of the resident's own
     upper workload, so at most J_hi windows;
   - inside the windows it reads spans of the sum and of its own
     utilization, which end at every knot of the sum's members, 1.4 to
     1.7 per such jump on these shops (no proof bounds it; 2 per jump is
     the gate).  An upper sweep that walks the whole higher-priority
     service sum reads every span of it, O(N J_hi) per processor, and
     overshoots at every size (6 jobs: 1,556 > 654; 24 jobs:
     64,941 > 8,490);
   - the sum is read through a merged reader over the members' curves,
     which moves a member only when a read passes one of its knots: a
     window start moves each of the resident's r higher-ranked members
     at most once, and a span read the members with a knot at its start,
     one for each span on these shops save where members' knots
     coincide (no proof bounds that either).  So a resident of rank r
     (r members) with j own upper jumps stays within (r + 2) j member
     moves.  A reader that re-seeks every member at every new read time
     moves r members per read, 2.2 to 2.3 r j on these shops, and
     overshoots at 12 and 24 jobs (5,647 > 5,057; 47,470 > 29,139). *)
let sp_counts ~jobs system e =
  let value name = Obs.counter_value (Obs.counter name) in
  let at_most what v bound =
    if v > bound then Alcotest.failf "%d jobs: %s = %d, above %d" jobs what v bound
  in
  let per_processor f =
    List.init (System.processor_count system) Fun.id
    |> List.fold_left (fun acc p -> acc + f (System.subjobs_on system p)) 0
  in
  let jumps side residents =
    List.fold_left
      (fun acc sid ->
        acc + Rta_curve.Step.jump_count (side (Rta_core.Engine.entry e sid)))
      0 residents
  in
  let j_lo = jumps (fun (en : Rta_core.Engine.entry) -> en.arr_lo)
  and j_hi = jumps (fun (en : Rta_core.Engine.entry) -> en.arr_hi) in
  at_most "sp.lo.events" (value "sp.lo.events")
    (per_processor (fun rs -> List.length rs * (j_lo rs + j_hi rs)));
  at_most "sp.hi.windows" (value "sp.hi.windows") (per_processor j_hi);
  at_most "sp.hi.reads" (value "sp.hi.reads") (per_processor (fun rs -> 2 * j_hi rs));
  let by_rank p =
    List.mapi (fun rank sid -> (rank + 2) * j_hi [ sid ]) (System.by_priority system p)
  in
  at_most "pl.merged.crossings" (value "pl.merged.crossings")
    (List.init (System.processor_count system) by_rank
    |> List.concat |> List.fold_left ( + ) 0);
  (* Each departure bound reads its service curve forward: one search per
     instance placed, plus the one that finds none, and each knot walked
     past once.  A search restarting from the curve's first knot walks
     past up to every knot per instance. *)
  let resident_sum f = per_processor (List.fold_left (fun acc sid -> acc + f (Rta_core.Engine.entry e sid)) 0) in
  at_most "pl.inverse.seeks" (value "pl.inverse.seeks")
    (resident_sum (fun en ->
         Rta_curve.Step.final_value en.arr_lo + Rta_curve.Step.final_value en.arr_hi + 2));
  at_most "pl.inverse.steps" (value "pl.inverse.steps")
    (resident_sum (fun en ->
         Rta_curve.Pl.knot_count (Lazy.force en.svc_lo)
         + Rta_curve.Pl.knot_count (Lazy.force en.svc_hi)))

(* The glue is linear in the residents: the higher-priority sums grow by
   one push per rank and the FCFS utilization functions are built once per
   processor, so no kernel count may exceed 2 per subjob as the shop
   grows: an input bracket scales up to two curves; an SPNP resident
   takes a push and the utilization of its own workload, and in
   [step.add] its level-k workload,
   which the next rank's push reuses as its [work_lo] sum, and the push's
   [work_hi] sum; its bound sweeps add nothing.  The composed bound chain
   the sweeps replaced took 3 [pl.add] per SPNP resident and overshoots
   at 6 jobs (42 > 36), and building the FCFS inspection-only service
   curves took 4 [step.scale] per subjob.  Quadratic glue overshoots at
   24 jobs: re-summing the higher-priority set per resident costs SPNP
   12.5 [step.add] per subjob there, and exact SPP, which runs no curve
   kernel, fails its pins above on the first [pl.sub] of an availability
   curve. *)
let per_subjob_counts sched () =
  List.iter
    (fun jobs ->
      with_obs (fun () ->
          let system = seeded_shop ~stages:3 ~jobs sched in
          let e = run_engine system in
          let subjobs = System.subjob_count system in
          List.iter
            (fun name ->
              let per = 2 in
              let v = Obs.counter_value (Obs.counter name) in
              if v > per * subjobs then
                Alcotest.failf "%d jobs: %s = %d, above %d per subjob (%d subjobs)"
                  jobs name v per subjobs)
            kernel_counters;
          (* A subjob has at most two dependency edges (its chain
             predecessor, and its next-higher co-resident or FCFS join
             point) and a join point one per resident, so 3 per subjob;
             one edge per FCFS co-resident pair overshoots at 12 jobs
             (146 > 108) and 24 (578 > 216). *)
          let edges = Obs.counter_value (Obs.counter "deps.edges") in
          if edges > 3 * subjobs then
            Alcotest.failf "%d jobs: deps.edges = %d, above 3 per subjob (%d subjobs)"
              jobs edges subjobs;
          if sched = Sched.Fcfs then fcfs_counts ~jobs system e;
          if sched = Sched.Spp then spp_counts ~jobs system e;
          if sched = Sched.Spnp then sp_counts ~jobs system e))
    [ 6; 12; 24 ]

let () =
  Alcotest.run "rta_obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "disabled token" `Quick test_span_disabled_token;
        ] );
      ( "histograms",
        [ Alcotest.test_case "quantiles" `Quick test_histogram_quantiles ] );
      ( "overhead",
        [ Alcotest.test_case "disabled no-alloc" `Quick test_disabled_no_alloc ] );
      ( "concurrency",
        [
          Alcotest.test_case "no lost updates under workers" `Quick
            test_concurrent_hooks;
        ] );
      ( "json",
        [
          Alcotest.test_case "of_string" `Quick test_json_of_string;
          Alcotest.test_case "string runs" `Quick test_json_string_runs;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "surrogates" `Quick test_json_surrogates;
        ] );
      ( "engine",
        [
          Alcotest.test_case "subjob spans" `Quick test_engine_spans;
          Alcotest.test_case "last stages leave upper bounds unbuilt" `Quick
            test_last_stage_upper_unbuilt;
        ] );
      ( "fixpoint",
        [
          Alcotest.test_case "cyclic iteration count" `Quick
            test_fixpoint_iterations;
        ] );
      ( "counts",
        List.map
          (fun (name, f) -> Alcotest.test_case name `Quick f)
          (count_cases
          @ [
              ("engine SPP per subjob", per_subjob_counts Sched.Spp);
              ("engine SPNP per subjob", per_subjob_counts Sched.Spnp);
              ("engine FCFS per subjob", per_subjob_counts Sched.Fcfs);
              ("engine FCFS bursts", test_fcfs_bursts);
              ("engine FCFS loop", loop_counts);
            ]) );
    ]
