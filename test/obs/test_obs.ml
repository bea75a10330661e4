(* The observability layer's own contract:

   - spans nest into a tree with correct parent/depth links;
   - histogram quantiles are nearest-rank on the recorded observations;
   - a disabled registry costs one branch per hook and does NOT allocate
     (checked with Gc.minor_words around a hot loop of every hook);
   - the engine and fixpoint instrumentation record what the report
     promises: per-subjob spans carrying the theorem path and curve sizes,
     and iteration counts matching a hand-checked cyclic example. *)

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
      (match Rta_core.Engine.run ~horizon:100 system with
      | Ok _ -> ()
      | Error (`Cyclic _) -> Alcotest.fail "unexpected cyclic");
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
      check_bool "service curve size recorded" true (attr "svc_lo.knots" > 0))

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
  (match Rta_core.Engine.run ~horizon:400 system with
  | Error (`Cyclic _) -> ()
  | Ok _ -> Alcotest.fail "example should be cyclic");
  with_obs (fun () ->
      let r = Rta_core.Fixpoint.analyze ~release_horizon:200 ~horizon:400 system in
      check_int "hand-checked iteration count" 3 r.Rta_core.Fixpoint.iterations;
      (match r.Rta_core.Fixpoint.per_job with
      | [| Rta_core.Fixpoint.Bounded a; Rta_core.Fixpoint.Bounded b |] ->
          check_int "A's end-to-end bound" 4 a;
          check_int "B's end-to-end bound" 6 b
      | _ -> Alcotest.fail "expected two bounded jobs");
      check_bool "gauge matches the result" true
        (Obs.gauge_value (Obs.gauge "fixpoint.last.iterations")
        = Some r.Rta_core.Fixpoint.iterations);
      check_bool "convergence verdict recorded" true
        (Obs.gauge_value (Obs.gauge "fixpoint.last.converged") = Some 1);
      let s = Obs.spans () in
      let iter_spans =
        Array.to_list s
        |> List.filter (fun (i : Obs.span_info) ->
               String.length i.Obs.si_name >= 18
               && String.sub i.Obs.si_name 0 18 = "fixpoint.iteration")
      in
      check_int "one span per iteration" r.Rta_core.Fixpoint.iterations
        (List.length iter_spans);
      (* The final sweep observes stability: residual 0. *)
      match List.rev iter_spans with
      | last :: _ ->
          check_bool "last iteration has residual 0" true
            (List.assoc_opt "residual" last.Obs.si_attrs = Some (Obs.Int 0))
      | [] -> Alcotest.fail "no iteration spans")

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
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "surrogates" `Quick test_json_surrogates;
        ] );
      ( "engine",
        [ Alcotest.test_case "subjob spans" `Quick test_engine_spans ] );
      ( "fixpoint",
        [
          Alcotest.test_case "cyclic iteration count" `Quick
            test_fixpoint_iterations;
        ] );
    ]
