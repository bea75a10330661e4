(* The fuzz harness's own guarantees:
   - the differential oracle passes on a clean engine over many seeds;
   - a planted unsound fault in the checked analysis is caught, shrunk to
     a tiny system,
     written as a replayable counterexample, and replays as a failure;
   - the whole pipeline is deterministic in the seed;
   - the kernel fuzzer ([rta fuzz --kernels]) runs clean against the
     frozen reference kernels. *)

module Engine = Rta_core.Engine
module System = Rta_model.System

let subjob_count (case : Rta_check.Gen.case) =
  System.subjob_count case.Rta_check.Gen.system

let test_generator_sane () =
  for seed = 0 to 100 do
    let case = Rta_check.Gen.generate (Rta_workload.Rng.make seed) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: horizons ordered" seed)
      true
      (case.Rta_check.Gen.release_horizon > 0
      && case.Rta_check.Gen.horizon >= case.Rta_check.Gen.release_horizon);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: non-empty" seed)
      true
      (subjob_count case > 0)
  done

let test_clean_sweep () =
  let outcome = Rta_check.Fuzz.run ~seed:42 ~count:60 () in
  List.iter
    (fun (cex : Rta_check.Fuzz.counterexample) ->
      List.iter
        (fun v ->
          Printf.printf "seed %d index %d: %s\n" cex.Rta_check.Fuzz.seed
            cex.Rta_check.Fuzz.index
            (Format.asprintf "%a" Rta_check.Oracle.pp_violation v))
        cex.Rta_check.Fuzz.violations)
    outcome.Rta_check.Fuzz.counterexamples;
  Alcotest.(check int) "no violations" 0
    (List.length outcome.Rta_check.Fuzz.counterexamples);
  Alcotest.(check int)
    "every case tested" 60 outcome.Rta_check.Fuzz.tested;
  Alcotest.(check bool)
    "most cases analyzable" true
    (outcome.Rta_check.Fuzz.passed > 40)

let test_determinism () =
  let run () = Rta_check.Fuzz.run ~seed:7 ~count:20 () in
  let a = run () and b = run () in
  Alcotest.(check int) "passed" a.Rta_check.Fuzz.passed b.Rta_check.Fuzz.passed

let fault = `Fcfs_drop_tau

let test_planted_fault_caught () =
  let out_dir = "fuzz-fault-out" in
  let outcome = Rta_check.Fuzz.run ~fault ~out_dir ~seed:0 ~count:100 () in
  let cexs = outcome.Rta_check.Fuzz.counterexamples in
  Alcotest.(check bool) "planted fault caught" true (List.length cexs > 0);
  let cex = List.hd cexs in
  (* The fault makes dep_lo of any FCFS subjob claim its departures one
     execution time early, so the shrinker can always reach a
     near-trivial system. *)
  Alcotest.(check bool)
    "shrunk to at most 3 subjobs" true
    (subjob_count cex.Rta_check.Fuzz.shrunk <= 3);
  Alcotest.(check bool)
    "violations recorded" true
    (cex.Rta_check.Fuzz.violations <> []);
  (* The counterexample file replays to the same failure with the fault
     planted... *)
  let file =
    match cex.Rta_check.Fuzz.file with
    | Some f -> f
    | None -> Alcotest.fail "counterexample not written"
  in
  (match Rta_check.Fuzz.replay ~fault file with
  | Ok (Rta_check.Oracle.Failed _) -> ()
  | Ok _ -> Alcotest.fail "replay did not reproduce the violation"
  | Error msg -> Alcotest.fail ("replay failed to parse: " ^ msg));
  (* ... and passes without it. *)
  let file = Sys.readdir out_dir in
  Alcotest.(check bool) "artifact on disk" true (Array.length file > 0);
  match Rta_check.Fuzz.replay (Filename.concat out_dir file.(0)) with
  | Ok Rta_check.Oracle.Passed -> ()
  | Ok (Rta_check.Oracle.Failed vs) ->
      Alcotest.fail
        ("healthy analysis still fails replay: "
        ^ Format.asprintf "%a" Rta_check.Oracle.pp_violation (List.hd vs))
  | Error msg -> Alcotest.fail ("replay failed to parse: " ^ msg)

let test_render_is_parseable () =
  let outcome = Rta_check.Fuzz.run ~fault ~seed:0 ~count:50 () in
  match outcome.Rta_check.Fuzz.counterexamples with
  | [] -> Alcotest.fail "expected a counterexample"
  | cex :: _ -> (
      let text = Rta_check.Fuzz.render cex in
      match Rta_model.Parser.parse text with
      | Ok system ->
          Alcotest.(check int)
            "round-trips the shrunk system"
            (System.subjob_count cex.Rta_check.Fuzz.shrunk.Rta_check.Gen.system)
            (System.subjob_count system)
      | Error msg -> Alcotest.fail ("rendered text does not parse: " ^ msg))

let test_kernels_clean () =
  let outcome = Rta_check.Kernels.run ~seed:42 ~count:500 () in
  List.iter
    (fun m -> Alcotest.failf "%s" (Rta_check.Kernels.render m))
    outcome.Rta_check.Kernels.mismatches;
  Alcotest.(check int) "tested" 500 outcome.Rta_check.Kernels.tested;
  Alcotest.(check int) "passed" 500 outcome.Rta_check.Kernels.passed

let () =
  Alcotest.run "check"
    [
      ( "fuzz",
        [
          Alcotest.test_case "generator sane" `Quick test_generator_sane;
          Alcotest.test_case "clean sweep" `Slow test_clean_sweep;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "planted fault caught" `Slow test_planted_fault_caught;
          Alcotest.test_case "render parseable" `Quick test_render_is_parseable;
        ] );
      ("kernels", [ Alcotest.test_case "clean sweep" `Quick test_kernels_clean ]);
    ]
