(* Workload generation: PRNG determinism and distribution sanity, job-shop
   structure, Eq. 26 normalization, deadline models. *)

open Rta_model
module Rng = Rta_workload.Rng
module Jobshop = Rta_workload.Jobshop

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.make 123 and b = Rng.make 123 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.)) "same stream" (Rng.float_unit a) (Rng.float_unit b)
  done

let test_rng_split_independent () =
  let a = Rng.make 123 in
  let b = Rng.split a in
  (* The split stream must differ from the parent's continuation. *)
  let xs = List.init 10 (fun _ -> Rng.float_unit a) in
  let ys = List.init 10 (fun _ -> Rng.float_unit b) in
  check_bool "streams differ" true (xs <> ys)

let test_rng_ranges () =
  let rng = Rng.make 7 in
  for _ = 1 to 1000 do
    let v = Rng.int_range rng 3 9 in
    check_bool "in range" true (v >= 3 && v <= 9);
    let f = Rng.float_unit rng in
    check_bool "unit open interval" true (f > 0. && f < 1.)
  done

let test_rng_moments () =
  let rng = Rng.make 99 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.float_unit rng
  done;
  let mean = !sum /. float_of_int n in
  check_bool "uniform mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02);
  let esum = ref 0. in
  for _ = 1 to n do
    esum := !esum +. Rng.exponential rng ~mean:3.0
  done;
  let emean = !esum /. float_of_int n in
  check_bool "exponential mean near 3" true (Float.abs (emean -. 3.0) < 0.15)

(* ------------------------------------------------------------------ *)
(* Jobshop                                                             *)
(* ------------------------------------------------------------------ *)

let config ?(eq26 = `Exact_utilization) ?(stages = 3) ?(jobs = 5)
    ?(utilization = 0.6) ?(arrival = Jobshop.Periodic_eq25)
    ?(deadline = Jobshop.Multiple_of_period 2.0) ?(sched = Sched.Spp) () =
  { (Jobshop.default ~stages ~jobs ~utilization ~arrival ~deadline ~sched) with Jobshop.eq26 }

let test_shop_structure () =
  let system = Jobshop.generate (config ()) ~rng:(Rng.make 5) in
  check_int "processors" 6 (System.processor_count system);
  check_int "jobs" 5 (System.job_count system);
  for j = 0 to 4 do
    let job = System.job system j in
    check_int "chain length" 3 (Array.length job.System.steps);
    Array.iteri
      (fun st (s : System.step) ->
        (* Stage st runs on one of that stage's processors. *)
        check_bool "stage-local processor" true
          (s.System.proc >= 2 * st && s.System.proc < 2 * (st + 1));
        check_bool "positive exec" true (s.System.exec >= 1))
      job.System.steps
  done

let test_exact_utilization () =
  (* `Exact_utilization: every processor with at least one subjob has load
     close to the target (quantization moves it by at most one tick per
     resident subjob). *)
  let system = Jobshop.generate (config ~utilization:0.7 ()) ~rng:(Rng.make 11) in
  for p = 0 to System.processor_count system - 1 do
    if System.subjobs_on system p <> [] then
      match System.utilization system ~proc:p with
      | Some u ->
          check_bool
            (Printf.sprintf "P%d load %.3f near 0.7" p u)
            true
            (u >= 0.69 && u <= 0.72)
      | None -> Alcotest.fail "periodic shop must have utilization"
  done

let test_as_printed_utilization_lower () =
  (* The literal Eq. 26 normalization yields systematically lower load. *)
  let sum_util eq26 =
    let acc = ref 0. in
    for seed = 0 to 19 do
      let system = Jobshop.generate (config ~eq26 ()) ~rng:(Rng.make seed) in
      match System.max_utilization system with
      | Some u -> acc := !acc +. u
      | None -> ()
    done;
    !acc
  in
  check_bool "as-printed below exact" true
    (sum_util `As_printed < sum_util `Exact_utilization)

let test_deadline_models () =
  let sys_mult =
    Jobshop.generate
      (config ~deadline:(Jobshop.Multiple_of_period 2.0) ())
      ~rng:(Rng.make 3)
  in
  for j = 0 to System.job_count sys_mult - 1 do
    let job = System.job sys_mult j in
    match Arrival.rate_per_tick_denominator job.System.arrival with
    | Some period ->
        (* D = 2 * rho up to quantization. *)
        check_bool "deadline ~ 2 periods" true
          (abs (job.System.deadline - (2 * period)) <= 2)
    | None -> Alcotest.fail "periodic expected"
  done;
  let sys_exp =
    Jobshop.generate
      (config ~deadline:(Jobshop.Shifted_exponential { offset = 4.0; scale = 2.0 }) ())
      ~rng:(Rng.make 3)
  in
  for j = 0 to System.job_count sys_exp - 1 do
    let d = (System.job sys_exp j).System.deadline in
    check_bool "deadline above offset" true (d >= Time.of_units 4.0)
  done

let test_bursty_arrivals_kind () =
  let system =
    Jobshop.generate (config ~arrival:Jobshop.Bursty_eq27 ()) ~rng:(Rng.make 9)
  in
  for j = 0 to System.job_count system - 1 do
    match (System.job system j).System.arrival with
    | Arrival.Bursty _ -> ()
    | _ -> Alcotest.fail "expected bursty pattern"
  done

let test_determinism () =
  let a = Jobshop.generate (config ()) ~rng:(Rng.make 77) in
  let b = Jobshop.generate (config ()) ~rng:(Rng.make 77) in
  for j = 0 to System.job_count a - 1 do
    check_bool "same job" true (System.job a j = System.job b j)
  done

let test_horizons () =
  let system = Jobshop.generate (config ()) ~rng:(Rng.make 13) in
  let release, horizon = System.suggested_horizons system in
  check_bool "release positive" true (release > 0);
  check_int "horizon doubles" (2 * release) horizon;
  (* Ten periods of the longest job. *)
  let max_period = ref 0 in
  for j = 0 to System.job_count system - 1 do
    match Arrival.rate_per_tick_denominator (System.job system j).System.arrival with
    | Some p -> max_period := max !max_period p
    | None -> ()
  done;
  check_int "ten longest periods" (10 * !max_period) release

let prop_valid_systems =
  let gen =
    let open QCheck2.Gen in
    let* seed = int_range 0 10_000 in
    let* stages = int_range 1 4 in
    let* jobs = int_range 1 8 in
    let* utilization = float_range 0.05 0.95 in
    let* sched = oneofl Sched.all in
    return (seed, stages, jobs, utilization, sched)
  in
  Rta_testsupport.Gen.qtest ~count:200 "generator always yields valid systems"
    gen
    (fun (s, st, j, u, sc) ->
      Printf.sprintf "seed=%d stages=%d jobs=%d util=%.2f sched=%s" s st j u
        (Sched.to_string sc))
    (fun (seed, stages, jobs, utilization, sched) ->
      let c =
        Jobshop.default ~stages ~jobs ~utilization ~arrival:Jobshop.Periodic_eq25
          ~deadline:(Jobshop.Multiple_of_period 1.5) ~sched
      in
      (* make_exn inside generate validates; reaching here is the test. *)
      let system = Jobshop.generate c ~rng:(Rng.make seed) in
      System.job_count system = jobs)

let () =
  Alcotest.run "rta_workload"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "moments" `Quick test_rng_moments;
        ] );
      ( "jobshop",
        [
          Alcotest.test_case "structure" `Quick test_shop_structure;
          Alcotest.test_case "exact utilization" `Quick test_exact_utilization;
          Alcotest.test_case "as-printed lower" `Quick test_as_printed_utilization_lower;
          Alcotest.test_case "deadline models" `Quick test_deadline_models;
          Alcotest.test_case "bursty kind" `Quick test_bursty_arrivals_kind;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "horizons" `Quick test_horizons;
          prop_valid_systems;
        ] );
    ]
