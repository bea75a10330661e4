(* Simulator semantics: the event heap, scheduling policies, Direct
   Synchronization chaining, and conservation invariants on random
   systems. *)

open Rta_model
module Sg = Rta_testsupport.Sysgen
module Step = Rta_curve.Step
module Pl = Rta_curve.Pl

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let test_heap_basic () =
  let h = Rta_sim.Heap.create ~cmp:compare in
  check_bool "empty" true (Rta_sim.Heap.is_empty h);
  List.iter (Rta_sim.Heap.push h) [ 5; 1; 4; 1; 3 ];
  check_int "size" 5 (Rta_sim.Heap.size h);
  Alcotest.(check (option int)) "peek" (Some 1) (Rta_sim.Heap.peek h);
  let drained = List.init 5 (fun _ -> Option.get (Rta_sim.Heap.pop h)) in
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 3; 4; 5 ] drained;
  Alcotest.(check (option int)) "empty pop" None (Rta_sim.Heap.pop h)

let prop_heap_sorts =
  Rta_testsupport.Gen.qtest ~count:300 "heap drains in sorted order"
    QCheck2.Gen.(list_size (int_range 0 50) (int_range (-100) 100))
    (fun l -> String.concat ";" (List.map string_of_int l))
    (fun l ->
      let h = Rta_sim.Heap.create ~cmp:compare in
      List.iter (Rta_sim.Heap.push h) l;
      let rec drain acc =
        match Rta_sim.Heap.pop h with
        | None -> List.rev acc
        | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare l)

(* ------------------------------------------------------------------ *)
(* Scheduling semantics                                                *)
(* ------------------------------------------------------------------ *)

let one_proc sched jobs =
  System.make_exn ~schedulers:[| sched |] ~jobs:(Array.of_list jobs)

let job name arrival steps =
  { System.name; arrival; deadline = 100000; steps = Array.of_list steps }

let completion sim j m =
  Option.get sim.Rta_sim.Sim.per_job.(j).(m - 1).Rta_sim.Sim.completed

let test_spnp_no_preemption () =
  (* L (exec 10) starts at 0; H arrives at 1 and must wait to 10. *)
  let s =
    one_proc Sched.Spnp
      [
        job "H" (Arrival.Trace [| 1 |]) [ { System.proc = 0; exec = 2; prio = 1 } ];
        job "L" (Arrival.Trace [| 0 |]) [ { System.proc = 0; exec = 10; prio = 2 } ];
      ]
  in
  let sim = Rta_sim.Sim.run s ~horizon:50 in
  check_int "L runs to completion" 10 (completion sim 1 1);
  check_int "H waits" 12 (completion sim 0 1)

let test_spp_priority_order_on_ties () =
  (* Simultaneous release: strictly by priority. *)
  let s =
    one_proc Sched.Spp
      [
        job "A" (Arrival.Trace [| 0 |]) [ { System.proc = 0; exec = 3; prio = 2 } ];
        job "B" (Arrival.Trace [| 0 |]) [ { System.proc = 0; exec = 3; prio = 1 } ];
      ]
  in
  let sim = Rta_sim.Sim.run s ~horizon:50 in
  check_int "B first" 3 (completion sim 1 1);
  check_int "A second" 6 (completion sim 0 1)

let test_fcfs_arrival_order () =
  let s =
    one_proc Sched.Fcfs
      [
        job "late" (Arrival.Trace [| 2 |]) [ { System.proc = 0; exec = 1; prio = 1 } ];
        job "early" (Arrival.Trace [| 1 |]) [ { System.proc = 0; exec = 5; prio = 1 } ];
      ]
  in
  let sim = Rta_sim.Sim.run s ~horizon:50 in
  check_int "early first" 6 (completion sim 1 1);
  check_int "late queued" 7 (completion sim 0 1)

let test_fifo_within_subjob () =
  (* Two instances of the same subjob: strictly FIFO, even under SPP. *)
  let s =
    one_proc Sched.Spp
      [ job "A" (Arrival.Trace [| 0; 1 |]) [ { System.proc = 0; exec = 4; prio = 1 } ] ]
  in
  let sim = Rta_sim.Sim.run s ~horizon:50 in
  check_int "first instance" 4 (completion sim 0 1);
  check_int "second instance" 8 (completion sim 0 2)

let test_direct_synchronization () =
  (* Completion on P0 releases P1's subjob at the same instant. *)
  let s =
    System.make_exn
      ~schedulers:[| Sched.Spp; Sched.Spp |]
      ~jobs:
        [|
          job "A" (Arrival.Trace [| 5 |])
            [
              { System.proc = 0; exec = 3; prio = 1 };
              { System.proc = 1; exec = 2; prio = 1 };
            ];
        |]
  in
  let sim = Rta_sim.Sim.run s ~horizon:50 in
  check_int "stage 1 departs at 8" 8
    (Option.get (Step.inverse sim.Rta_sim.Sim.departures.(0).(0) 1));
  check_int "end to end at 10" 10 (completion sim 0 1)

let test_horizon_truncation () =
  (* Work released near the horizon does not complete; busy time is clipped
     at the horizon. *)
  let s =
    one_proc Sched.Spp
      [ job "A" (Arrival.Trace [| 8 |]) [ { System.proc = 0; exec = 10; prio = 1 } ] ]
  in
  let sim = Rta_sim.Sim.run s ~horizon:12 in
  check_bool "incomplete" true (sim.Rta_sim.Sim.per_job.(0).(0).Rta_sim.Sim.completed = None);
  check_int "busy clipped" 4 (Pl.eval sim.Rta_sim.Sim.busy.(0) 12)

(* ------------------------------------------------------------------ *)
(* Conservation invariants on random systems                           *)
(* ------------------------------------------------------------------ *)

let horizon = 300
let release_horizon = 150

let prop_conservation =
  let gen = Sg.system_gen ~release_horizon () in
  Rta_testsupport.Gen.qtest ~count:150
    "busy time = sum of services; departures consistent with service" gen
    Sg.print_system (fun system ->
      let sim = Rta_sim.Sim.run ~release_horizon system ~horizon in
      let ok = ref true in
      (* Per processor: busy = sum of resident subjob services. *)
      for p = 0 to System.processor_count system - 1 do
        let resident_service =
          System.subjobs_on system p
          |> List.map (fun (id : System.subjob_id) ->
                 sim.Rta_sim.Sim.service.(id.System.job).(id.System.step))
          |> Pl.sum
        in
        for t = 0 to horizon / 10 do
          let t = t * 10 in
          if Pl.eval sim.Rta_sim.Sim.busy.(p) t <> Pl.eval resident_service t then
            ok := false
        done
      done;
      (* Per subjob: departures * tau <= service <= workload; service slope
         bounded by 1 via busy <= t. *)
      for j = 0 to System.job_count system - 1 do
        let steps = (System.job system j).System.steps in
        for st = 0 to Array.length steps - 1 do
          let tau = steps.(st).System.exec in
          let dep = sim.Rta_sim.Sim.departures.(j).(st) in
          let svc = sim.Rta_sim.Sim.service.(j).(st) in
          for t = 0 to horizon / 10 do
            let t = t * 10 in
            if Step.eval dep t * tau > Pl.eval svc t then ok := false
          done
        done
      done;
      (* Busy time can never exceed elapsed time. *)
      for p = 0 to System.processor_count system - 1 do
        if Pl.eval sim.Rta_sim.Sim.busy.(p) horizon > horizon then ok := false
      done;
      !ok)

let prop_departures_monotone_chain =
  let gen = Sg.system_gen ~release_horizon () in
  Rta_testsupport.Gen.qtest ~count:150
    "chain conservation: stage j+1 departures never exceed stage j's" gen
    Sg.print_system (fun system ->
      let sim = Rta_sim.Sim.run ~release_horizon system ~horizon in
      let ok = ref true in
      for j = 0 to System.job_count system - 1 do
        let steps = (System.job system j).System.steps in
        for st = 0 to Array.length steps - 2 do
          if not (Step.dominates sim.Rta_sim.Sim.departures.(j).(st)
                    sim.Rta_sim.Sim.departures.(j).(st + 1))
          then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Physical loop with monotone priorities stays acyclic                *)
(* ------------------------------------------------------------------ *)

let test_physical_loop_acyclic () =
  (* A chain revisiting P0 (P0 -> P1 -> P0) is analyzable by the engine as
     long as the revisit has lower priority than the first visit — the
     dependency DAG stays acyclic. *)
  let s =
    System.make_exn
      ~schedulers:[| Sched.Spp; Sched.Spp |]
      ~jobs:
        [|
          job "loop"
            (Arrival.Periodic { period = 20; offset = 0 })
            [
              { System.proc = 0; exec = 2; prio = 1 };
              { System.proc = 1; exec = 3; prio = 1 };
              { System.proc = 0; exec = 2; prio = 2 };
            ];
        |]
  in
  (match Rta_core.Deps.compute s with
  | Rta_core.Deps.Acyclic _ -> ()
  | Rta_core.Deps.Cyclic _ -> Alcotest.fail "should be acyclic");
  match Rta_core.Engine.run ~release_horizon:100 ~horizon:200 s with
  | Error (`Cyclic _) -> Alcotest.fail "engine refused"
  | Ok e -> (
      Alcotest.(check bool) "exact" true (Rta_core.Engine.is_exact e);
      let sim = Rta_sim.Sim.run ~release_horizon:100 s ~horizon:200 in
      match
        ( Rta_core.Response.end_to_end e ~estimator:`Exact ~job:0,
          Rta_sim.Sim.worst_response sim 0 )
      with
      | Rta_core.Response.Bounded r, Some w -> check_int "exact on revisit" w r
      | _ -> Alcotest.fail "expected bounded")

(* ------------------------------------------------------------------ *)
(* Gantt rendering                                                     *)
(* ------------------------------------------------------------------ *)

let test_gantt () =
  (* H: exec 2 at 1; L: exec 5 at 0 (SPP): timeline L H H L L L L idle. *)
  let s =
    one_proc Sched.Spp
      [
        job "H" (Arrival.Trace [| 1 |]) [ { System.proc = 0; exec = 2; prio = 1 } ];
        job "L" (Arrival.Trace [| 0 |]) [ { System.proc = 0; exec = 5; prio = 2 } ];
      ]
  in
  let sim = Rta_sim.Sim.run s ~horizon:10 in
  let chart = Rta_sim.Gantt.render ~upto:10 ~columns:10 s sim in
  let first_line = List.hd (String.split_on_char '\n' chart) in
  Alcotest.(check string) "timeline" "P0  |BAABBBB...|" first_line;
  Alcotest.(check bool) "legend mentions jobs" true
    (let contains needle haystack =
       let n = String.length needle and h = String.length haystack in
       let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
       go 0
     in
     contains "A=H" chart && contains "B=L" chart)

let test_gantt_compression () =
  let s =
    one_proc Sched.Spp
      [ job "A" (Arrival.Trace [| 0 |]) [ { System.proc = 0; exec = 100; prio = 1 } ] ]
  in
  let sim = Rta_sim.Sim.run s ~horizon:200 in
  let chart = Rta_sim.Gantt.render ~upto:200 ~columns:20 s sim in
  let first_line = List.hd (String.split_on_char '\n' chart) in
  Alcotest.(check string) "10:1 compression" "P0  |AAAAAAAAAA..........|" first_line

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_percentiles () =
  let values = [ 5; 1; 3; 2; 4 ] in
  check_int "p50 of 1..5" 3 (Rta_sim.Stats.percentile values 0.5);
  check_int "p0 is min" 1 (Rta_sim.Stats.percentile values 0.0);
  check_int "p100 is max" 5 (Rta_sim.Stats.percentile values 1.0);
  check_int "p95 of 1..5" 5 (Rta_sim.Stats.percentile values 0.95);
  check_int "singleton" 7 (Rta_sim.Stats.percentile [ 7 ] 0.5);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty list")
    (fun () -> ignore (Rta_sim.Stats.percentile [] 0.5))

let test_stats_summary () =
  (* Two instances of a task preempted differently: responses 4 and 6. *)
  let s =
    one_proc Sched.Spp
      [
        job "H" (Arrival.Trace [| 10 |]) [ { System.proc = 0; exec = 2; prio = 1 } ];
        job "L" (Arrival.Trace [| 0; 8 |]) [ { System.proc = 0; exec = 4; prio = 2 } ];
      ]
  in
  let sim = Rta_sim.Sim.run s ~horizon:40 in
  match Rta_sim.Stats.response_summary sim ~job:1 with
  | None -> Alcotest.fail "expected summary"
  | Some summary ->
      check_int "count" 2 summary.Rta_sim.Stats.count;
      check_int "released" 2 summary.Rta_sim.Stats.released;
      check_int "worst" 6 summary.Rta_sim.Stats.worst;
      Alcotest.(check (float 1e-9)) "mean" 5.0 summary.Rta_sim.Stats.mean

let () =
  Alcotest.run "rta_sim"
    [
      ( "heap",
        [ Alcotest.test_case "basics" `Quick test_heap_basic; prop_heap_sorts ] );
      ( "semantics",
        [
          Alcotest.test_case "SPNP no preemption" `Quick test_spnp_no_preemption;
          Alcotest.test_case "SPP ties by priority" `Quick test_spp_priority_order_on_ties;
          Alcotest.test_case "FCFS arrival order" `Quick test_fcfs_arrival_order;
          Alcotest.test_case "FIFO within subjob" `Quick test_fifo_within_subjob;
          Alcotest.test_case "direct synchronization" `Quick test_direct_synchronization;
          Alcotest.test_case "horizon truncation" `Quick test_horizon_truncation;
        ] );
      ( "invariants",
        [ prop_conservation; prop_departures_monotone_chain ] );
      ( "loops",
        [ Alcotest.test_case "physical loop, descending prio" `Quick
            test_physical_loop_acyclic ] );
      ( "gantt",
        [
          Alcotest.test_case "timeline" `Quick test_gantt;
          Alcotest.test_case "compression" `Quick test_gantt_compression;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
          Alcotest.test_case "summary" `Quick test_stats_summary;
        ] );
    ]
