(* Theorem-by-theorem validation on hand-computed scenarios.  Each case
   pins the implementation of one numbered result of the paper to values
   derived by hand (or against the simulator where the theorem claims
   exactness). *)

open Rta_model
module Step = Rta_curve.Step
module Pl = Rta_curve.Pl
module Minplus = Rta_curve.Minplus

let check_int = Alcotest.(check int)
let horizon = 200
let release_horizon = 100

let engine system =
  match Rta_core.Engine.run ~release_horizon ~horizon system with
  | Ok e -> e
  | Error (`Cyclic _) -> Alcotest.fail "unexpected cycle"

let entry e j st = Rta_core.Engine.entry e { System.job = j; step = st }

let system ~scheds jobs =
  System.make_exn ~schedulers:(Array.of_list scheds) ~jobs:(Array.of_list jobs)

let job ?(deadline = 10000) name arrival steps =
  { System.name; arrival; deadline; steps = Array.of_list steps }

(* -------------------------------------------------------------------- *)
(* Theorem 2: f_dep = floor (S / tau)                                    *)
(* -------------------------------------------------------------------- *)

let test_theorem2 () =
  (* Hand-built service: ramps 0->9 over [0,9], plateaus; tau = 3:
     departures at 3, 6, 9. *)
  let s = Pl.truncate_at Pl.identity 9 in
  let dep = Pl.to_step_floor_div s 3 in
  List.iter
    (fun (t, expect) -> check_int (Printf.sprintf "dep(%d)" t) expect (Step.eval dep t))
    [ (0, 0); (2, 0); (3, 1); (5, 1); (6, 2); (9, 3); (100, 3) ]

(* -------------------------------------------------------------------- *)
(* Theorem 3: exact SPP service function                                 *)
(* -------------------------------------------------------------------- *)

let test_theorem3_two_jobs () =
  (* H: tau 3 at t = 0 and 10; L: tau 4 at t = 0.  On one processor:
     H runs [0,3] and [10,13]; L runs [3,7].
     S_L hand-derived: 0 until 3, ramps to 4 at 7, flat. *)
  let sys =
    system ~scheds:[ Sched.Spp ]
      [
        job "H" (Arrival.Trace [| 0; 10 |]) [ { System.proc = 0; exec = 3; prio = 1 } ];
        job "L" (Arrival.Trace [| 0 |]) [ { System.proc = 0; exec = 4; prio = 2 } ];
      ]
  in
  let e = engine sys in
  let svc_l = Lazy.force (entry e 1 0).Rta_core.Engine.svc_lo in
  List.iter
    (fun (t, expect) ->
      check_int (Printf.sprintf "S_L(%d)" t) expect (Pl.eval svc_l t))
    [ (0, 0); (3, 0); (5, 2); (7, 4); (9, 4); (50, 4) ];
  (* And H's service is the availability identity minus idle: ramps 0-3,
     flat, ramps 10-13. *)
  let svc_h = Lazy.force (entry e 0 0).Rta_core.Engine.svc_lo in
  List.iter
    (fun (t, expect) ->
      check_int (Printf.sprintf "S_H(%d)" t) expect (Pl.eval svc_h t))
    [ (0, 0); (2, 2); (3, 3); (10, 3); (12, 5); (13, 6); (50, 6) ]

(* -------------------------------------------------------------------- *)
(* Lemma 2 / Direct Synchronization: arrivals downstream = departures    *)
(* -------------------------------------------------------------------- *)

let test_chain_arrival_is_departure () =
  let sys =
    system ~scheds:[ Sched.Spp; Sched.Spnp ]
      [
        job "A" (Arrival.Periodic { period = 10; offset = 0 })
          [
            { System.proc = 0; exec = 2; prio = 1 };
            { System.proc = 1; exec = 3; prio = 1 };
          ];
      ]
  in
  let e = engine sys in
  Alcotest.(check bool) "arr_lo chain" true
    (Step.equal (entry e 0 1).Rta_core.Engine.arr_lo
       (entry e 0 0).Rta_core.Engine.dep_lo);
  Alcotest.(check bool) "arr_hi chain" true
    (Step.equal (entry e 0 1).Rta_core.Engine.arr_hi
       (Lazy.force (entry e 0 0).Rta_core.Engine.dep_hi))

(* -------------------------------------------------------------------- *)
(* Eq. 15 + Theorem 5 role: SPNP blocking shows up in the bound          *)
(* -------------------------------------------------------------------- *)

let test_spnp_blocking_in_bound () =
  (* hp job (tau 2) can be blocked by the lp job (tau 9): its guaranteed
     departure must not precede b + tau = 11 even though it arrives at 0
     and the lp job arrives later (the bound covers the worst phasing). *)
  let sys =
    system ~scheds:[ Sched.Spnp ]
      [
        job "hp" (Arrival.Trace [| 0 |]) [ { System.proc = 0; exec = 2; prio = 1 } ];
        job "lp" (Arrival.Trace [| 50 |]) [ { System.proc = 0; exec = 9; prio = 2 } ];
      ]
  in
  let e = engine sys in
  match Step.inverse (entry e 0 0).Rta_core.Engine.dep_lo 1 with
  | Some t ->
      Alcotest.(check bool)
        (Printf.sprintf "guaranteed departure %d >= 11" t)
        true (t >= 11)
  | None -> Alcotest.fail "hp instance unbounded"

(* -------------------------------------------------------------------- *)
(* Theorem 7: FCFS utilization function                                  *)
(* -------------------------------------------------------------------- *)

let test_theorem7_utilization () =
  (* Workload 3 at t=2 and 2 at t=6 on an FCFS processor:
     U = 0 until 2, ramps to 3 at 5, flat to 6, ramps to 5 at 8. *)
  let g =
    Step.add
      (Step.scale (Step.of_arrival_times [| 2 |]) 3)
      (Step.scale (Step.of_arrival_times [| 6 |]) 2)
  in
  let u = Minplus.utilization ~mode:`Left g in
  List.iter
    (fun (t, expect) -> check_int (Printf.sprintf "U(%d)" t) expect (Pl.eval u t))
    [ (0, 0); (2, 0); (4, 2); (5, 3); (6, 3); (8, 5); (20, 5) ];
  (* Against the simulator's busy curve on the equivalent system. *)
  let sys =
    system ~scheds:[ Sched.Fcfs ]
      [
        job "a" (Arrival.Trace [| 2 |]) [ { System.proc = 0; exec = 3; prio = 1 } ];
        job "b" (Arrival.Trace [| 6 |]) [ { System.proc = 0; exec = 2; prio = 1 } ];
      ]
  in
  let sim = Rta_sim.Sim.run ~release_horizon sys ~horizon in
  for t = 0 to 20 do
    check_int
      (Printf.sprintf "U = sim busy at %d" t)
      (Pl.eval sim.Rta_sim.Sim.busy.(0) t)
      (Pl.eval u t)
  done

(* -------------------------------------------------------------------- *)
(* Theorems 8-9: FCFS departure bounds, hand case                        *)
(* -------------------------------------------------------------------- *)

let test_theorems8_9_fcfs () =
  (* a (tau 4) at 0, b (tau 3) at 0 — simultaneous, tie order unknown to
     the analysis.  dep_lo must place each completion after BOTH could
     have run (7); dep_hi can let each finish first (4 resp. 3). *)
  let sys =
    system ~scheds:[ Sched.Fcfs ]
      [
        job "a" (Arrival.Trace [| 0 |]) [ { System.proc = 0; exec = 4; prio = 1 } ];
        job "b" (Arrival.Trace [| 0 |]) [ { System.proc = 0; exec = 3; prio = 1 } ];
      ]
  in
  let e = engine sys in
  let dep_time which j = Step.inverse (entry e j 0).Rta_core.Engine.dep_lo 1 |> which in
  check_int "a guaranteed by 7" 7 (Option.get (dep_time Fun.id 0));
  check_int "b guaranteed by 7" 7 (Option.get (dep_time Fun.id 1));
  check_int "a possibly at 4"
    4
    (Option.get (Step.inverse (Lazy.force (entry e 0 0).Rta_core.Engine.dep_hi) 1));
  check_int "b possibly at 3" 3
    (Option.get (Step.inverse (Lazy.force (entry e 1 0).Rta_core.Engine.dep_hi) 1))

(* -------------------------------------------------------------------- *)
(* Theorem 1: per-instance responses                                     *)
(* -------------------------------------------------------------------- *)

let test_theorem1_per_instance () =
  (* L (tau 4, releases 0 and 8) under H (tau 2 at 10):
     instance 1: [0,4] -> 4; instance 2: arrives 8, runs [8,10] and
     [12,14] -> 6. *)
  let sys =
    system ~scheds:[ Sched.Spp ]
      [
        job "H" (Arrival.Trace [| 10 |]) [ { System.proc = 0; exec = 2; prio = 1 } ];
        job "L" (Arrival.Trace [| 0; 8 |]) [ { System.proc = 0; exec = 4; prio = 2 } ];
      ]
  in
  let e = engine sys in
  match Rta_core.Response.per_instance e ~job:1 with
  | [ (1, Rta_core.Response.Bounded r1); (2, Rta_core.Response.Bounded r2) ] ->
      check_int "instance 1" 4 r1;
      check_int "instance 2" 6 r2
  | _ -> Alcotest.fail "expected two bounded instances"

(* -------------------------------------------------------------------- *)
(* Theorem 4: the per-stage sum really is the sum                        *)
(* -------------------------------------------------------------------- *)

let test_theorem4_sum () =
  let sys =
    system ~scheds:[ Sched.Spnp; Sched.Spnp ]
      [
        job "A" (Arrival.Periodic { period = 20; offset = 0 })
          [
            { System.proc = 0; exec = 2; prio = 1 };
            { System.proc = 1; exec = 3; prio = 1 };
          ];
      ]
  in
  let e = engine sys in
  let stage_sum =
    Rta_core.Response.stage_bounds e ~job:0
    |> List.fold_left
         (fun acc v ->
           match (acc, v) with
           | Some a, Rta_core.Response.Bounded b -> Some (a + b)
           | _, Rta_core.Response.Unbounded | None, _ -> None)
         (Some 0)
  in
  match (Rta_core.Response.end_to_end e ~estimator:`Sum ~job:0, stage_sum) with
  | Rta_core.Response.Bounded total, Some s -> check_int "sum equals stages" s total
  | _ -> Alcotest.fail "expected bounded"

(* -------------------------------------------------------------------- *)
(* Curve CSV dump                                                        *)
(* -------------------------------------------------------------------- *)

let test_entry_csv () =
  let sys =
    system ~scheds:[ Sched.Spp ]
      [ job "A" (Arrival.Trace [| 0; 10 |]) [ { System.proc = 0; exec = 3; prio = 1 } ] ]
  in
  let csv = Rta_core.Engine.entry_csv (engine sys) { System.job = 0; step = 0 } in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  Alcotest.(check string) "header" "t,arr_lo,arr_hi,dep_lo,dep_hi" (List.hd lines);
  (* Change points: 0 (arrival), 3 (departure), 10 (arrival), 13. *)
  Alcotest.(check (list string)) "records"
    [ "0,1,1,0,0"; "3,1,1,1,1"; "10,2,2,1,1"; "13,2,2,2,2" ]
    (List.tl lines)

(* -------------------------------------------------------------------- *)
(* Completion jitter                                                     *)
(* -------------------------------------------------------------------- *)

let test_completion_jitter () =
  (* Exact regime: zero jitter (dep_lo = dep_hi). *)
  let exact_sys =
    system ~scheds:[ Sched.Spp ]
      [ job "A" (Arrival.Periodic { period = 10; offset = 0 })
          [ { System.proc = 0; exec = 3; prio = 1 } ] ]
  in
  (match Rta_core.Response.completion_jitter (engine exact_sys) ~job:0 with
  | Rta_core.Response.Bounded j -> check_int "exact jitter" 0 j
  | Rta_core.Response.Unbounded -> Alcotest.fail "unbounded");
  (* FCFS ties: a's completion is between 4 and 7 -> jitter 3. *)
  let fcfs_sys =
    system ~scheds:[ Sched.Fcfs ]
      [
        job "a" (Arrival.Trace [| 0 |]) [ { System.proc = 0; exec = 4; prio = 1 } ];
        job "b" (Arrival.Trace [| 0 |]) [ { System.proc = 0; exec = 3; prio = 1 } ];
      ]
  in
  match Rta_core.Response.completion_jitter (engine fcfs_sys) ~job:0 with
  | Rta_core.Response.Bounded j -> check_int "FCFS tie jitter" 3 j
  | Rta_core.Response.Unbounded -> Alcotest.fail "unbounded"

(* -------------------------------------------------------------------- *)
(* The running higher-priority aggregate                                 *)
(* -------------------------------------------------------------------- *)

module G = Rta_testsupport.Gen
module Local = Rta_core.Local

(* A higher-priority member: its execution time, arrival bracket (the
   upper side shared with the lower one when absent, as for exact
   brackets) and lower service curve. *)
let member_gen =
  let open QCheck2.Gen in
  let* tau = int_range 1 3 in
  let* arr_lo = G.step_gen in
  let* arr_hi = option G.step_gen in
  let* svc = G.pl_gen in
  return (tau, arr_lo, arr_hi, svc)

let print_members members =
  List.map
    (fun (tau, arr_lo, arr_hi, svc) ->
      Printf.sprintf "tau=%d lo=%s hi=%s svc=%s" tau (G.print_step arr_lo)
        (Option.fold ~none:"=lo" ~some:G.print_step arr_hi)
        (G.print_pl svc))
    members
  |> String.concat "; "

(* Folding [push] over the members, in either order, gives exactly the
   sums a bound would otherwise take over the whole list.  The members'
   outputs hand nothing over, as bounded ones that reused nothing; the
   exact SPP hand-over is checked against Theorem 3 below. *)
let aggregate_matches_sums members =
  let items =
    List.map
      (fun (tau, arr_lo, arr_hi, svc) ->
        let arr_hi = Option.value arr_hi ~default:arr_lo in
        ( Local.input ~tau ~arr_lo ~arr_hi ~exact:false,
          {
            Local.svc_lo = Lazy.from_val svc;
            svc_hi = Lazy.from_val svc;
            dep_lo = Step.zero;
            dep_hi = Lazy.from_val Step.zero;
            exact = false;
            handoff = Local.Sums;
          } ))
      members
  in
  let work_lo = Step.sum (List.map (fun ((i : Local.input), _) -> i.work_lo) items)
  and work_hi = Step.sum (List.map (fun ((i : Local.input), _) -> i.work_hi) items)
  and svc_lo =
    Pl.sum (List.map (fun (_, (o : Local.output)) -> Lazy.force o.svc_lo) items)
  in
  List.for_all
    (fun items ->
      let hp = List.fold_left (fun hp (i, o) -> Local.push hp i o) Local.empty items in
      Step.equal (Local.hp_work_lo hp) work_lo
      && Step.equal (Local.hp_work_hi hp) work_hi
      && Pl.equal (Local.hp_svc_lo hp) svc_lo)
    [ items; List.rev items ]

let prop_aggregate =
  G.qtest "push sums, optimized kernels"
    QCheck2.Gen.(list_size (int_range 0 6) member_gen)
    print_members aggregate_matches_sums

(* The exact SPP path consumes idle intervals; Theorem 3's formula on the
   reference kernels is its oracle.  Residents in rank order, each checked
   for its departures, its service curve and the aggregate's service sum
   after it is pushed. *)
let exact_residents_gen =
  let open QCheck2.Gen in
  list_size (int_range 1 5)
    (pair (int_range 1 6) (map Step.of_arrival_times G.arrivals_gen))

let print_residents residents =
  List.map
    (fun (tau, arr) -> Printf.sprintf "tau=%d arr=%s" tau (G.print_step arr))
    residents
  |> String.concat "; "

let idle_matches_theorem3 (horizon, residents) =
  let oracle = Rta_check.Reference.spp_exact ~horizon residents in
  let _, _, ok =
    List.fold_left
      (fun (hp, hp_svc, ok) ((tau, arr), (svc, dep)) ->
        let i = Local.input ~tau ~arr_lo:arr ~arr_hi:arr ~exact:true in
        let o =
          Local.step ~horizon
            (Local.Static { preemptive = true; blocking = 0; hp })
            i
        in
        let hp = Local.push hp i o and hp_svc = Pl.add hp_svc svc in
        ( hp,
          hp_svc,
          ok && o.exact
          && Step.equal o.dep_lo dep
          && Step.equal (Lazy.force o.dep_hi) dep
          && Pl.equal (Lazy.force o.svc_lo) svc
          && Pl.equal (Local.hp_svc_lo hp) hp_svc ))
      (Local.empty, Pl.zero, true)
      (List.combine residents oracle)
  in
  ok

let prop_idle_theorem3 =
  G.qtest ~count:500 "idle map = Theorem 3 formula"
    QCheck2.Gen.(pair (int_range 0 (2 * G.horizon)) exact_residents_gen)
    (fun (h, r) -> Printf.sprintf "horizon=%d %s" h (print_residents r))
    idle_matches_theorem3

(* The static-priority bounds are two single-pass sweeps; the composed
   Theorem 5-6 formula on the reference kernels, on the members' sum, is
   their oracle.  Inputs range over blocking (0 included), higher-priority
   upper workloads and 0 to 4 lower service members (falling ones too),
   level-k lower workloads and own upper workloads, all with arbitrary step
   initial values. *)
let sp_case_gen =
  let open QCheck2.Gen in
  let* blocking = oneof [ return 0; int_range 0 12 ] in
  let* hp_work_hi = G.step_gen in
  let* hp_svc_lo =
    list_size (int_range 0 4) (oneof [ G.pl_mono_gen; G.pl_gen; G.avail_gen ])
  in
  let* level_work = G.step_gen in
  let* work_hi = G.step_gen in
  return (blocking, hp_work_hi, hp_svc_lo, level_work, work_hi)

let print_sp_case (blocking, hp_work_hi, hp_svc_lo, level_work, work_hi) =
  Printf.sprintf "blocking=%d hp_work_hi=%s hp_svc_lo=%s level_work=%s work_hi=%s"
    blocking (G.print_step hp_work_hi)
    ("[" ^ String.concat "; " (List.map G.print_pl hp_svc_lo) ^ "]")
    (G.print_step level_work) (G.print_step work_hi)

let sweeps_match_oracle (blocking, hp_work_hi, hp_svc_lo, level_work, work_hi) =
  let lo_ref, hi_ref =
    Rta_check.Reference.sp_bounds ~blocking ~hp_work_hi
      ~hp_svc_lo:(Pl.sum hp_svc_lo) ~level_work ~work_hi
  in
  let lo = Minplus.sp_lower ~blocking ~hp_work:hp_work_hi ~level_work in
  let hi =
    Minplus.sp_upper ~hp_service:hp_svc_lo ~own_work:work_hi
      ~own_util:(Minplus.utilization ~mode:`Right work_hi)
  in
  Pl.equal lo lo_ref && Pl.equal hi hi_ref

let prop_sp_sweeps =
  G.qtest ~count:2000 "sweeps = Theorem 5-6 formula" sp_case_gen print_sp_case
    sweeps_match_oracle

(* One FCFS processor: the per-jump bounds on the utilization walks
   against the per-instance construction on the reference chain, with its
   sorted-list tie check ([Reference.fcfs]).  Residents are exact (one
   release trace, ties and bursts allowed) or bracketed by two arbitrary
   steps, under both exactness settings and horizons that cut
   departures off. *)
let fcfs_case_gen =
  let open QCheck2.Gen in
  let resident =
    let* tau = int_range 1 4 in
    let* bracket =
      oneof
        [
          map
            (fun ts ->
              let f = Step.of_arrival_times ts in
              (f, f))
            G.arrivals_gen;
          pair G.step_gen G.step_gen;
        ]
    in
    return (tau, fst bracket, snd bracket)
  in
  let* residents = list_size (int_range 1 4) resident in
  let* exact = bool in
  let* horizon = int_range 0 (2 * G.horizon) in
  return (exact, horizon, residents)

let print_fcfs_case (exact, horizon, residents) =
  Printf.sprintf "exact=%b horizon=%d residents=[%s]" exact horizon
    (String.concat "; "
       (List.map
          (fun (tau, lo, hi) ->
            Printf.sprintf "tau=%d lo=%s hi=%s" tau (G.print_step lo) (G.print_step hi))
          residents))

let fcfs_matches_oracle (exact, horizon, residents) =
  let inputs =
    List.map
      (fun (tau, arr_lo, arr_hi) -> Local.input ~tau ~arr_lo ~arr_hi ~exact:false)
      residents
  in
  let ctx = Local.fcfs ~exact ~horizon inputs in
  List.for_all2
    (fun i (dep_lo, dep_hi, exact) ->
      let o = Local.step ~horizon (Local.Fcfs ctx) i in
      Step.equal o.dep_lo dep_lo && Step.equal (Lazy.force o.dep_hi) dep_hi
      && o.exact = exact)
    inputs
    (Rta_check.Reference.fcfs ~exact ~horizon residents)

let prop_fcfs_per_jump =
  G.qtest ~count:1000 "per-jump bounds = per-instance construction" fcfs_case_gen
    print_fcfs_case fcfs_matches_oracle

(* The release-tie check counts jumps: a processor's summed lower
   workload jumps once per distinct release time, so the releases are
   tie-free exactly when it has as many jumps as the residents together.
   Its oracle is the check it replaced, which sorts every release time of
   the processor and looks for a repeat.  Residents are exact, with
   releases drawn close enough to share times, bursts (jumps by more than
   1) and instances counted at time 0 ([init_value > 0]). *)
let sorted_tie_free arrivals =
  let rises_by_one f =
    let rec from i prev =
      i = Step.jump_count f || (Step.jump_value f i = prev + 1 && from (i + 1) (prev + 1))
    in
    from 0 (Step.init_value f)
  in
  List.for_all rises_by_one arrivals
  &&
  let times =
    Array.concat (List.map (fun f -> Array.init (Step.jump_count f) (Step.jump_time f)) arrivals)
  in
  Array.sort Int.compare times;
  let rec distinct i = i >= Array.length times || (times.(i - 1) < times.(i) && distinct (i + 1)) in
  distinct 1

let tie_case_gen =
  let open QCheck2.Gen in
  let resident =
    let* tau = int_range 1 4 in
    let* arr =
      oneof
        [
          (let* n = int_range 0 6 in
           let* times = list_repeat n (int_range 0 30) in
           return (Step.of_arrival_times (Array.of_list (List.sort Int.compare times))));
          G.step_gen;
        ]
    in
    return (tau, arr)
  in
  list_size (int_range 1 4) resident

let prop_tie_check =
  G.qtest ~count:2000 "tie check = sorted releases" tie_case_gen
    (fun residents ->
      String.concat "; "
        (List.map (fun (tau, f) -> Printf.sprintf "tau=%d %s" tau (G.print_step f)) residents))
    (fun residents ->
      let inputs =
        List.map (fun (tau, f) -> Local.input ~tau ~arr_lo:f ~arr_hi:f ~exact:true) residents
      in
      Local.fcfs_exact (Local.fcfs ~exact:true ~horizon:G.horizon inputs)
      = sorted_tie_free (List.map snd residents))

(* Kernel parity end to end: on random acyclic systems under every
   scheduler, each bounded static-priority entry's departures are
   Theorem 2's chain ([Reference.departures]) on its own service bounds
   and arrivals, and each FCFS processor's entries are the per-instance
   construction ([Reference.fcfs]) on its residents' brackets.  So every
   stage reads, and hands down the chain, what the reference kernels would
   have produced from the same inputs. *)
module Sg = Rta_testsupport.Sysgen

let entries_match_reference system =
  match Rta_core.Deps.compute system with
  | Rta_core.Deps.Cyclic _ -> QCheck2.assume_fail ()
  | Rta_core.Deps.Acyclic _ ->
  match Rta_core.Engine.run ~release_horizon ~horizon system with
  | Error (`Cyclic _) -> false
  | Ok e ->
      let static_ok (entry : Rta_core.Engine.entry) =
        let departures service arrivals =
          Rta_check.Reference.departures ~horizon ~tau:entry.tau
            ~service:(Lazy.force service) ~arrivals
        in
        entry.exact
        || Step.equal entry.dep_lo (departures entry.svc_lo entry.arr_lo)
           && Step.equal (Lazy.force entry.dep_hi) (departures entry.svc_hi entry.arr_hi)
      in
      let fcfs_ok p =
        let residents = List.map (Rta_core.Engine.entry e) (System.subjobs_on system p) in
        List.for_all2
          (fun (entry : Rta_core.Engine.entry) (dep_lo, dep_hi, exact) ->
            Step.equal entry.dep_lo dep_lo && Step.equal (Lazy.force entry.dep_hi) dep_hi
            && entry.exact = exact)
          residents
          (Rta_check.Reference.fcfs ~exact:true ~horizon
             (List.map
                (fun (entry : Rta_core.Engine.entry) ->
                  (entry.tau, entry.arr_lo, entry.arr_hi))
                residents))
      in
      List.for_all
        (fun p ->
          if System.scheduler_of system p = Sched.Fcfs then fcfs_ok p
          else
            List.for_all
              (fun id -> static_ok (Rta_core.Engine.entry e id))
              (System.subjobs_on system p))
        (List.init (System.processor_count system) Fun.id)

let prop_engine_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"engine = reference kernels"
       ~print:Sg.print_system
       (Sg.system_gen ~release_horizon ())
       entries_match_reference)

let () =
  Alcotest.run "rta_theorems"
    [
      ( "per-theorem",
        [
          Alcotest.test_case "Thm 2: floor division" `Quick test_theorem2;
          Alcotest.test_case "Thm 3: exact SPP service" `Quick test_theorem3_two_jobs;
          Alcotest.test_case "Lem 2: chained arrivals" `Quick
            test_chain_arrival_is_departure;
          Alcotest.test_case "Eq 15/Thm 5: SPNP blocking" `Quick
            test_spnp_blocking_in_bound;
          Alcotest.test_case "Thm 7: utilization" `Quick test_theorem7_utilization;
          Alcotest.test_case "Thm 8-9: FCFS bounds" `Quick test_theorems8_9_fcfs;
          Alcotest.test_case "Thm 1: per instance" `Quick test_theorem1_per_instance;
          Alcotest.test_case "Thm 4: stage sum" `Quick test_theorem4_sum;
          Alcotest.test_case "completion jitter" `Quick test_completion_jitter;
          Alcotest.test_case "curve CSV" `Quick test_entry_csv;
        ] );
      ("aggregate", [ prop_aggregate ]);
      ("kernels", [ prop_engine_reference ]);
      ("exact SPP", [ prop_idle_theorem3 ]);
      ("SP bounds", [ prop_sp_sweeps ]);
      ("FCFS", [ prop_fcfs_per_jump; prop_tie_check ]);
    ]
