(* Parity of the Section 6 loop ([Fixpoint.loop]) with its full-sweep
   references ([Rta_testsupport.Sweep]), on every cyclic component of the
   systems below, both fed the same boundaries (read off the finished
   analysis).

   - parity: the loop skips members whose read set (chain predecessors of
     self and of scheduling-relevant co-residents) did not move since
     they were last read.  Recomputing a member from unchanged inputs
     reproduces its bounds, so the loop must walk the SAME iterates as
     the symmetric Gauss-Seidel sweep that recomputes every member each
     round: the same largest rise per round, the same round count and
     settledness, the same final brackets and bounds.  A divergence means
     the dirty set missed a dependency edge or a cache served a stale
     value.
   - jacobi: the sweep order changes how fast X settles, not where.
     Wherever the textbook Jacobi sweep settles on a component, the loop
     settles on the same brackets and bounds; so wherever it settles on
     every component, the per-job verdicts are the Jacobi iteration's.
     Where it does not, every job's bound is still at or above the
     simulated worst.

   All sides run the production per-processor step; kernel parity is
   checked elsewhere (test_theorems, test/curve, [rta fuzz --kernels]). *)

open Rta_model
module Fixpoint = Rta_core.Fixpoint
module Local = Rta_core.Local
module Step = Rta_curve.Step
module Obs = Rta_obs
module Sg = Rta_testsupport.Sysgen
module Sweep = Rta_testsupport.Sweep

let loops system =
  List.filter_map
    (function Rta_core.Deps.Loop ms -> Some ms | Rta_core.Deps.Single _ -> None)
    (Rta_core.Deps.components system)

let with_scheduler sched system =
  System.make_exn
    ~schedulers:(Array.make (System.processor_count system) sched)
    ~jobs:(Array.init (System.job_count system) (System.job system))

type case = { system : System.t; release_horizon : int; horizon : int }

let generated ?sched seed =
  let c = Rta_check.Gen.generate (Rta_workload.Rng.make seed) in
  let system = c.Rta_check.Gen.system in
  {
    system = Option.fold ~none:system ~some:(fun s -> with_scheduler s system) sched;
    release_horizon = c.Rta_check.Gen.release_horizon;
    horizon = c.Rta_check.Gen.horizon;
  }

let chain_swapped sched =
  let system = Rta_testsupport.Loops.chain_swapped sched ~jobs:16 in
  let release_horizon, horizon = System.suggested_horizons system in
  { system; release_horizon; horizon }

let engine c =
  match Rta_core.Engine.run ~release_horizon:c.release_horizon ~horizon:c.horizon c.system with
  | Ok e -> e
  | Error (`Cyclic _) -> Alcotest.fail "Engine.run answers every system"

(* The loop on one component, with the largest rise of each round read
   off its iteration spans. *)
let traced_loop c ~input ~above members =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
  @@ fun () ->
  let loop =
    Fixpoint.loop ~release_horizon:c.release_horizon ~horizon:c.horizon ~input
      ~above c.system members
  in
  let prefix = "fixpoint.iteration " in
  let residuals =
    Array.to_list (Obs.spans ())
    |> List.filter_map (fun (i : Obs.span_info) ->
           if String.starts_with ~prefix i.Obs.si_name then
             match List.assoc_opt "residual" i.Obs.si_attrs with
             | Some (Obs.Int r) -> Some r
             | _ -> None
           else None)
  in
  (loop, residuals)

let same_bounds (i, (o : Local.output)) (i', (o' : Local.output)) =
  Step.equal i.Local.arr_lo i'.Local.arr_lo
  && Step.equal i.Local.arr_hi i'.Local.arr_hi
  && Step.equal o.Local.dep_lo o'.Local.dep_lo
  && Step.equal (Lazy.force o.Local.dep_hi) (Lazy.force o'.Local.dep_hi)

(* [each_loop c f]: [f ~input ~above members] holds on every loop of [c],
   fed the boundaries of [c]'s finished analysis. *)
let each_loop c f =
  let e = engine c in
  List.for_all
    (fun members ->
      let input, above = Sweep.boundaries e members in
      f ~input ~above members)
    (loops c.system)

let full_sweep order c ~input ~above members =
  Sweep.run ~order ~release_horizon:c.release_horizon ~horizon:c.horizon ~input
    ~above c.system members

let dirty_is_full c =
  each_loop c (fun ~input ~above members ->
      let loop, residuals = traced_loop c ~input ~above members in
      let full = full_sweep `Symmetric c ~input ~above members in
      loop.Fixpoint.rounds = full.Sweep.loop.Fixpoint.rounds
      && loop.settled = full.loop.settled
      && residuals = full.residuals
      && List.for_all (fun id -> same_bounds (loop.final id) (full.loop.final id)) members)

(* Fuzz systems with at least one loop: from a drawn seed, the first
   whose system (every processor under [sched], if given) has one. *)
let looped_gen ?sched () =
  QCheck2.Gen.map
    (fun seed ->
      let rec first seed =
        let c = generated ?sched seed in
        if loops c.system <> [] then c else first (seed + 1)
      in
      first seed)
    (QCheck2.Gen.int_range 0 1_000_000)

let qparity name sched =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:120 ~name
       ~print:(fun c -> Sg.print_system c.system)
       (looped_gen ?sched ()) dirty_is_full)

let prop_parity_mixed = qparity "dirty = full (mixed schedulers)" None
let prop_parity_spp = qparity "dirty = full (SPP)" (Some Sched.Spp)
let prop_parity_fcfs = qparity "dirty = full (FCFS)" (Some Sched.Fcfs)

(* The 16-job chain-swapped SPP shop, one 23-member loop, with the
   equality spelt out field by field for a readable failure. *)
let test_parity_fixed () =
  let c = chain_swapped Sched.Spp in
  match loops c.system with
  | [ members ] ->
      let input, above = Sweep.boundaries (engine c) members in
      let loop, residuals = traced_loop c ~input ~above members in
      let full = full_sweep `Symmetric c ~input ~above members in
      Alcotest.(check int) "rounds" full.loop.rounds loop.rounds;
      Alcotest.(check bool) "settled" full.loop.settled loop.settled;
      Alcotest.(check (list int)) "largest rise per round" full.residuals residuals;
      List.iter
        (fun (id : System.subjob_id) ->
          let name = Printf.sprintf "%s.%d" (System.job c.system id.job).System.name (id.step + 1) in
          Alcotest.(check bool) (name ^ " bounds") true
            (same_bounds (loop.final id) (full.loop.final id)))
        members
  | _ -> Alcotest.fail "expected one loop"

(* Where the Jacobi sweep settles on a component, the loop settles on the
   same brackets and bounds; [unsettled] collects the components where
   it does not. *)
let agrees_with_jacobi ?(unsettled = ref 0) c =
  each_loop c (fun ~input ~above members ->
      let jacobi = full_sweep `Jacobi c ~input ~above members in
      if not jacobi.loop.settled then begin
        incr unsettled;
        true
      end
      else
        let loop =
          Fixpoint.loop ~release_horizon:c.release_horizon ~horizon:c.horizon
            ~input ~above c.system members
        in
        loop.settled
        && List.for_all
             (fun id -> same_bounds (loop.final id) (jacobi.loop.final id))
             members)

let cyclic_seeds =
  List.filter
    (fun seed -> loops (generated seed).system <> [])
    (List.init 10_000 Fun.id)

let test_jacobi_fuzz () =
  let unsettled = ref 0 in
  let bad =
    List.filter (fun seed -> not (agrees_with_jacobi ~unsettled (generated seed))) cyclic_seeds
  in
  Alcotest.(check (list int)) "seeds where the loop leaves Jacobi's fixed point" [] bad;
  (* The fuzz seeds hold loops that settle and loops that do not. *)
  Alcotest.(check bool) "some loops settle" true (List.length cyclic_seeds > !unsettled);
  Alcotest.(check bool) "some loops do not" true (!unsettled > 0)

let test_jacobi_shops () =
  List.iter
    (fun sched ->
      Alcotest.(check bool) (Sched.to_string sched) true
        (agrees_with_jacobi (chain_swapped sched)))
    [ Sched.Spp; Sched.Spnp; Sched.Fcfs ]

(* Where some component's Jacobi sweep does not settle, the analysis
   still answers every job soundly. *)
let test_unsettled_vs_sim () =
  let checked = ref 0 in
  List.iter
    (fun seed ->
      let c = generated seed in
      let unsettled = ref 0 in
      ignore (agrees_with_jacobi ~unsettled c);
      if !unsettled > 0 then begin
        incr checked;
        let config =
          Rta_core.Analysis.config ~release_horizon:c.release_horizon ~horizon:c.horizon ()
        in
        let a = Rta_core.Analysis.run ~config c.system in
        let sim = Rta_sim.Sim.run ~release_horizon:c.release_horizon c.system ~horizon:c.horizon in
        Array.iteri
          (fun j v ->
            match (v, Rta_sim.Sim.worst_response sim j) with
            | Verdict.Bounded b, Some w when b < w ->
                Alcotest.failf "seed %d job %d: bound %d below the simulated %d" seed j b w
            | _ -> ())
          a.Rta_core.Analysis.per_job
      end)
    cyclic_seeds;
  Alcotest.(check bool) "systems checked" true (!checked > 0)

let () =
  Alcotest.run "rta_fixpoint_parity"
    [
      ( "parity",
        [
          Alcotest.test_case "fixed system, field by field" `Quick
            test_parity_fixed;
          prop_parity_mixed;
          prop_parity_spp;
          prop_parity_fcfs;
        ] );
      ( "jacobi",
        [
          Alcotest.test_case "loop = Jacobi where it settles (fuzz)" `Quick
            test_jacobi_fuzz;
          Alcotest.test_case "loop = Jacobi on chain-swapped shops" `Quick
            test_jacobi_shops;
          Alcotest.test_case "unsettled Jacobi: bounds >= sim" `Quick
            test_unsettled_vs_sim;
        ] );
    ]
