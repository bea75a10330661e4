open Rta_model

type method_ = Spp_exact | Spp_sl | Spnp_app | Fcfs_app | Spp_app

let method_name = function
  | Spp_exact -> "SPP/Exact"
  | Spp_sl -> "SPP/S&L"
  | Spnp_app -> "SPNP/App"
  | Fcfs_app -> "FCFS/App"
  | Spp_app -> "SPP/App"

let sched_of = function
  | Spp_exact | Spp_sl | Spp_app -> Sched.Spp
  | Spnp_app -> Sched.Spnp
  | Fcfs_app -> Sched.Fcfs

let admits ?(estimator = `Sum) method_ system =
  let release_horizon, horizon = Rta_workload.Jobshop.suggested_horizons system in
  match method_ with
  | Spp_sl -> (
      match Rta_baselines.Sunliu.analyze system with
      | Ok r -> Rta_baselines.Sunliu.schedulable r system
      | Error _ -> false)
  | Spp_exact -> (
      match Rta_core.Engine.run ~release_horizon ~horizon system with
      | Error (`Cyclic _) -> false
      | Ok engine ->
          Rta_core.Engine.is_exact engine
          && Rta_core.Response.schedulable engine ~estimator:`Exact)
  | Spnp_app | Fcfs_app | Spp_app -> (
      match Rta_core.Engine.run ~release_horizon ~horizon system with
      | Error (`Cyclic _) -> false
      | Ok engine ->
          let estimator = (estimator :> Rta_core.Response.estimator) in
          (* Spp_app must not silently use the exact departures: force the
             approximate estimator on whatever the engine computed.  For an
             all-SPP system the engine is exact, so `Sum here measures pure
             Theorem 4 pessimism over exact per-stage curves; combined with
             the Spnp/Fcfs variants this isolates each factor. *)
          Rta_core.Response.schedulable engine ~estimator)

type point = {
  utilization : float;
  admitted : (method_ * float) list;
}

(* Verdict of every method on one job set.  One seed per set: every method
   regenerates identical random parameters (the scheduler is the only
   difference), exactly the paper's protocol. *)
let judge_set ?estimator ~methods ~config_of ~utilization ~seed set =
  let set_seed = seed + (7919 * set) + int_of_float (utilization *. 1e6) in
  List.map
    (fun m ->
      let rng = Rta_workload.Rng.make set_seed in
      let config = config_of ~utilization ~sched:(sched_of m) in
      let system = Rta_workload.Jobshop.generate config ~rng in
      admits ?estimator m system)
    methods

let sweep ?estimator ?domains ~methods ~config_of ~utilizations ~sets ~seed () =
  let jobs = Option.value ~default:(Rta_service.Backend.default_jobs ()) domains in
  List.map
    (fun utilization ->
      (* Every job set is independent and seed-addressed, so sets spread
         freely over the pool; the result is identical for any count. *)
      let judge = judge_set ?estimator ~methods ~config_of ~utilization ~seed in
      let verdicts = Array.make sets [] in
      Rta_service.Backend.run ~jobs
        (Array.init sets (fun set () -> verdicts.(set) <- judge set));
      let counts =
        Array.fold_left
          (List.map2 (fun n ok -> if ok then n + 1 else n))
          (List.map (fun _ -> 0) methods)
          verdicts
      in
      {
        utilization;
        admitted =
          List.map2
            (fun m c -> (m, float_of_int c /. float_of_int sets))
            methods counts;
      })
    utilizations

let to_table points ~header =
  let rows =
    List.map
      (fun p ->
        Printf.sprintf "%.2f" p.utilization
        :: List.map (fun (_, prob) -> Tabular.render_float prob) p.admitted)
      points
  in
  (rows, "U" :: header)
