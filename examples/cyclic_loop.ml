(* "Logical loops" — the open problem from the paper's conclusion
   (Section 6), and what this library does about it.

   Two jobs traverse two processors in opposite orders, each outranked by
   the other's second stage, so each job's arrival function transitively
   depends on its own departures: the four subjobs form one cyclic
   component of the dependency graph, and no order computes them.  The
   engine runs the Section 6 fixed point over that component (any subjob
   outside a loop would still get its one chain-propagated step).  The
   window-based iteration may fail to converge (the paper left convergence
   open; we document the unit-gain creep in EXPERIMENTS.md), in which case
   the jitter-based Sun&Liu iteration still applies for SPP systems.

   Run with: dune exec examples/cyclic_loop.exe *)

open Rta_model

let system ~load =
  (* [load] scales execution times: small loads converge, heavy loads make
     the fixed point creep into rejection. *)
  let e u = max 1 (Time.of_units (u *. load)) in
  System.make_exn
    ~schedulers:[| Sched.Spp; Sched.Spp |]
    ~jobs:
      [|
        {
          System.name = "east";
          arrival = Arrival.Periodic { period = Time.of_units 20.0; offset = 0 };
          deadline = Time.of_units 30.0;
          steps =
            [|
              { System.proc = 0; exec = e 1.0; prio = 2 };
              { System.proc = 1; exec = e 1.5; prio = 1 };
            |];
        };
        {
          System.name = "west";
          arrival =
            Arrival.Periodic
              { period = Time.of_units 25.0; offset = Time.of_units 3.0 };
          deadline = Time.of_units 30.0;
          steps =
            [|
              { System.proc = 1; exec = e 1.0; prio = 2 };
              { System.proc = 0; exec = e 1.5; prio = 1 };
            |];
        };
      |]

let () =
  let s = system ~load:1.0 in
  (match Rta_core.Deps.compute s with
  | Rta_core.Deps.Acyclic _ -> Format.printf "dependencies: acyclic (unexpected)@."
  | Rta_core.Deps.Cyclic on_cycle ->
      Format.printf "dependencies: %d subjobs on a cycle — no order computes them@."
        (List.length on_cycle));
  let release_horizon = Time.of_units 200.0 and horizon = Time.of_units 400.0 in
  let config = Rta_core.Analysis.config ~release_horizon ~horizon () in
  List.iter
    (fun load ->
      let s = system ~load in
      let report = Rta_core.Analysis.run ~config s in
      let rounds =
        match Rta_core.Engine.run ~release_horizon ~horizon s with
        | Ok e ->
            List.map (fun (l : Rta_core.Engine.loop) -> l.rounds) e.Rta_core.Engine.loops
        | Error _ -> []
      in
      let sim = Rta_sim.Sim.run ~release_horizon s ~horizon in
      Format.printf "@.load x%.1f (fixed point: %s rounds)@." load
        (String.concat ", " (List.map string_of_int rounds));
      Array.iteri
        (fun j v ->
          let name = (System.job s j).System.name in
          let sim_worst =
            match Rta_sim.Sim.worst_response sim j with
            | Some w -> Format.asprintf "%a" Time.pp w
            | None -> "-"
          in
          match v with
          | Rta_core.Analysis.Bounded b ->
              Format.printf "  %-5s fixed point %a  sim %s@." name Time.pp b sim_worst
          | Rta_core.Analysis.Unbounded ->
              Format.printf "  %-5s fixed point: no bound within the horizon (reject)  sim %s@."
                name sim_worst)
        report.Rta_core.Analysis.per_job;
      (* The jitter-based route always has an answer for periodic SPP. *)
      match Rta_baselines.Sunliu.analyze s with
      | Error e -> Format.printf "  S&L: %s@." e
      | Ok sl ->
          Array.iteri
            (fun j v ->
              let name = (System.job s j).System.name in
              match v with
              | Rta_baselines.Sunliu.Bounded b ->
                  Format.printf "  %-5s S&L bound %a@." name Time.pp b
              | Rta_baselines.Sunliu.Unbounded ->
                  Format.printf "  %-5s S&L unbounded@." name)
            sl.Rta_baselines.Sunliu.per_job)
    [ 0.2; 1.0; 3.0 ]
