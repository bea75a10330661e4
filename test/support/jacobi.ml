(* The textbook Section 6 fixed point: a full Jacobi sweep that recomputes
   every subjob from the previous iterate each round, on the frozen
   {!Rta_curve.Reference} kernels.  No dirty set, no caches across rounds,
   and Eq. 12 extracted by one binary search per instance.
   [Rta_core.Fixpoint.analyze] must walk the same iterates (the parity
   tests), and the bench times it as the fixpoint's reference lane. *)

open Rta_model
module Step = Rta_curve.Step
module Local = Rta_core.Local
module Fixpoint = Rta_core.Fixpoint
module Reference_local = Local.Make (Rta_curve.Reference)

let analyze ?(max_iterations = 64) ?release_horizon ~horizon system =
  let release_horizon = Option.value ~default:horizon release_horizon in
  let sentinel = Fixpoint.unbounded_sentinel horizon in
  let n_jobs = System.job_count system in
  let releases =
    Array.init n_jobs (fun j ->
        Arrival.arrival_function (System.job system j).System.arrival
          ~horizon:release_horizon)
  in
  (* ends.(j).(st): sum of the execution times of stages 0..st, the
     earliest completion and the initial iterate. *)
  let ends =
    Array.init n_jobs (fun j ->
        let acc = ref 0 in
        Array.map
          (fun (s : System.step) ->
            acc := !acc + s.System.exec;
            !acc)
          (System.job system j).System.steps)
  in
  let x = Array.map Array.copy ends in
  let iterations = ref 0 and changed = ref true in
  while !changed && !iterations < max_iterations do
    incr iterations;
    changed := false;
    let x' = Array.map Array.copy x in
    for p = 0 to System.processor_count system - 1 do
      let residents = System.subjobs_on system p in
      let inputs =
        List.map
          (fun (id : System.subjob_id) ->
            let j = id.System.job and st = id.System.step in
            let shifted d = Step.shift_right releases.(j) d in
            let arr_lo, arr_hi =
              if st = 0 then (releases.(j), releases.(j))
              else
                ( shifted (min x.(j).(st - 1) sentinel),
                  shifted ends.(j).(st - 1) )
            in
            let tau = (System.step system id).System.exec in
            (id, Local.input ~tau ~arr_lo ~arr_hi ~exact:false))
          residents
      in
      let fcfs = lazy (Local.fcfs ~exact:false (List.map snd inputs)) in
      (* Within one round every lower-priority resident needs a
         higher-priority one's bounds; compute each once. *)
      let outputs = Hashtbl.create 8 in
      let rec output (id : System.subjob_id) =
        match Hashtbl.find_opt outputs id with
        | Some o -> o
        | None ->
            let sched = System.scheduler_of system p in
            let policy =
              if sched = Sched.Fcfs then Local.Fcfs (Lazy.force fcfs)
              else
                Local.Static
                  {
                    preemptive = sched = Sched.Spp;
                    blocking =
                      (if sched = Sched.Spp then 0
                       else System.max_blocking system id);
                    hp =
                      List.map
                        (fun h -> (List.assoc h inputs, output h))
                        (System.higher_priority_on system id);
                  }
            in
            let o = Reference_local.step ~horizon policy (List.assoc id inputs) in
            Hashtbl.add outputs id o;
            o
      in
      List.iter
        (fun (id : System.subjob_id) ->
          let j = id.System.job and st = id.System.step in
          let dep_lo = (output id).Local.dep_lo in
          let count = Step.final_value releases.(j) in
          let rec worst m acc =
            if m > count then acc
            else
              match (Step.inverse dep_lo m, Step.inverse releases.(j) m) with
              | Some d, Some r -> worst (m + 1) (max acc (d - r))
              | None, _ | _, None -> sentinel
          in
          let r = if count = 0 then x.(j).(st) else min (worst 1 0) sentinel in
          if r > x.(j).(st) then begin
            x'.(j).(st) <- r;
            changed := true
          end)
        residents
    done;
    Array.blit x' 0 x 0 n_jobs
  done;
  let verdict r = if r >= sentinel then Fixpoint.Unbounded else Bounded r in
  let last row =
    if !changed then Fixpoint.Unbounded else verdict row.(Array.length row - 1)
  in
  {
    Fixpoint.per_job = Array.map last x;
    per_stage = Array.map (Array.map verdict) x;
    iterations = !iterations;
  }
