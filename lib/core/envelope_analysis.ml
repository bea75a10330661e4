open Rta_model
module Step = Rta_curve.Step
module Pl = Rta_curve.Pl
module Minplus = Rta_curve.Minplus
module Envelope = Rta_curve.Envelope

type source = {
  name : string;
  envelope : Envelope.t;
  tau : int;
  prio : int;
}

type verdict = Rta_model.Verdict.t = Bounded of int | Unbounded

(* Cumulative worst-case workload of a source over window lengths: the
   envelope materialized as its critical-instant counting function, scaled
   by the execution time.  Exact for subadditive envelopes (all the
   Envelope constructors). *)
let workload source ~window =
  Step.scale (Envelope.worst_arrival_function source.envelope ~horizon:window) source.tau

(* Length of the longest level busy period: the least fixed point of
   d = blocking + sum of interfering workloads over [0, d].  All deviations
   are attained inside it (the processor has provably drained by then).
   [None] when the iteration exceeds the limit: overload. *)
let busy_window ~blocking ~interfering =
  let limit = 1 lsl 22 in
  let demand d =
    blocking
    + List.fold_left (fun acc src -> acc + Step.eval (workload src ~window:d) d) 0 interfering
  in
  let rec iterate d =
    if d > limit then None
    else
      let d' = max 1 (demand d) in
      if d' = d then Some d else iterate d'
  in
  iterate 1

let validate sources i =
  if i < 0 || i >= List.length sources then
    invalid_arg "Envelope_analysis: source index out of range";
  List.iter
    (fun s ->
      if s.tau < 1 then
        invalid_arg (Printf.sprintf "Envelope_analysis: source %s: tau must be >= 1" s.name))
    sources

let response_bound ~sched ~sources i =
  validate sources i;
  let self = List.nth sources i in
  let interfering, blocking =
    match sched with
    | Sched.Fcfs -> (sources, 0)
    | Sched.Spp | Sched.Spnp ->
        let hp = List.filter (fun s -> s.prio < self.prio) sources in
        let blocking =
          match sched with
          | Sched.Spnp ->
              List.fold_left
                (fun acc s -> if s.prio > self.prio then max acc s.tau else acc)
                0 sources
          | Sched.Spp | Sched.Fcfs -> 0
        in
        (self :: hp, blocking)
  in
  match busy_window ~blocking ~interfering with
  | None -> Unbounded
  | Some window ->
      (* Service available to this source over the busy window. *)
      let others =
        List.filter (fun s -> s != self && List.memq s interfering) interfering
      in
      let interference =
        Pl.sum (List.map (fun s -> Pl.of_step (workload s ~window)) others)
      in
      let beta =
        Pl.truncate_at
          (Pl.prefix_max
             (Pl.pos (Pl.sub (Pl.linear ~slope:1 ~offset:(-blocking)) interference)))
          (window + 1)
      in
      let alpha = Pl.truncate_at (Pl.of_step (workload self ~window)) (window + 1) in
      (match Minplus.horizontal_deviation ~upper:alpha ~lower:beta with
      | Some d -> Bounded d
      | None -> Unbounded)

let all_bounds ~sched ~sources =
  Array.init (List.length sources) (response_bound ~sched ~sources)

(* ------------------------------------------------------------------ *)
(* Whole systems.                                                      *)
(* ------------------------------------------------------------------ *)

type result = {
  end_to_end : verdict array;
  per_stage : verdict array array;
}

(* Envelope propagation over any acyclic system, so `rta envelope` and the
   service layer's degraded answer have a bound for any spec the engine can
   analyze exactly.  Subjobs are walked in dependency order ({!Deps}); a
   subjob's arrival envelope is its chain predecessor's envelope widened by
   the predecessor's response jitter (stage 0: the release envelope), and
   its response bound is the single-processor [response_bound] against its
   co-residents' envelopes, each at its own per-stage priority.  Everything
   an interfering co-resident needs — its own predecessor's envelope and
   bound — is a {!Deps} dependency of the subjob under analysis, so the walk
   never reads an unset cell.  A diverging stage poisons its own chain
   downstream (no envelope propagates), but other chains keep their bounds:
   interference uses envelopes, not verdicts. *)
let system_bounds ~release_horizon system =
  match Deps.compute system with
  | Deps.Cyclic _ -> None
  | Deps.Acyclic order ->
      let n_jobs = System.job_count system in
      let release_env =
        Array.init n_jobs (fun j ->
            Arrival.envelope (System.job system j).System.arrival
              ~release_horizon)
      in
      let stage_count j = Array.length (System.job system j).System.steps in
      let per_stage =
        Array.init n_jobs (fun j -> Array.make (stage_count j) Unbounded)
      in
      let envs : Envelope.t option array array =
        Array.init n_jobs (fun j -> Array.make (stage_count j) None)
      in
      (* Arrival envelope of [r], derivable as soon as its chain
         predecessor has been processed (which Deps guarantees whenever we
         ask).  [None] = upstream diverged, no envelope exists. *)
      let arrival_env_of (r : System.subjob_id) =
        let j = r.System.job and st = r.System.step in
        if st = 0 then Some release_env.(j)
        else
          match (envs.(j).(st - 1), per_stage.(j).(st - 1)) with
          | Some e, Bounded b ->
              let tau_pred =
                (System.job system j).System.steps.(st - 1).System.exec
              in
              Some (Envelope.widen e ~jitter:(max 0 (b - tau_pred)))
          | _ -> None
      in
      let env_of (r : System.subjob_id) =
        match envs.(r.System.job).(r.System.step) with
        | Some _ as e -> e
        | None -> arrival_env_of r
      in
      let compute (id : System.subjob_id) =
        match arrival_env_of id with
        | None -> () (* poisoned chain: this stage stays Unbounded *)
        | Some own_env ->
            envs.(id.System.job).(id.System.step) <- Some own_env;
            let p = (System.step system id).System.proc in
            let sched = System.scheduler_of system p in
            let self_prio = (System.step system id).System.prio in
            let residents = System.subjobs_on system p in
            let interferes (r : System.subjob_id) =
              r = id
              ||
              match sched with
              | Sched.Fcfs -> true
              | Sched.Spp | Sched.Spnp ->
                  (System.step system r).System.prio < self_prio
            in
            (* Interfering residents need a real envelope; the rest only
               contribute their [tau]/[prio] (SPNP blocking), so any
               placeholder curve will do — it is never materialized. *)
            let resolved =
              List.map
                (fun (r : System.subjob_id) ->
                  let s = System.step system r in
                  let env =
                    if r = id then Some own_env
                    else if interferes r then env_of r
                    else Some release_env.(r.System.job)
                  in
                  (r, s, env))
                residents
            in
            if List.for_all (fun (_, _, env) -> env <> None) resolved then begin
              let sources =
                List.map
                  (fun ((r : System.subjob_id), (s : System.step), env) ->
                    {
                      name =
                        Printf.sprintf "%s.%d"
                          (System.job system r.System.job).System.name
                          (r.System.step + 1);
                      envelope = Option.get env;
                      tau = s.System.exec;
                      prio = s.System.prio;
                    })
                  resolved
              in
              let i =
                let rec index k = function
                  | [] -> assert false
                  | (r, _, _) :: tl -> if r = id then k else index (k + 1) tl
                in
                index 0 resolved
              in
              per_stage.(id.System.job).(id.System.step) <-
                response_bound ~sched ~sources i
            end
      in
      List.iter compute order;
      let end_to_end =
        Array.init n_jobs (fun j ->
            Array.fold_left Verdict.add (Bounded 0) per_stage.(j))
      in
      Some { end_to_end; per_stage }
