open Rta_model

type config = {
  estimator : [ `Direct | `Sum ];
  release_horizon : int option;
  horizon : int option;
}

let default = { estimator = `Direct; release_horizon = None; horizon = None }

let config ?(estimator = `Direct) ?release_horizon ?horizon () =
  { estimator; release_horizon; horizon }

let resolve_horizons cfg system =
  let suggested_release, suggested = System.suggested_horizons system in
  let sat_double x = if x > max_int / 2 then max_int else 2 * x in
  let derived_horizon r = max suggested (sat_double r) in
  let explicit = Option.map (max 1) in
  match (explicit cfg.release_horizon, explicit cfg.horizon) with
  | Some r, Some h -> (r, h)
  | Some r, None -> (r, derived_horizon r)
  | None, Some h ->
      (* A derived release horizon keeps the default rule's drain window
         under an explicit horizon: at most half of it, so releases near
         its end still have time to be seen to depart. *)
      (min (max 1 suggested_release) (max 1 (h / 2)), h)
  | None, None ->
      let r = max 1 suggested_release in
      (r, derived_horizon r)

type verdict = Rta_model.Verdict.t = Bounded of int | Unbounded

type report = {
  method_used : [ `Exact | `Approximate | `Fixpoint ];
  per_job : verdict array;
  schedulable : bool;
  release_horizon : int;
  horizon : int;
}

(* The report read off a finished engine.  A cyclic system is read the
   Direct way whatever the estimator: Theorem 1's shape on the final
   departure bounds, at most X at the last stage for a job ending in a
   loop. *)
let of_engine ~estimator engine =
  let system = engine.Engine.system in
  let method_used, estimator =
    if Engine.is_exact engine then (`Exact, `Exact)
    else if engine.Engine.loops <> [] then (`Fixpoint, `Direct)
    else (`Approximate, (estimator :> Response.estimator))
  in
  let per_job =
    Array.init (System.job_count system) (fun j -> Response.end_to_end engine ~estimator ~job:j)
  in
  let meets j = Verdict.meets ~deadline:(System.job system j).System.deadline in
  let schedulable = Array.for_all Fun.id (Array.mapi meets per_job) in
  let { Engine.release_horizon; horizon; _ } = engine in
  { method_used; per_job; schedulable; release_horizon; horizon }

let run_engine ?(cancel = Cancel.never) ?(config = default) system =
  let release_horizon, horizon = resolve_horizons config system in
  let sp = Rta_obs.span_begin "analysis.run" in
  Fun.protect ~finally:(fun () -> Rta_obs.span_end sp) @@ fun () ->
  let engine = Result.get_ok (Engine.run ~cancel ~release_horizon ~horizon system) in
  let report = of_engine ~estimator:config.estimator engine in
  if Rta_obs.enabled () then
    Rta_obs.span_str sp "method"
      (match report.method_used with
      | `Exact -> "exact"
      | `Approximate -> "approximate"
      | `Fixpoint -> "fixpoint");
  (report, engine)

let run ?cancel ?config system = fst (run_engine ?cancel ?config system)

let pp_report system ppf report =
  let method_name =
    match report.method_used with
    | `Exact -> "exact (Thm 1-3)"
    | `Approximate -> "approximate (Thm 4-9)"
    | `Fixpoint -> "fixed point (Sec. 6)"
  in
  Format.fprintf ppf "@[<v>analysis method: %s@," method_name;
  Array.iteri
    (fun j v ->
      let job = System.job system j in
      match v with
      | Bounded r ->
          Format.fprintf ppf "  %-8s response %a  deadline %a  %s@,"
            job.System.name Time.pp r Time.pp job.System.deadline
            (if r <= job.System.deadline then "OK" else "MISS")
      | Unbounded ->
          Format.fprintf ppf "  %-8s response unbounded within horizon  MISS@,"
            job.System.name)
    report.per_job;
  Format.fprintf ppf "schedulable: %b@]" report.schedulable
