open Rta_model

type config = {
  estimator : [ `Direct | `Sum ];
  release_horizon : int option;
  horizon : int option;
  deadline_s : float option;
}

let default =
  { estimator = `Direct; release_horizon = None; horizon = None; deadline_s = None }

let config ?(estimator = `Direct) ?release_horizon ?horizon ?deadline_s () =
  { estimator; release_horizon; horizon; deadline_s }

let resolve_horizons cfg system =
  let suggested_release, suggested = System.suggested_horizons system in
  let sat_double x = if x > max_int / 2 then max_int else 2 * x in
  let release_horizon =
    max 1 (Option.value ~default:suggested_release cfg.release_horizon)
  in
  let horizon =
    max 1
      (Option.value
         ~default:(max suggested (sat_double release_horizon))
         cfg.horizon)
  in
  (release_horizon, horizon)

type verdict = Verdict.t = Bounded of int | Unbounded

type report = {
  method_used : [ `Exact | `Approximate | `Fixpoint ];
  per_job : verdict array;
  schedulable : bool;
  release_horizon : int;
  horizon : int;
}

let finish system method_used ~release_horizon ~horizon per_job =
  let schedulable =
    Array.to_list per_job
    |> List.mapi (fun j v ->
           match v with
           | Bounded r -> r <= (System.job system j).System.deadline
           | Unbounded -> false)
    |> List.for_all Fun.id
  in
  { method_used; per_job; schedulable; release_horizon; horizon }

let run ?(cancel = Cancel.never) ?(config = default) system =
  let release_horizon, horizon = resolve_horizons config system in
  let finish = finish system ~release_horizon ~horizon in
  let sp = Rta_obs.span_begin "analysis.run" in
  Fun.protect ~finally:(fun () -> Rta_obs.span_end sp) @@ fun () ->
  let report =
    match Engine.run ~cancel ~release_horizon ~horizon system with
    | Error (`Cyclic _) ->
        let fp = Fixpoint.analyze ~cancel ~release_horizon ~horizon system in
        finish `Fixpoint fp.Fixpoint.per_job
    | Ok engine ->
        let exact = Engine.is_exact engine in
        let estimator =
          if exact then `Exact else (config.estimator :> Response.estimator)
        in
        let per_job =
          Array.init (System.job_count system) (fun j ->
              Response.end_to_end engine ~estimator ~job:j)
        in
        finish (if exact then `Exact else `Approximate) per_job
  in
  if Rta_obs.enabled () then
    Rta_obs.span_str sp "method"
      (match report.method_used with
      | `Exact -> "exact"
      | `Approximate -> "approximate"
      | `Fixpoint -> "fixpoint");
  report

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
