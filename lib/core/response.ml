open Rta_model
module Step = Rta_curve.Step

type verdict = Verdict.t = Bounded of int | Unbounded
type estimator = [ `Exact | `Direct | `Sum ]

let instance_count engine ~job =
  Step.final_value (Engine.entry engine { System.job; step = 0 }).Engine.arr_lo

(* max over instances m of (departure_time(m) - reference_time(m)); Unbounded
   as soon as any departure or reference is missing. *)
let max_over_instances ~count ~departure_of ~reference_of =
  let rec go m acc =
    if m > count then Bounded acc
    else
      match (departure_of m, reference_of m) with
      | Some d, Some r -> go (m + 1) (max acc (d - r))
      | None, _ | _, None -> Unbounded
  in
  if count = 0 then Bounded 0 else go 1 0

let end_to_end engine ~estimator ~job =
  let steps = (System.job engine.Engine.system job).System.steps in
  let last = Array.length steps - 1 in
  let first_e = Engine.entry engine { System.job = job; step = 0 } in
  let last_e = Engine.entry engine { System.job = job; step = last } in
  let count = instance_count engine ~job in
  match estimator with
  | `Exact ->
      if not last_e.Engine.exact then
        invalid_arg "Response.end_to_end: `Exact requires an exact analysis";
      max_over_instances ~count
        ~departure_of:(Step.inverse last_e.Engine.dep_lo)
        ~reference_of:(Step.inverse first_e.Engine.arr_lo)
  | `Direct ->
      max_over_instances ~count
        ~departure_of:(Step.inverse last_e.Engine.dep_lo)
        ~reference_of:(Step.inverse first_e.Engine.arr_lo)
  | `Sum ->
      let add acc v =
        match (acc, v) with
        | Bounded a, Bounded b -> Bounded (a + b)
        | Unbounded, _ | _, Unbounded -> Unbounded
      in
      let stage j =
        let e = Engine.entry engine { System.job; step = j } in
        max_over_instances ~count
          ~departure_of:(Step.inverse e.Engine.dep_lo)
          ~reference_of:(Step.inverse e.Engine.arr_hi)
      in
      let rec sum j acc =
        if j > last then acc
        else
          match acc with
          | Unbounded -> Unbounded
          | Bounded _ -> sum (j + 1) (add acc (stage j))
      in
      sum 0 (Bounded 0)

let per_instance engine ~job =
  let steps = (System.job engine.Engine.system job).System.steps in
  let last = Array.length steps - 1 in
  let first_e = Engine.entry engine { System.job = job; step = 0 } in
  let last_e = Engine.entry engine { System.job = job; step = last } in
  let count = instance_count engine ~job in
  List.init count (fun i ->
      let m = i + 1 in
      match
        ( Step.inverse last_e.Engine.dep_lo m,
          Step.inverse first_e.Engine.arr_lo m )
      with
      | Some d, Some r -> (m, Bounded (d - r))
      | None, _ | _, None -> (m, Unbounded))

let stage_bounds engine ~job =
  let steps = (System.job engine.Engine.system job).System.steps in
  let count = instance_count engine ~job in
  List.init (Array.length steps) (fun j ->
      let e = Engine.entry engine { System.job; step = j } in
      max_over_instances ~count
        ~departure_of:(Step.inverse e.Engine.dep_lo)
        ~reference_of:(Step.inverse e.Engine.arr_hi))

let completion_jitter engine ~job =
  let steps = (System.job engine.Engine.system job).System.steps in
  let last_e =
    Engine.entry engine { System.job = job; step = Array.length steps - 1 }
  in
  let count = instance_count engine ~job in
  let rec go m acc =
    if m > count then Bounded acc
    else
      match
        ( Step.inverse last_e.Engine.dep_lo m,
          Step.inverse last_e.Engine.dep_hi m )
      with
      | Some latest, Some earliest -> go (m + 1) (max acc (latest - earliest))
      | None, _ | _, None -> Unbounded
  in
  go 1 0

let job_ok engine ~estimator ~job =
  match end_to_end engine ~estimator ~job with
  | Bounded r -> r <= (System.job engine.Engine.system job).System.deadline
  | Unbounded -> false

let schedulable engine ~estimator =
  let n = System.job_count engine.Engine.system in
  let rec go j = j >= n || (job_ok engine ~estimator ~job:j && go (j + 1)) in
  go 0

let pp_verdict ppf = function
  | Bounded r -> Format.fprintf ppf "bounded(%a)" Time.pp r
  | Unbounded -> Format.pp_print_string ppf "unbounded"
