(* Ints only: the polymorphic versions call the runtime's generic compare. *)
open struct [@@@warning "-32"] let min = Int.min let max = Int.max let compare = Int.compare external ( < ) : int -> int -> bool = "%lessthan" external ( <= ) : int -> int -> bool = "%lessequal" external ( > ) : int -> int -> bool = "%greaterthan" external ( >= ) : int -> int -> bool = "%greaterequal" end

open Rta_model
module Step = Rta_curve.Step

type verdict = Rta_model.Verdict.t = Bounded of int | Unbounded
type estimator = [ `Exact | `Direct | `Sum ]

let instance_count engine ~job = Step.final_value engine.Engine.entries.(job).(0).Engine.arr_lo

let last a = a.(Array.length a - 1)

(* Eq. 12 between two counting functions over the released instances. *)
let lag engine ~job early late =
  match Step.max_lag ~count:(instance_count engine ~job) early late with
  | Some r -> Bounded r
  | None -> Unbounded

let stage_bounds engine ~job =
  Array.to_list engine.Engine.entries.(job)
  |> List.map (fun e -> lag engine ~job e.Engine.arr_hi e.Engine.dep_lo)

let end_to_end engine ~estimator ~job =
  let es = engine.Engine.entries.(job) in
  match estimator with
  | `Exact | `Direct ->
      if estimator = `Exact && not (last es).Engine.exact then
        invalid_arg "Response.end_to_end: `Exact requires an exact analysis";
      lag engine ~job es.(0).Engine.arr_lo (last es).Engine.dep_lo
  | `Sum -> List.fold_left Verdict.add (Bounded 0) (stage_bounds engine ~job)

let per_instance engine ~job =
  let es = engine.Engine.entries.(job) in
  List.init (instance_count engine ~job) (fun i ->
      let m = i + 1 in
      match (Step.inverse (last es).Engine.dep_lo m, Step.inverse es.(0).Engine.arr_lo m) with
      | Some d, Some r -> (m, Bounded (d - r))
      | None, _ | _, None -> (m, Unbounded))

let completion_jitter engine ~job =
  let e = last engine.Engine.entries.(job) in
  lag engine ~job (Lazy.force e.Engine.dep_hi) e.Engine.dep_lo

let schedulable engine ~estimator =
  let system = engine.Engine.system in
  let ok j =
    Verdict.meets ~deadline:(System.job system j).System.deadline
      (end_to_end engine ~estimator ~job:j)
  in
  let rec go j = j >= System.job_count system || (ok j && go (j + 1)) in
  go 0
