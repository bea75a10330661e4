(* Maximal idle intervals [first, stop), keyed by [stop] and holding
   [first].  Intervals are disjoint and separated by busy time, so stops
   are ordered like starts, and the first interval with [stop > t] is the
   one containing [t] or, if [t] is busy, the next one: a single
   [find_first] locates where an instance can start.  The last interval
   is unbounded ([stop = max_int]) and is never removed whole, since no
   instance needs infinite time. *)

module M = Map.Make (Int)

type t = int M.t

module Obs = Rta_obs

let c_queries = Obs.counter "spp.idle.queries"
let c_removed = Obs.counter "spp.idle.removed"
let c_splits = Obs.counter "spp.idle.splits"
let full = M.singleton max_int 0

type use = { rest : t; service : Pl.t Lazy.t; departures : Step.t }

(* The first interval ending after [t]. *)
let locate idle t =
  Obs.incr c_queries;
  M.find_first (fun stop -> stop > t) idle

(* Take [need] units from [start] on: returns the map left, the pieces
   taken (prepended to [pieces], latest first) and the completion time. *)
let rec take idle start need pieces =
  let stop, first = locate idle start in
  let from = max first start in
  (* The part before [from], if any, stays idle under a new stop. *)
  let keep_before idle = if first < from then M.add from first idle else idle in
  if stop - from > need then begin
    (* The part after the instance keeps the stop: rebinding it replaces
       the interval in place. *)
    let finish = from + need in
    Obs.incr c_splits;
    (keep_before (M.add stop finish idle), (from, finish) :: pieces, finish)
  end
  else begin
    if first < from then Obs.incr c_splits else Obs.incr c_removed;
    let idle = keep_before (M.remove stop idle) and pieces = (from, stop) :: pieces in
    if stop - from = need then (idle, pieces, stop)
    else take idle stop (need - (stop - from)) pieces
  end

(* Slope 1 on each piece, flat between. *)
let service_of pieces =
  let b = Pl.Builder.create ((2 * List.length pieces) + 1) in
  Pl.Builder.push b 0 0;
  ignore
    (List.fold_left
       (fun acc (from, until) ->
         Pl.Builder.push b from acc;
         let acc = acc + (until - from) in
         Pl.Builder.push b until acc;
         acc)
       0 pieces);
  Pl.Builder.to_pl ~tail:0 b

let consume idle ~tau ~arrivals ~horizon =
  if tau < 1 then invalid_arg "Idle.consume: tau must be >= 1";
  let idle = ref idle and pieces = ref [] and finish = ref 0 in
  let departed = ref [] and count = ref 0 in
  let release upto at =
    while !count < upto do
      incr count;
      let rest, ps, f = take !idle (max at !finish) tau !pieces in
      idle := rest;
      pieces := ps;
      finish := f;
      if f <= horizon then departed := (f, !count) :: !departed
    done
  in
  release (Step.init_value arrivals) 0;
  Array.iter (fun (t, v) -> release v t) (Step.jumps arrivals);
  let pieces = List.rev !pieces in
  {
    rest = !idle;
    service = lazy (service_of pieces);
    departures = Step.of_samples (List.rev !departed);
  }

let busy idle =
  let b = Pl.Builder.create ((2 * M.cardinal idle) + 1) in
  Pl.Builder.push b 0 0;
  (* Busy time grows at slope 1 between intervals and stays flat on them;
     the last, unbounded interval is the flat tail. *)
  let idle_before = ref 0 in
  M.iter
    (fun stop first ->
      let used = first - !idle_before in
      Pl.Builder.push b first used;
      if stop < max_int then begin
        Pl.Builder.push b stop used;
        idle_before := !idle_before + (stop - first)
      end)
    idle;
  Pl.Builder.to_pl ~tail:0 b
