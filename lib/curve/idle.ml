(* Maximal idle intervals [first, stop), keyed by [stop] and holding
   [first].  Intervals are disjoint and separated by busy time, so stops
   are ordered like starts, and the first interval with [stop > t] is the
   one containing [t] or, if [t] is busy, the next one: a single
   [find_first] locates where an instance can start.  The last interval
   is unbounded ([stop = max_int]) and is never removed whole, since no
   instance needs infinite time. *)

(* Ints only: the polymorphic versions call the runtime's generic compare. *)
open struct [@@@warning "-32"] let min = Int.min let max = Int.max let compare = Int.compare external ( < ) : int -> int -> bool = "%lessthan" external ( <= ) : int -> int -> bool = "%lessequal" external ( > ) : int -> int -> bool = "%greaterthan" external ( >= ) : int -> int -> bool = "%greaterequal" end

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

(* The pieces of idle time a resident takes, in time order, as a flat
   [from0; until0; from1; until1; ...] buffer; a piece that starts where
   the last one ended extends it. *)
type pieces = { mutable buf : int array; mutable len : int }

let take_piece p from until =
  if p.len > 0 && p.buf.(p.len - 1) = from then p.buf.(p.len - 1) <- until
  else begin
    if p.len = Array.length p.buf then
      p.buf <- Array.append p.buf (Array.make (Array.length p.buf) 0);
    p.buf.(p.len) <- from;
    p.buf.(p.len + 1) <- until;
    p.len <- p.len + 2
  end

(* Take [need] units from [start] on, recording the pieces taken: returns
   the map left and the completion time. *)
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
    take_piece pieces from finish;
    (keep_before (M.add stop finish idle), finish)
  end
  else begin
    if first < from then Obs.incr c_splits else Obs.incr c_removed;
    take_piece pieces from stop;
    let idle = keep_before (M.remove stop idle) in
    if stop - from = need then (idle, stop)
    else take idle stop (need - (stop - from)) pieces
  end

(* Slope 1 on each piece, flat between. *)
let service_of pieces =
  let b = Pl.Builder.create (Array.length pieces + 1) in
  Pl.Builder.push b 0 0;
  let acc = ref 0 in
  for k = 0 to (Array.length pieces / 2) - 1 do
    let from = pieces.(2 * k) and until = pieces.((2 * k) + 1) in
    Pl.Builder.push b from !acc;
    acc := !acc + (until - from);
    Pl.Builder.push b until !acc
  done;
  Pl.Builder.to_pl ~tail:0 b

let consume idle ~tau ~arrivals ~horizon =
  if tau < 1 then invalid_arg "Idle.consume: tau must be >= 1";
  let count = Step.final_value arrivals in
  let idle = ref idle and finish = ref 0 and served = ref 0 in
  let pieces = { buf = Array.make (max 4 (2 * count)) 0; len = 0 } in
  let departures = Step.Builder.create count in
  let release upto at =
    while !served < upto do
      incr served;
      let rest, f = take !idle (max at !finish) tau pieces in
      idle := rest;
      finish := f;
      if f <= horizon then Step.Builder.push departures f !served
    done
  in
  release (Step.init_value arrivals) 0;
  for i = 0 to Step.jump_count arrivals - 1 do
    release (Step.jump_value arrivals i) (Step.jump_time arrivals i)
  done;
  (* Only the taken pieces outlive the call, until the service is forced. *)
  let pieces = Array.sub pieces.buf 0 pieces.len in
  {
    rest = !idle;
    service = lazy (service_of pieces);
    departures = Step.Builder.to_step departures;
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
