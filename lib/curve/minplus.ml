(* Single-pass walks for the paper's min-plus expressions.  See
   minplus.mli for semantics. *)

(* Ints only: the polymorphic versions call the runtime's generic compare. *)
open struct [@@@warning "-32"] let min = Int.min let max = Int.max let compare = Int.compare external ( < ) : int -> int -> bool = "%lessthan" external ( <= ) : int -> int -> bool = "%lessequal" external ( > ) : int -> int -> bool = "%greaterthan" external ( >= ) : int -> int -> bool = "%greaterequal" end

type mode = [ `Left | `Right ]

module Obs = Rta_obs

(* Theorem 7's utilization U(t) = t + min over s <= t of (G*(s) - s) as
   one busy-period walk.  U(t + 1) = min (U(t) + 1, G*(t + 1)): a
   unit-rate server draining the workload, so U rises one per tick up to
   [busy_end] and is flat after it, at G*'s level.  A jump of J in G at
   time j reaches G* at its effect time e (j + 1 for the left limit, j
   for the value) and moves [busy_end] to max busy_end (e - 1) + J; a
   jump at time 0 in [`Right] mode is already in U(0) = G(0). *)
let c_utilization = Obs.counter "minplus.utilization.calls"

let utilization ~mode w =
  Obs.incr c_utilization;
  let n = Step.jump_count w in
  let first, level0, lag =
    match mode with
    | `Left -> (0, Step.init_value w, 0)
    | `Right ->
        if n > 0 && Step.jump_time w 0 = 0 then (1, Step.jump_value w 0, -1)
        else (0, Step.init_value w, -1)
  in
  let b = Pl.Builder.create ((2 * (n - first)) + 2) in
  Pl.Builder.push b 0 level0;
  let busy_end = ref 0 and level = ref level0 in
  for i = first to n - 1 do
    (* The tick before the jump's effect time, where its rise starts. *)
    let start = Step.jump_time w i + lag in
    let v = Step.jump_value w i in
    if start >= !busy_end then begin
      (* Idle until then: the last rise ends and a new one starts. *)
      Pl.Builder.push b !busy_end !level;
      Pl.Builder.push b start !level;
      busy_end := start
    end;
    busy_end := !busy_end + (v - !level);
    level := v
  done;
  Pl.Builder.push b !busy_end !level;
  Pl.Builder.to_pl ~tail:0 b

(* Theorem 2's departures min (floor (S_h / tau)) arr, S_h being S cut at
   the horizon, read instance by instance: the k-th departs once S_h
   reaches k tau and the k-th has arrived, at max (S^-1 (k tau), arr^-1 k),
   and S_h never reaches k tau past the horizon.  Targets rise with k, so
   one forward reader walks S once. *)
let c_departures = Obs.counter "minplus.departures.calls"

let departures ~horizon ~tau ~service ~arrivals =
  if tau < 1 then invalid_arg "Minplus.departures: tau must be >= 1";
  Obs.incr c_departures;
  let reader = Pl.Inverse.cursor (Pl.Inverse.make service) in
  let count = Step.final_value arrivals and arr_init = Step.init_value arrivals in
  let init = min (Pl.eval service 0 / tau) arr_init in
  let b = Step.Builder.create ~init (count - init) in
  let rec place k j =
    if k <= count then
      match Pl.Inverse.seek reader (k * tau) with
      | Some s when s <= horizon ->
          (* [j] is the arrival jump that brings instance k. *)
          let j = if k <= arr_init then j else jump_reaching arrivals k j in
          let a = if k <= arr_init then 0 else Step.jump_time arrivals j in
          Step.Builder.push b (max s a) k;
          place (k + 1) j
      | Some _ | None -> ()
  and jump_reaching arr k j =
    if Step.jump_value arr j >= k then j else jump_reaching arr k (j + 1)
  in
  place (init + 1) 0;
  Step.Builder.to_step b

(* Theorem 5's level-k lower bound in one walk over the jumps of C and W.
   L(t) = U(t - b) - C(t), where U(u) = u + min over s <= u of
   (W(s-) - s) rises by one on every tick the level is busy and stays flat
   when it idles; ticks before b count as busy (U(u) for u < 0 continues
   the line back from U(0) = W(0-)).  The backlog of the level drains one
   tick at a time, so the level is busy exactly before [busy_end], which a
   W jump of J at u pushes to max busy_end (u + b) + J.  Between events L
   is therefore a line of slope 1 up to [busy_end] and flat after it, and
   at a C jump it drops.  The running maximum follows the line where the
   line passes it; every event is O(1) and only its rises are pushed. *)
let c_lo_events = Obs.counter "sp.lo.events"

let sp_lower ~blocking ~hp_work:c ~level_work:w =
  if blocking < 0 then invalid_arg "Minplus.sp_lower: negative blocking";
  let nc = Step.jump_count c and nw = Step.jump_count w in
  Obs.add c_lo_events (nc + nw);
  let b = Pl.Builder.create 16 in
  (* The next C and W events, at [tc] and [tw] ([max_int] when none). *)
  let ic = ref 0 and iw = ref 0 in
  let tc = ref (if nc > 0 then Step.jump_time c 0 else max_int) in
  let tw = ref (if nw > 0 then Step.jump_time w 0 + blocking else max_int) in
  let c_prev = ref (Step.init_value c) and w_prev = ref (Step.init_value w) in
  (* [l] is L(t) and [r] is R(t), or [min_int] before time 0's events. *)
  let t = ref 0 and l = ref (Step.init_value w - blocking - Step.init_value c) in
  let r = ref min_int and busy_end = ref blocking in
  let next = ref 0 in
  while !next < max_int do
    let time = !next in
    if !r > min_int then begin
      (* Follow L from [!t] to [time]: the line rises until [busy_end];
         its last point counted is the tick before [time] when C drops
         there, since L(time) is taken after the drop. *)
      let top = min time !busy_end in
      if top > !t then begin
        let last = if top = !tc then top - 1 else top in
        let v = !l + (last - !t) in
        if v > !r then begin
          Pl.Builder.push b (!t + !r - !l) !r;
          Pl.Builder.push b last v;
          r := v
        end;
        l := !l + (top - !t)
      end;
      t := time
    end;
    (* The jumps at [time]: C's lowers L from [time] on, and W's (at
       [time - blocking]) extends the busy stretch. *)
    if !tc = time then begin
      let v = Step.jump_value c !ic in
      l := !l - (v - !c_prev);
      c_prev := v;
      incr ic;
      tc := if !ic < nc then Step.jump_time c !ic else max_int
    end;
    if !tw = time then begin
      let v = Step.jump_value w !iw in
      busy_end := max !busy_end time + (v - !w_prev);
      w_prev := v;
      incr iw;
      tw := if !iw < nw then Step.jump_time w !iw + blocking else max_int
    end;
    if !r = min_int then begin
      r := max 0 !l;
      Pl.Builder.push b 0 !r
    end;
    next := min !tc !tw
  done;
  (* The last rise, to the end of the busy stretch. *)
  if !busy_end > !t && !l + (!busy_end - !t) > !r then begin
    Pl.Builder.push b (!t + !r - !l) !r;
    Pl.Builder.push b !busy_end (!l + (!busy_end - !t))
  end;
  Pl.Builder.to_pl ~tail:0 b

(* Theorem 6's upper bound R(t) = max (0, max over s <= t of f(s)) with
   f = min (t - P, V).  Since f <= V <= c, R can rise at t only while
   c(t) > R(t - 1): once R reaches the current level of c it stays put
   until c next jumps above it, so the walk jumps from one such window to
   the next, and reads nothing between.  P is a sum that is never built:
   one merged forward reader (Pl.Merged) crosses its members' knots, so a
   window start moves only the members with a knot since the last read.
   Inside a window it walks the merged knots of P's members and V; on
   each span both are lines, whose minimum on the grid is one line up to
   the floor of their crossing, a one-tick straddle, and the other line
   after it.  The running maximum follows every piece that rises past
   it. *)
let c_hi_windows = Obs.counter "sp.hi.windows"
let c_hi_reads = Obs.counter "sp.hi.reads"

let sp_upper ~hp_service ~own_work:c ~own_util:v =
  let cp = Pl.Merged.make hp_service and cv = Pl.Cursor.make v in
  let b = Pl.Builder.create 16 in
  let push = Pl.Builder.push b in
  let f x = min (x - Pl.Merged.eval cp x) (Pl.Cursor.eval cv x) in
  let r = ref (max 0 (f 0)) in
  push 0 !r;
  let tail = ref 0 in
  (* A linear piece from (x0, y0), already counted, to (x1, y1). *)
  let piece x0 y0 x1 y1 =
    if y1 > !r then begin
      let s = (y1 - y0) / (x1 - x0) in
      let xc = x0 + ((!r - y0) / s) + 1 in
      push (xc - 1) !r;
      push xc (y0 + (s * (xc - x0)));
      push x1 y1;
      r := y1
    end
  in
  (* The unbounded last piece, from (x0, y0) on with slope [s]. *)
  let last_piece x0 y0 s =
    if s > 0 then begin
      let xc = x0 + ((!r - y0) / s) + 1 in
      push (xc - 1) !r;
      push xc (y0 + (s * (xc - x0)));
      tail := s
    end
  in
  (* The span from [x] to the next knot of V or of a member of P. *)
  let span x =
    Obs.incr c_hi_reads;
    let a0 = x - Pl.Merged.eval cp x and sa = 1 - Pl.Merged.slope cp x in
    let v0 = Pl.Cursor.eval cv x and sv = Pl.Cursor.slope cv x in
    let x' = min (Pl.Merged.next_knot cp x) (Pl.Cursor.next_knot cv x) in
    let at y = min (a0 + (sa * (y - x))) (v0 + (sv * (y - x))) in
    let d0 = a0 - v0 and ds = sa - sv in
    let cuts =
      if ds = 0 || d0 = 0 || (d0 > 0) = (ds > 0) then []
      else
        let du = -d0 / ds in
        List.filter (fun y -> y > x && y < x') [ x + du; x + du + 1 ]
    in
    let x_last, y_last =
      List.fold_left
        (fun (x0, y0) x1 ->
          let y1 = at x1 in
          piece x0 y0 x1 y1;
          (x1, y1))
        (x, at x) cuts
    in
    if x' = max_int then last_piece x_last y_last (at (x_last + 1) - y_last)
    else piece x_last y_last x' (at x');
    x'
  in
  let nc = Step.jump_count c in
  let ic = ref 0 in
  (* [!r] is R(x) and f(x) <= R(x). *)
  let rec walk x =
    while !ic < nc && Step.jump_time c !ic <= x do
      incr ic
    done;
    let level = if !ic = 0 then Step.init_value c else Step.jump_value c (!ic - 1) in
    if level > !r then begin
      let x' = span x in
      if x' < max_int then walk x'
    end
    else begin
      while !ic < nc && Step.jump_value c !ic <= !r do
        incr ic
      done;
      if !ic < nc then begin
        let tau = Step.jump_time c !ic in
        Obs.incr c_hi_windows;
        let y = f tau in
        if y > !r then begin
          push (tau - 1) !r;
          push tau y;
          r := y
        end;
        walk tau
      end
    end
  in
  walk 0;
  Pl.Builder.to_pl ~tail:!tail b

let horizontal_deviation ~upper ~lower =
  (* Both curves are searched through checked inverse handles, which
     reject a decreasing curve: one monotonicity scan each, then
     O(log knots) per candidate. *)
  let lower_inv = Pl.Inverse.make lower in
  if Pl.max_slope lower > 1 then
    invalid_arg "Minplus.horizontal_deviation: lower must have unit rate";
  let upper_inv = Pl.Inverse.make upper in
  (* The supremum of t -> (inverse lower (upper t)) - t is attained either
     at a knot of upper or at a point where (inverse lower) jumps, i.e.
     where upper crosses a knot value of lower; checking both knot sets'
     induced candidates covers all of them.  Beyond both knot ranges the
     deviation is eventually monotone, governed by the tail rates. *)
  let upper_rate = Pl.tail_slope upper and lower_rate = Pl.tail_slope lower in
  if upper_rate > lower_rate then None
  else begin
    let candidate_ts =
      let from_upper = Array.to_list (Pl.knots upper) |> List.map fst in
      let from_lower =
        (* t where upper(t) first reaches a lower-knot value. *)
        Array.to_list (Pl.knots lower)
        |> List.filter_map (fun (_, v) -> Pl.Inverse.geq upper_inv v)
      in
      let tail_start =
        (* One representative beyond all knots: by then both curves run at
           their tail rates and the deviation is non-increasing (since
           upper_rate <= lower_rate), so earlier candidates dominate; still
           include it for the equal-rates plateau. *)
        let last f = Array.fold_left (fun acc (x, _) -> max acc x) 0 (Pl.knots f) in
        [ max (last upper) (last lower) + 1 ]
      in
      let raw = (0 :: from_upper) @ from_lower @ tail_start in
      (* The deviation is affine between consecutive candidates, so both
         endpoints of every span matter: include each candidate's
         predecessor tick. *)
      List.sort_uniq Int.compare
        (List.concat_map (fun t -> [ max 0 (t - 1); t ]) raw)
    in
    let deviation_at t =
      match Pl.Inverse.geq lower_inv (Pl.eval upper t) with
      | Some catch -> Some (max 0 (catch - t))
      | None -> None
    in
    List.fold_left
      (fun acc t ->
        match (acc, deviation_at t) with
        | Some m, Some d -> Some (max m d)
        | None, _ | _, None -> None)
      (Some 0) candidate_ts
  end
