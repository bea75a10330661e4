(* Piecewise-linear integer grid functions.

   Representation: knots (xs.(i), ys.(i)) with xs strictly increasing and
   xs.(0) = 0; linear between consecutive knots; slope [tail] after the last
   knot.  Invariant: every segment slope is an integer, so values at integer
   times are integers.  The represented object is the restriction of the
   polyline to integer times; operations that would create fractional kinks
   insert two knots one tick apart instead (grid-exact).

   Normal form: no interior knot joins two segments of equal slope and the
   last knot is not redundant with the tail, so extensional equality on the
   grid coincides with structural equality. *)

(* Ints only: the polymorphic versions call the runtime's generic compare. *)
open struct [@@@warning "-32"] let min = Int.min let max = Int.max let compare = Int.compare external ( < ) : int -> int -> bool = "%lessthan" external ( <= ) : int -> int -> bool = "%lessequal" external ( > ) : int -> int -> bool = "%greaterthan" external ( >= ) : int -> int -> bool = "%greaterequal" end

type t = { xs : int array; ys : int array; tail : int }

module Obs = Rta_obs

let c_add = Obs.counter "pl.add.calls"
let c_sub = Obs.counter "pl.sub.calls"
let c_max2 = Obs.counter "pl.max2.calls"
let h_out_knots = Obs.histogram "pl.out.knots"

let segment_slope f i =
  let n = Array.length f.xs in
  if i = n - 1 then f.tail
  else (f.ys.(i + 1) - f.ys.(i)) / (f.xs.(i + 1) - f.xs.(i))

let invariant f =
  let fail fmt = Format.kasprintf invalid_arg ("Pl.invariant: " ^^ fmt) in
  let n = Array.length f.xs in
  if n < 1 then fail "no knots";
  if f.xs.(0) <> 0 then fail "first knot at time %d, not 0" f.xs.(0);
  if Array.length f.ys <> n then
    fail "%d knot times but %d values" n (Array.length f.ys);
  for i = 0 to n - 2 do
    let dx = f.xs.(i + 1) - f.xs.(i) and dy = f.ys.(i + 1) - f.ys.(i) in
    if dx <= 0 then
      fail "knot times not strictly increasing at index %d (%d <= %d)" (i + 1)
        f.xs.(i + 1) f.xs.(i);
    if dy mod dx <> 0 then
      fail "non-integer slope %d/%d on segment starting at index %d" dy dx i
  done

(* Rebuild in normal form from the first [len] raw knots (strictly
   increasing times starting at 0, integral slopes assumed), without
   copying the raw arrays: the hot-path kernels pass their oversized
   buffers as they are. *)
let normalize ~tail ?len xs ys =
  let n = Option.value len ~default:(Array.length xs) in
  let slope i =
    if i = n - 1 then tail else (ys.(i + 1) - ys.(i)) / (xs.(i + 1) - xs.(i))
  in
  (* A knot is kept iff it is the first one or the slope changes there. *)
  let keep = Bytes.make n '\001' in
  let prev_slope = ref (slope 0) and count = ref 1 in
  for i = 1 to n - 1 do
    let s = slope i in
    if s = !prev_slope then Bytes.set keep i '\000'
    else begin
      prev_slope := s;
      incr count
    end
  done;
  let xs' = Array.make !count 0 and ys' = Array.make !count 0 in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.get keep i = '\001' then begin
      xs'.(!j) <- xs.(i);
      ys'.(!j) <- ys.(i);
      incr j
    end
  done;
  let f = { xs = xs'; ys = ys'; tail } in
  invariant f;
  f

(* Preallocated knot buffer for the hot-path kernels: pushes are amortized
   O(1), a push at the current last time overwrites it (the same dedup the
   old list buffers did with their head-replace match), and finishing runs
   [normalize] directly on the backing arrays — no intermediate list, no
   [of_knots] re-validation pass. *)
module Builder = struct
  type builder = {
    mutable bxs : int array;
    mutable bys : int array;
    mutable len : int;
  }

  let create capacity =
    let capacity = max capacity 4 in
    { bxs = Array.make capacity 0; bys = Array.make capacity 0; len = 0 }

  let grow b =
    let cap = 2 * Array.length b.bxs in
    let xs = Array.make cap 0 and ys = Array.make cap 0 in
    Array.blit b.bxs 0 xs 0 b.len;
    Array.blit b.bys 0 ys 0 b.len;
    b.bxs <- xs;
    b.bys <- ys

  let push b x y =
    if b.len > 0 && b.bxs.(b.len - 1) = x then b.bys.(b.len - 1) <- y
    else begin
      if b.len > 0 && b.bxs.(b.len - 1) > x then
        invalid_arg "Pl.Builder.push: time went backwards";
      if b.len = Array.length b.bxs then grow b;
      b.bxs.(b.len) <- x;
      b.bys.(b.len) <- y;
      b.len <- b.len + 1
    end

  let length b = b.len

  let to_pl ~tail b =
    if b.len = 0 then invalid_arg "Pl.Builder.to_pl: no knots";
    normalize ~tail ~len:b.len b.bxs b.bys
end

let const v = { xs = [| 0 |]; ys = [| v |]; tail = 0 }
let zero = const 0
let linear ~slope ~offset = { xs = [| 0 |]; ys = [| offset |]; tail = slope }
let identity = linear ~slope:1 ~offset:0

let of_knots ~tail l =
  match l with
  | [] -> invalid_arg "Pl.of_knots: empty knot list"
  | (x0, _) :: _ ->
      if x0 <> 0 then invalid_arg "Pl.of_knots: first knot must be at time 0";
      let n = List.length l in
      let xs = Array.make n 0 and ys = Array.make n 0 in
      List.iteri
        (fun i (x, y) ->
          xs.(i) <- x;
          ys.(i) <- y)
        l;
      for i = 0 to n - 2 do
        let dx = xs.(i + 1) - xs.(i) in
        if dx <= 0 then invalid_arg "Pl.of_knots: times not strictly increasing";
        if (ys.(i + 1) - ys.(i)) mod dx <> 0 then
          invalid_arg "Pl.of_knots: non-integer segment slope"
      done;
      normalize ~tail xs ys

let of_step step =
  let js = Step.jumps step in
  let v0 = Step.eval step 0 in
  (* Exactly two knots per positive jump plus the origin; preallocating that
     bound makes the conversion a single pass with no growth or list churn. *)
  let b = Builder.create ((2 * Array.length js) + 1) in
  Builder.push b 0 v0;
  let prev = ref v0 in
  Array.iter
    (fun (t, v) ->
      if t > 0 then begin
        Builder.push b (t - 1) !prev;
        Builder.push b t v;
        prev := v
      end)
    js;
  Builder.to_pl ~tail:0 b

(* Largest index i with xs.(i) <= t. *)
let index_at f t =
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if f.xs.(mid) <= t then search mid hi else search lo (mid - 1)
  in
  search 0 (Array.length f.xs - 1)

let eval f t =
  if t < 0 then invalid_arg "Pl.eval: negative time";
  let i = index_at f t in
  f.ys.(i) + (segment_slope f i * (t - f.xs.(i)))

(* The largest index j >= i with xs.(j) <= t, given xs.(i) <= t: steps 1,
   2, 4, ... then a binary search, so skipping k knots reads O(log k) of
   them. *)
let gallop (xs : int array) i (t : int) =
  let n = Array.length xs in
  (* Invariant: xs.(lo) <= t, and xs.(hi) > t unless hi = n. *)
  let lo = ref i and step = ref 1 in
  while !lo + !step < n && xs.(!lo + !step) <= t do
    lo := !lo + !step;
    step := 2 * !step
  done;
  let hi = ref (min n (!lo + !step)) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if xs.(mid) <= t then lo := mid else hi := mid
  done;
  !lo

(* Sequential evaluation: when query times are non-decreasing (event sweeps,
   merged-grid walks) the segment index only ever moves forward, so each
   query is amortized O(1) instead of a fresh O(log n) binary search.  The
   index gallops, so a query that skips k knots reads O(log k) of them: a
   step to the next knot costs the two reads a linear walk makes, and a
   long skip is one search. *)
module Cursor = struct
  type pl = t
  type t = { f : pl; mutable i : int; mutable last : int }

  let make f = { f; i = 0; last = 0 }

  let advance c t =
    if t < c.last then
      invalid_arg "Pl.Cursor: query times must be non-decreasing";
    c.last <- t;
    let xs = c.f.xs in
    if c.i + 1 < Array.length xs && xs.(c.i + 1) <= t then
      c.i <- gallop xs (c.i + 1) t

  let eval c t =
    if t < 0 then invalid_arg "Pl.Cursor.eval: negative time";
    advance c t;
    c.f.ys.(c.i) + (segment_slope c.f c.i * (t - c.f.xs.(c.i)))

  let slope c t =
    if t < 0 then invalid_arg "Pl.Cursor.slope: negative time";
    advance c t;
    segment_slope c.f c.i

  let next_knot c t =
    if t < 0 then invalid_arg "Pl.Cursor.next_knot: negative time";
    advance c t;
    if c.i + 1 < Array.length c.f.xs then c.f.xs.(c.i + 1) else max_int
end

(* A forward reader of a sum of curves that never builds the sum.  Each
   member keeps its segment index, the line [icpt + slope * t] it follows
   there and the time of its next knot ([max_int] past its last); the
   reader keeps the sums of those lines, so the sum on the current span
   is one line, and the soonest next knot of all.  A query at [t] reads
   nothing more while [t] is before that knot; otherwise one pass over the
   members moves each one whose next knot is at or before [t], by one
   galloping search, and finds the new soonest knot. *)
module Merged = struct
  type t = {
    xss : int array array;  (* the members' knots *)
    yss : int array array;
    tails : int array;
    seg : int array;  (* each member's segment *)
    slopes : int array;  (* each member's line on it *)
    icpts : int array;
    next : int array;  (* each member's next knot time *)
    mutable due : int;  (* the soonest of them *)
    mutable slope : int;  (* the sums of the members' lines *)
    mutable icpt : int;
    mutable last : int;
  }

  let c_crossings = Obs.counter "pl.merged.crossings"

  (* Put member [m] on segment [i].  Service curves rise at slope 0 or 1,
     which need no division. *)
  let enter r m i =
    let xs = r.xss.(m) and ys = r.yss.(m) in
    let x = xs.(i) and y = ys.(i) in
    let last = i + 1 = Array.length xs in
    let next = if last then max_int else xs.(i + 1) in
    let s =
      if last then r.tails.(m)
      else
        let dx = next - x and dy = ys.(i + 1) - y in
        if dy = 0 then 0 else if dy = dx then 1 else dy / dx
    in
    let c = y - (s * x) in
    r.slope <- r.slope + s - r.slopes.(m);
    r.icpt <- r.icpt + c - r.icpts.(m);
    r.seg.(m) <- i;
    r.slopes.(m) <- s;
    r.icpts.(m) <- c;
    r.next.(m) <- next

  let make members =
    let fs = Array.of_list members in
    let n = Array.length fs in
    let r =
      {
        xss = Array.map (fun f -> f.xs) fs;
        yss = Array.map (fun f -> f.ys) fs;
        tails = Array.map (fun f -> f.tail) fs;
        seg = Array.make n 0;
        slopes = Array.make n 0;
        icpts = Array.make n 0;
        next = Array.make n 0;
        due = max_int;
        slope = 0;
        icpt = 0;
        last = 0;
      }
    in
    for m = 0 to n - 1 do
      enter r m 0;
      r.due <- min r.due r.next.(m)
    done;
    r

  let advance r t =
    if t < 0 then invalid_arg "Pl.Merged: negative time";
    if t < r.last then invalid_arg "Pl.Merged: query times must be non-decreasing";
    r.last <- t;
    if r.due <= t then begin
      let moved = ref 0 and due = ref max_int in
      for m = 0 to Array.length r.next - 1 do
        if r.next.(m) <= t then begin
          enter r m (gallop r.xss.(m) (r.seg.(m) + 1) t);
          incr moved
        end;
        due := min !due r.next.(m)
      done;
      r.due <- !due;
      Obs.add c_crossings !moved
    end

  let eval r t =
    advance r t;
    r.icpt + (r.slope * t)

  let slope r t =
    advance r t;
    r.slope

  let next_knot r t =
    advance r t;
    r.due
end

let knots f = Array.init (Array.length f.xs) (fun i -> (f.xs.(i), f.ys.(i)))
let tail_slope f = f.tail
let knot_count f = Array.length f.xs

let fold_slopes op init f =
  let acc = ref init in
  for i = 0 to Array.length f.xs - 1 do
    acc := op !acc (segment_slope f i)
  done;
  !acc

let min_slope f = fold_slopes min max_int f
let max_slope f = fold_slopes max min_int f
let is_nondecreasing f = min_slope f >= 0

(* A checked curve is its own inverse handle: the monotonicity scan runs
   once at [make], and each query binary-searches [ys] for the first knot
   reaching the target.  The probe count (reads of [ys] by the search) is
   reported once per query, not per step. *)
module Inverse = struct
  type pl = t
  type inv = pl

  let c_handles = Obs.counter "pl.inverse.handles"
  let c_queries = Obs.counter "pl.inverse.queries"
  let c_probes = Obs.counter "pl.inverse.probes"
  let g_knots = Obs.gauge "pl.inverse.knots.max"

  let make f =
    if not (is_nondecreasing f) then
      invalid_arg "Pl.Inverse.make: function is not non-decreasing";
    Obs.incr c_handles;
    Obs.max_gauge g_knots (Array.length f.xs);
    f

  (* The ceiling division solves [y + slope * d >= v] for the least
     [d >= 0] on a rising segment; a flat tail never reaches [v]. *)
  let solve v x y slope =
    if slope <= 0 then None else Some (x + ((v - y + slope - 1) / slope))

  let geq f v =
    Obs.incr c_queries;
    let n = Array.length f.xs in
    if f.ys.(0) >= v then begin
      Obs.add c_probes 1;
      Some 0
    end
    else begin
      (* Invariant: ys.(lo) < v, and ys.(hi) >= v unless hi = n. *)
      let lo = ref 0 and hi = ref n and probes = ref 1 in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        incr probes;
        if f.ys.(mid) >= v then hi := mid else lo := mid
      done;
      Obs.add c_probes !probes;
      solve v f.xs.(!lo) f.ys.(!lo) (segment_slope f !lo)
    end

  (* A forward reader: [i] is the last knot whose value is below the
     previous target, so a non-decreasing target only walks on from it. *)
  type cursor = { f : pl; mutable i : int }

  let c_seeks = Obs.counter "pl.inverse.seeks"
  let c_steps = Obs.counter "pl.inverse.steps"
  let cursor f = { f; i = 0 }

  let seek c v =
    Obs.incr c_seeks;
    let f = c.f in
    if f.ys.(0) >= v then Some 0
    else begin
      let n = Array.length f.xs and i0 = c.i in
      while c.i + 1 < n && f.ys.(c.i + 1) < v do
        c.i <- c.i + 1
      done;
      Obs.add c_steps (c.i - i0);
      solve v f.xs.(c.i) f.ys.(c.i) (segment_slope f c.i)
    end
end

(* Merged, deduplicated knot times of two functions: the first [k] entries
   of the returned array, for the returned [k]. *)
let merge_knot_times f g =
  let nf = Array.length f.xs and ng = Array.length g.xs in
  let out = Array.make (nf + ng) 0 in
  let rec go i j k =
    if i >= nf && j >= ng then k
    else
      let t =
        if i >= nf then g.xs.(j)
        else if j >= ng then f.xs.(i)
        else min f.xs.(i) g.xs.(j)
      in
      let i' = if i < nf && f.xs.(i) = t then i + 1 else i in
      let j' = if j < ng && g.xs.(j) = t then j + 1 else j in
      out.(k) <- t;
      go i' j' (k + 1)
  in
  (out, go 0 0 0)

(* Merged times are ascending, so two cursors replace per-time binary
   searches. *)
let lift2 op f g =
  let xs, len = merge_knot_times f g in
  let cf = Cursor.make f and cg = Cursor.make g in
  let ys = Array.make len 0 in
  for i = 0 to len - 1 do
    ys.(i) <- op (Cursor.eval cf xs.(i)) (Cursor.eval cg xs.(i))
  done;
  normalize ~tail:(op f.tail g.tail) ~len xs ys

let observed c r =
  Obs.incr c;
  Obs.observe_int h_out_knots (Array.length r.xs);
  r

let add f g = observed c_add (lift2 ( + ) f g)
let sub f g = observed c_sub (lift2 ( - ) f g)
(* Pairwise rounds, as [Step.sum]: every knot takes part in O(log n)
   additions instead of up to n in a left fold, and exact integer sums in
   normal form make the regrouping invisible. *)
let sum l =
  let rec pairs = function
    | f :: g :: rest -> add f g :: pairs rest
    | rest -> rest
  in
  let rec rounds = function [] -> zero | [ f ] -> f | l -> rounds (pairs l) in
  rounds l

(* Grid-exact pointwise transform machinery: apply [op] to the values of [f]
   (and [g]) at a set of times that includes, for every segment on which the
   transform is non-linear, the pair of integer times straddling each
   real-valued kink.  For max/min against another polyline the kinks are
   sign changes of the difference; we conservatively insert straddle knots
   around every integer-floor of a crossing. *)

let crossing_floors d0 ds =
  (* Zero crossing of the line d0 + ds * u (u >= 0, integer-valued d0, ds):
     returns the floor of the crossing if one exists at u > 0. *)
  if ds = 0 || d0 = 0 || d0 * ds > 0 then None
  else
    let num = -d0 in
    Some (num / ds) (* both num and ds share sign; integer division floors
                       toward zero which equals floor here since signs agree *)

(* The candidate times and values, produced in one ascending sweep: base
   times and straddle pairs are generated in order (straddles fall strictly
   inside their interval), so a Builder collects them and two cursors
   replace every binary search. *)
let pointwise2 op f g =
  let base, n = merge_knot_times f g in
  let cf = Cursor.make f and cg = Cursor.make g in
  let b = Builder.create ((3 * n) + 2) in
  for i = 0 to n - 1 do
    let x = base.(i) in
    let x_end = if i = n - 1 then None else Some base.(i + 1) in
    let yf = Cursor.eval cf x and yg = Cursor.eval cg x in
    let sf = Cursor.slope cf x and sg = Cursor.slope cg x in
    Builder.push b x (op yf yg);
    match crossing_floors (yf - yg) (sf - sg) with
    | None -> ()
    | Some du ->
        let t1 = x + du and t2 = x + du + 1 in
        let inside t = t > x && (match x_end with None -> true | Some e -> t < e) in
        if inside t1 then
          Builder.push b t1 (op (Cursor.eval cf t1) (Cursor.eval cg t1));
        if inside t2 then
          Builder.push b t2 (op (Cursor.eval cf t2) (Cursor.eval cg t2))
  done;
  Builder.to_pl ~tail:(op f.tail g.tail) b

let max2 f g = observed c_max2 (pointwise2 max f g)
let pos f = max2 f zero

let prefix_max f =
  (* Running maximum.  At a segment start the current maximum always
     dominates (continuity), so work only happens on rising segments that
     cross it: emit the straddle pair and follow f to the segment end. *)
  let n = Array.length f.xs in
  let b = Builder.create ((3 * n) + 1) in
  let push = Builder.push b in
  let cur = ref f.ys.(0) in
  push 0 !cur;
  let tail = ref 0 in
  let segment i =
    let x0 = f.xs.(i) and y0 = f.ys.(i) in
    let s = segment_slope f i in
    let bound = if i = n - 1 then None else Some f.xs.(i + 1) in
    if s > 0 then begin
      let t_cross = x0 + ((!cur - y0) / s) + 1 in
      let f_at t = y0 + (s * (t - x0)) in
      let inside = match bound with None -> true | Some e -> t_cross <= e in
      if inside && f_at t_cross > !cur then begin
        push (t_cross - 1) !cur;
        push t_cross (f_at t_cross);
        match bound with
        | Some e ->
            push e (f_at e);
            cur := f_at e
        | None -> tail := s
      end
      else begin
        (* Entirely below the running max; or touches it exactly at the end:
           the max is unchanged (values equal). *)
        match bound with
        | Some e -> cur := max !cur (f_at e)
        | None -> ()
      end
    end
  in
  for i = 0 to n - 1 do
    segment i
  done;
  Builder.to_pl ~tail:!tail b

let splice ~at before after =
  if at < 0 then invalid_arg "Pl.splice: negative splice point";
  let before_knots =
    Array.to_list (knots before) |> List.filter (fun (x, _) -> x < at)
  in
  let after_knots =
    Array.to_list (knots after) |> List.filter (fun (x, _) -> x > at + 1)
  in
  let mid = [ (at, eval before at); (at + 1, eval after (at + 1)) ] in
  let head =
    match before_knots with
    | [] when at = 0 -> []
    | [] -> [ (0, eval before 0) ]
    | l -> l
  in
  of_knots ~tail:after.tail (head @ mid @ after_knots)

let shift_right f d =
  if d < 0 then invalid_arg "Pl.shift_right: negative shift";
  if d = 0 then f
  else
    normalize ~tail:f.tail
      (Array.append [| 0 |] (Array.map (fun x -> x + d) f.xs))
      (Array.append [| f.ys.(0) |] f.ys)

let truncate_at f h =
  if h < 0 then invalid_arg "Pl.truncate_at: negative horizon";
  if h = 0 then const (eval f 0)
  else
    (* The knots before [h], then [h] itself. *)
    let k = index_at f (h - 1) + 1 in
    normalize ~tail:0
      (Array.append (Array.sub f.xs 0 k) [| h |])
      (Array.append (Array.sub f.ys 0 k) [| eval f h |])

let to_step_floor_div ?cap s tau =
  if tau < 1 then invalid_arg "Pl.to_step_floor_div: divisor must be >= 1";
  if not (is_nondecreasing s) then
    invalid_arg "Pl.to_step_floor_div: function is not non-decreasing";
  if s.tail > 0 then
    invalid_arg "Pl.to_step_floor_div: positive tail slope; truncate_at first";
  let limit =
    match cap with
    | None -> max_int
    | Some c ->
        if c < 0 then invalid_arg "Pl.to_step_floor_div: cap must be >= 0";
        c
  in
  let n = Array.length s.xs in
  let samples = ref [] in
  let saturated = ref false in
  (* Values are non-decreasing, so once the cap is reached every later
     sample would clamp to it too: emit the clamped sample and stop. *)
  let push t v =
    if not !saturated then begin
      samples := (t, min v limit) :: !samples;
      if v >= limit then saturated := true
    end
  in
  push 0 (s.ys.(0) / tau);
  (* Within each rising segment, emit the first integer time at which each
     successive multiple of tau is reached. *)
  let emit_segment i =
    let x = s.xs.(i) and y = s.ys.(i) in
    let slope = segment_slope s i in
    let x_end = if i = n - 1 then max_int else s.xs.(i + 1) in
    push x (y / tau);
    if slope > 0 then begin
      let rec next_multiple v =
        let target = v * tau in
        let t = x + ((target - y + slope - 1) / slope) in
        if t < x_end && t > x && not !saturated then begin
          let reached = (y + (slope * (t - x))) / tau in
          push t reached;
          next_multiple (reached + 1)
        end
      in
      next_multiple ((y / tau) + 1)
    end
  in
  let i = ref 0 in
  while !i < n && not !saturated do
    emit_segment !i;
    incr i
  done;
  Step.of_samples ~init:(min (s.ys.(0) / tau) limit) (List.rev !samples)

(* The arrays in a monomorphic loop, not with the generic structural [=]. *)
let equal f g =
  let n = Array.length f.xs in
  let rec from i = i = n || (f.xs.(i) = g.xs.(i) && f.ys.(i) = g.ys.(i) && from (i + 1)) in
  f.tail = g.tail && Array.length g.xs = n && from 0

let dominates f g =
  let xs, len = merge_knot_times f g in
  let rec from i = i >= len || (eval f xs.(i) >= eval g xs.(i) && from (i + 1)) in
  from 0 && f.tail >= g.tail

let pp ppf f =
  Format.fprintf ppf "@[<hov 2>pl{";
  Array.iteri
    (fun i x ->
      Format.fprintf ppf "%s(%d,%d)" (if i = 0 then "" else "; ") x f.ys.(i))
    f.xs;
  Format.fprintf ppf "; tail=%d}@]" f.tail
