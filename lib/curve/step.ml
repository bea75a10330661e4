(* Right-continuous non-decreasing integer step functions.

   Representation: [init] is the value on [0, ts.(0)); [vs.(i)] is the value
   on [ts.(i), ts.(i+1)).  Normal form: [ts] strictly increasing and
   non-negative, [vs] strictly increasing, [vs.(0) > init].  Under this
   normal form, extensional equality coincides with structural equality. *)

(* Ints only: the polymorphic versions call the runtime's generic compare. *)
open struct [@@@warning "-32"] let min = Int.min let max = Int.max let compare = Int.compare external ( < ) : int -> int -> bool = "%lessthan" external ( <= ) : int -> int -> bool = "%lessequal" external ( > ) : int -> int -> bool = "%greaterthan" external ( >= ) : int -> int -> bool = "%greaterequal" end

type t = { init : int; ts : int array; vs : int array }

let invariant f =
  let fail fmt = Format.kasprintf invalid_arg ("Step.invariant: " ^^ fmt) in
  let n = Array.length f.ts in
  if Array.length f.vs <> n then
    fail "%d jump times but %d values" n (Array.length f.vs);
  let check_knot i =
    if f.ts.(i) < 0 then fail "negative jump time %d" f.ts.(i);
    if i = 0 then begin
      if f.vs.(0) <= f.init then
        fail "first jump value %d does not exceed init %d" f.vs.(0) f.init
    end
    else begin
      if f.ts.(i) <= f.ts.(i - 1) then
        fail "jump times not strictly increasing at index %d (%d <= %d)" i
          f.ts.(i) f.ts.(i - 1);
      if f.vs.(i) <= f.vs.(i - 1) then
        fail "jump values not strictly increasing at index %d (%d <= %d)" i
          f.vs.(i) f.vs.(i - 1)
    end
  in
  for i = 0 to n - 1 do
    check_knot i
  done

let zero = { init = 0; ts = [||]; vs = [||] }

let const v =
  if v < 0 then invalid_arg "Step.const: negative value";
  { init = v; ts = [||]; vs = [||] }

(* Build from possibly redundant (time, value) pairs: collapse equal times
   (keeping the last value) and drop non-increasing values. *)
let normalize ~init pairs =
  let keep = ref [] in
  let last_v = ref init in
  let push (t, v) =
    if v > !last_v then begin
      (match !keep with
      | (t', _) :: rest when t' = t -> keep := (t, v) :: rest
      | _ -> keep := (t, v) :: !keep);
      last_v := v
    end
  in
  List.iter push pairs;
  let l = List.rev !keep in
  let n = List.length l in
  let ts = Array.make n 0 and vs = Array.make n 0 in
  List.iteri
    (fun i (t, v) ->
      ts.(i) <- t;
      vs.(i) <- v)
    l;
  let f = { init; ts; vs } in
  invariant f;
  f

(* An array buffer for steps built in one forward pass: the same dedup
   rules as [normalize], without the intermediate list. *)
module Builder = struct
  type step = t

  type t = {
    init : int;
    mutable bts : int array;
    mutable bvs : int array;
    mutable len : int;
  }

  let create ?(init = 0) capacity =
    let capacity = max capacity 4 in
    { init; bts = Array.make capacity 0; bvs = Array.make capacity 0; len = 0 }

  let push b t v =
    let last_v = if b.len = 0 then b.init else b.bvs.(b.len - 1) in
    if v > last_v then
      if b.len > 0 && b.bts.(b.len - 1) = t then b.bvs.(b.len - 1) <- v
      else begin
        if t < 0 then invalid_arg "Step.Builder.push: negative time";
        if b.len > 0 && b.bts.(b.len - 1) > t then
          invalid_arg "Step.Builder.push: time went backwards";
        if b.len = Array.length b.bts then begin
          let grow a = Array.append a (Array.make (Array.length a) 0) in
          b.bts <- grow b.bts;
          b.bvs <- grow b.bvs
        end;
        b.bts.(b.len) <- t;
        b.bvs.(b.len) <- v;
        b.len <- b.len + 1
      end

  let to_step b : step =
    let f = { init = b.init; ts = Array.sub b.bts 0 b.len; vs = Array.sub b.bvs 0 b.len } in
    invariant f;
    f
end

let of_arrival_times times =
  let n = Array.length times in
  let check i =
    if times.(i) < 0 then invalid_arg "Step.of_arrival_times: negative time";
    if i > 0 && times.(i) < times.(i - 1) then
      invalid_arg "Step.of_arrival_times: times not sorted"
  in
  for i = 0 to n - 1 do
    check i
  done;
  (* Count of instances released by each distinct time. *)
  let pairs = ref [] in
  for i = n - 1 downto 0 do
    match !pairs with
    | (t, _) :: _ when t = times.(i) -> ()
    | _ -> pairs := (times.(i), i + 1) :: !pairs
  done;
  normalize ~init:0 !pairs

let of_samples ?(init = 0) l =
  let check_time last (t, _) =
    if t < 0 then invalid_arg "Step.of_samples: negative time";
    if t < last then invalid_arg "Step.of_samples: times not sorted";
    t
  in
  ignore (List.fold_left check_time 0 l);
  normalize ~init l

(* Largest index i with ts.(i) <= t, or -1. *)
let index_at f t =
  let rec search lo hi =
    (* Invariant: ts.(lo) <= t (if lo >= 0) and ts.(hi+1) > t. *)
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if f.ts.(mid) <= t then search mid hi else search lo (mid - 1)
  in
  let n = Array.length f.ts in
  if n = 0 || f.ts.(0) > t then -1 else search 0 (n - 1)

let eval f t =
  if t < 0 then invalid_arg "Step.eval: negative time";
  let i = index_at f t in
  if i < 0 then f.init else f.vs.(i)

let eval_left f t =
  if t < 0 then invalid_arg "Step.eval_left: negative time";
  if t = 0 then f.init else eval f (t - 1)

(* Sequential evaluation for non-decreasing query times; see Pl.Cursor. *)
module Cursor = struct
  type step = t
  type t = { f : step; mutable i : int; mutable last : int }

  let make f = { f; i = -1; last = 0 }

  let advance c t =
    if t < c.last then
      invalid_arg "Step.Cursor: query times must be non-decreasing";
    c.last <- t;
    let ts = c.f.ts in
    let n = Array.length ts in
    while c.i + 1 < n && ts.(c.i + 1) <= t do
      c.i <- c.i + 1
    done

  let eval c t =
    if t < 0 then invalid_arg "Step.Cursor.eval: negative time";
    advance c t;
    if c.i < 0 then c.f.init else c.f.vs.(c.i)

  (* The left limit at t is the value at t-1; the monotonicity contract
     therefore applies to the shifted times, so [eval] and [eval_left] must
     not be interleaved on one cursor with overlapping time ranges. *)
  let eval_left c t =
    if t < 0 then invalid_arg "Step.Cursor.eval_left: negative time";
    if t = 0 then c.f.init else eval c (t - 1)
end

let init_value f = f.init

let final_value f =
  let n = Array.length f.vs in
  if n = 0 then f.init else f.vs.(n - 1)

let jump_count f = Array.length f.ts
let knot_count = jump_count
let jump_time f i = f.ts.(i)
let jump_value f i = f.vs.(i)
let jumps f = Array.init (Array.length f.ts) (fun i -> (f.ts.(i), f.vs.(i)))
let support_end f =
  let n = Array.length f.ts in
  if n = 0 then 0 else f.ts.(n - 1)

let inverse f v =
  if v <= f.init then Some 0
  else
    (* Smallest i with vs.(i) >= v. *)
    let n = Array.length f.vs in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if f.vs.(mid) >= v then search lo mid else search (mid + 1) hi
    in
    if n = 0 || f.vs.(n - 1) < v then None
    else Some f.ts.(search 0 (n - 1))

let scale f k =
  if k < 1 then invalid_arg "Step.scale: factor must be >= 1";
  { f with init = f.init * k; vs = Array.map (fun v -> v * k) f.vs }

(* Merge the jump points of [f] and [g], combining values with [op]; a
   combined value that does not rise is dropped (min and max can flatten).
   The merge runs twice, first only to count the jumps kept, so the
   result arrays are the only allocation. *)
let combine op f g =
  let nf = Array.length f.ts and ng = Array.length g.ts in
  let init = op f.init g.init in
  let merge emit =
    let n = ref 0 and last = ref init in
    let i = ref 0 and j = ref 0 in
    while !i < nf || !j < ng do
      let t =
        if !i >= nf then g.ts.(!j)
        else if !j >= ng then f.ts.(!i)
        else min f.ts.(!i) g.ts.(!j)
      in
      if !i < nf && f.ts.(!i) = t then incr i;
      if !j < ng && g.ts.(!j) = t then incr j;
      let vf = if !i = 0 then f.init else f.vs.(!i - 1) in
      let vg = if !j = 0 then g.init else g.vs.(!j - 1) in
      let v = op vf vg in
      if v > !last then begin
        emit !n t v;
        incr n;
        last := v
      end
    done;
    !n
  in
  let n = merge (fun _ _ _ -> ()) in
  let ts = Array.make n 0 and vs = Array.make n 0 in
  ignore
    (merge (fun k t v ->
         ts.(k) <- t;
         vs.(k) <- v));
  let f = { init; ts; vs } in
  invariant f;
  f

module Obs = Rta_obs

let c_add = Obs.counter "step.add.calls"
let c_scale = Obs.counter "step.scale.calls"
let c_add_jumps = Obs.counter "step.add.jumps"
let h_out_jumps = Obs.histogram "step.out.jumps"

let observed c r =
  Obs.incr c;
  Obs.observe_int h_out_jumps (Array.length r.ts);
  r

(* The sum of two normal-form steps rises at every jump of either, so its
   jumps are their merged distinct jump times: [combine]'s two merges
   without the indirect calls.  The fill checks that times and values
   rise, which is [invariant] on the result, so a malformed operand still
   fails here. *)
let sum2 f g =
  let nf = Array.length f.ts and ng = Array.length g.ts in
  let i = ref 0 and j = ref 0 and n = ref 0 in
  while !i < nf && !j < ng do
    let tf = f.ts.(!i) and tg = g.ts.(!j) in
    if tf <= tg then incr i;
    if tg <= tf then incr j;
    incr n
  done;
  let n = !n + (nf - !i) + (ng - !j) in
  let ts = Array.make n 0 and vs = Array.make n 0 in
  let i = ref 0 and j = ref 0 and vf = ref f.init and vg = ref g.init in
  for k = 0 to n - 1 do
    let tf = if !i < nf then f.ts.(!i) else max_int in
    let tg = if !j < ng then g.ts.(!j) else max_int in
    let t = min tf tg in
    if tf = t then begin
      vf := f.vs.(!i);
      incr i
    end;
    if tg = t then begin
      vg := g.vs.(!j);
      incr j
    end;
    let v = !vf + !vg in
    let t0 = if k = 0 then -1 else ts.(k - 1)
    and v0 = if k = 0 then f.init + g.init else vs.(k - 1) in
    if t <= t0 || v <= v0 then invalid_arg "Step.add: an operand is not in normal form";
    ts.(k) <- t;
    vs.(k) <- v
  done;
  { init = f.init + g.init; ts; vs }

let add f g =
  let r = observed c_add (sum2 f g) in
  Obs.add c_add_jumps (Array.length r.ts);
  r

let scale f k = observed c_scale (scale f k)
let min2 = combine min
let max2 = combine max

(* Pairwise rounds: every jump takes part in O(log n) additions instead of
   up to n in a left fold.  Exact integer addition is associative and
   commutative and results are normalized, so the sum is the same curve. *)
let sum l =
  let rec pairs = function
    | f :: g :: rest -> add f g :: pairs rest
    | rest -> rest
  in
  let rec rounds = function
    | [] -> zero
    | [ f ] -> f
    | l -> rounds (pairs l)
  in
  rounds l

let shift_right f d =
  if d < 0 then invalid_arg "Step.shift_right: negative shift";
  if d = 0 then f else { f with ts = Array.map (fun t -> t + d) f.ts }

let shift_left f d =
  if d < 0 then invalid_arg "Step.shift_left: negative shift";
  if d = 0 then f
  else
    let pairs =
      Array.to_list
        (Array.init (Array.length f.ts) (fun i -> (max 0 (f.ts.(i) - d), f.vs.(i))))
    in
    normalize ~init:f.init pairs

let truncate_after f h =
  let n = Array.length f.ts in
  let rec count i = if i < n && f.ts.(i) <= h then count (i + 1) else i in
  let keep = count 0 in
  if keep = n then f
  else { f with ts = Array.sub f.ts 0 keep; vs = Array.sub f.vs 0 keep }

let equal f g = f.init = g.init && f.ts = g.ts && f.vs = g.vs

let dominates f g =
  (* f >= g pointwise iff it holds at every jump point of either and at 0. *)
  let ok = ref (f.init >= g.init) in
  let check t = if eval f t < eval g t then ok := false in
  Array.iter check f.ts;
  Array.iter check g.ts;
  !ok

let pp ppf f =
  Format.fprintf ppf "@[<hov 2>step{init=%d" f.init;
  Array.iteri (fun i t -> Format.fprintf ppf ";@ %d@%d" f.vs.(i) t) f.ts;
  Format.fprintf ppf "}@]"
