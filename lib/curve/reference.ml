(* Frozen baseline curve kernels.

   These are the original (pre-optimization) implementations of the
   pointwise combinations, the min-plus convolution, the prefix-minimum
   scan and the step-to-polyline conversion, kept as an executable
   specification built only on the public curve API.  The optimized
   kernels in {!Minplus} and {!Pl} are differential-tested against this
   module by the property tests and by `rta fuzz --kernels`, so every
   speedup ships with a proof-of-parity.  Do not "improve" this module:
   its value is that it stays simple, slow and obviously right. *)

type mode = [ `Left | `Right ]

(* Sorted, deduplicated event times: 0, every knot of [avail], and for every
   jump time j of [work] both j and j+1.  Same contract as
   {!Minplus.event_times}. *)
let event_times avail work =
  let ks = Pl.knots avail in
  let js = Step.jumps work in
  let nk = Array.length ks and nj = Array.length js in
  let out = Array.make (nk + (2 * nj) + 1) 0 in
  let len = ref 0 in
  let push t =
    if !len = 0 || out.(!len - 1) < t then begin
      out.(!len) <- t;
      incr len
    end
  in
  push 0;
  let i = ref 0 and j = ref 0 and half = ref 0 in
  while !i < nk || !j < nj do
    let next_knot = if !i < nk then fst ks.(!i) else max_int in
    let next_jump = if !j < nj then fst js.(!j) + !half else max_int in
    if next_knot <= next_jump then begin
      push next_knot;
      incr i
    end
    else begin
      push next_jump;
      if !half = 0 then half := 1
      else begin
        half := 0;
        incr j
      end
    end
  done;
  Array.sub out 0 !len

let work_value ~mode work s =
  match mode with `Left -> Step.eval_left work s | `Right -> Step.eval work s

(* The original list-buffer prefix-minimum scan: every evaluation of the
   availability function is an independent binary search, and the output is
   accumulated in a list then rebuilt through [Pl.of_knots]. *)
let prefix_min ~mode ~avail ~work =
  let events = event_times avail work in
  let buf = ref [] in
  let push t v =
    match !buf with
    | (t', _) :: rest when t' = t -> buf := (t, v) :: rest
    | _ -> buf := (t, v) :: !buf
  in
  let hl s = work_value ~mode work s - Pl.eval avail s in
  let slope_at e = Pl.eval avail (e + 1) - Pl.eval avail e in
  let m_cur = ref (hl 0) in
  push 0 !m_cur;
  let tail = ref 0 in
  let n_events = Array.length events in
  let rec intervals k =
    if k < n_events then begin
      interval events.(k)
        (if k + 1 < n_events then Some events.(k + 1) else None);
      intervals (k + 1)
    end
  and interval e bound =
    let hl_e = hl e in
    if hl_e < !m_cur then begin
      if e > 0 then push (e - 1) !m_cur;
      push e hl_e;
      m_cur := hl_e
    end;
    let sigma = -slope_at e in
    if sigma < 0 then begin
      if hl_e <= !m_cur then begin
        push e !m_cur;
        match bound with
        | Some e' ->
            let v = hl_e + (sigma * (e' - 1 - e)) in
            push (e' - 1) v;
            m_cur := v
        | None -> tail := sigma
      end
      else begin
        let d = ((hl_e - !m_cur) / -sigma) + 1 in
        let k = e + d in
        let inside = match bound with None -> true | Some e' -> k <= e' - 1 in
        if inside then begin
          push (k - 1) !m_cur;
          push k (hl_e + (sigma * d));
          match bound with
          | Some e' ->
              let v = hl_e + (sigma * (e' - 1 - e)) in
              push (e' - 1) v;
              m_cur := v
          | None ->
              m_cur := hl_e + (sigma * d);
              tail := sigma
        end
      end
    end
  in
  intervals 0;
  Pl.of_knots ~tail:!tail (List.rev !buf)

(* Pointwise combinations: every merged knot time is evaluated by an
   independent binary search ({!Pl.eval}), and the result is rebuilt through
   {!Pl.of_knots}. *)
let knot_times f g =
  Array.to_list (Array.append (Pl.knots f) (Pl.knots g))
  |> List.map fst |> List.sort_uniq Int.compare

let of_times op f g times =
  Pl.of_knots
    ~tail:(op (Pl.tail_slope f) (Pl.tail_slope g))
    (List.map (fun t -> (t, op (Pl.eval f t) (Pl.eval g t))) times)

let add f g = of_times ( + ) f g (knot_times f g)
let sub f g = of_times ( - ) f g (knot_times f g)

(* Min and max are non-linear where the two operands cross: besides the
   merged knot times, take the pair of integer times straddling every
   crossing inside a segment. *)
let pointwise op f g =
  let base = Array.of_list (knot_times f g) in
  let n = Array.length base in
  let slope h x = Pl.eval h (x + 1) - Pl.eval h x in
  let straddles i =
    let x = base.(i) in
    let d0 = Pl.eval f x - Pl.eval g x and ds = slope f x - slope g x in
    if ds = 0 || d0 = 0 || d0 * ds > 0 then []
    else
      let du = -d0 / ds in
      let inside t = t > x && (i = n - 1 || t < base.(i + 1)) in
      List.filter inside [ x + du; x + du + 1 ]
  in
  let crossings = List.concat (List.init n straddles) in
  of_times op f g (List.sort_uniq Int.compare (Array.to_list base @ crossings))

let min2 = pointwise min
let max2 = pointwise max

(* A value safely above any reachable curve value; see {!Minplus.masked}. *)
let masked = 1 lsl 40

(* The original quadratic convolution: one shifted candidate curve per knot
   of either operand, reduced by a left-deep fold of pointwise minima.  The
   accumulator grows with every merge, so the fold costs
   O((n + m)^2) knot insertions. *)
let convolve f g =
  let shifted_copies base knots =
    Array.to_list knots
    |> List.map (fun (x, y) ->
           add (Pl.shift_right ~fill:masked base x) (Pl.const y))
  in
  let candidates =
    shifted_copies g (Pl.knots f) @ shifted_copies f (Pl.knots g)
  in
  match candidates with
  | [] -> invalid_arg "Reference.convolve: empty curve"
  | first :: rest -> List.fold_left min2 first rest

(* The original list-buffer step-to-polyline conversion. *)
let of_step step =
  let js = Step.jumps step in
  let v0 = Step.eval step 0 in
  let buf = ref [ (0, v0) ] in
  let push x y =
    match !buf with
    | (x', _) :: rest when x' = x -> buf := (x, y) :: rest
    | _ -> buf := (x, y) :: !buf
  in
  let prev = ref v0 in
  Array.iter
    (fun (t, v) ->
      if t > 0 then begin
        push (t - 1) !prev;
        push t v;
        prev := v
      end)
    js;
  Pl.of_knots ~tail:0 (List.rev !buf)
