(* Prefix-minimum scan over the merged event grid of an availability
   function and a workload step function.  See minplus.mli for semantics. *)

type mode = [ `Left | `Right ]

module Obs = Rta_obs

let c_prefix_min = Obs.counter "minplus.prefix_min.calls"
let h_work_jumps = Obs.histogram "minplus.work.jumps"
let h_avail_knots = Obs.histogram "minplus.avail.knots"
let h_out_knots = Obs.histogram "minplus.out.knots"
let h_seconds = Obs.histogram "minplus.prefix_min.seconds"

(* Sorted, deduplicated event times: 0, every knot of [avail], and for every
   jump time j of [work] both j and j+1 (so that both the value and the left
   limit of [work] are constant on every open interval between events).

   Both inputs are already sorted (knot times strictly increasing, and the
   per-jump pairs j, j+1 non-decreasing across jumps since j' > j implies
   j' >= j+1), so a single linear merge suffices — no list rebuilding, no
   sort. *)
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
  (* [half] selects which of the two events of jump [j] comes next: the
     jump time itself (0) or the tick after (1). *)
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

(* The optimized scan: the event walk visits non-decreasing times, so both
   inputs are evaluated through cursors (segment indices only ever move
   forward — no per-event binary search), and output knots land in a
   preallocated array builder (no list consing, no of_knots re-validation).
   Each event interval pushes at most 6 knots, which bounds the builder
   capacity up front. *)
let prefix_min_impl ~mode ~avail ~work =
  let events = event_times avail work in
  let n_events = Array.length events in
  let b = Pl.Builder.create ((6 * n_events) + 2) in
  let push t v = Pl.Builder.push b t v in
  let ac = Pl.Cursor.make avail in
  let wc = Step.Cursor.make work in
  let work_at =
    match mode with
    | `Left -> fun s -> Step.Cursor.eval_left wc s
    | `Right -> fun s -> Step.Cursor.eval wc s
  in
  let hl s = work_at s - Pl.Cursor.eval ac s in
  let m_cur = ref (hl 0) in
  push 0 !m_cur;
  let tail = ref 0 in
  let interval e bound =
    let hl_e = hl e in
    if hl_e < !m_cur then begin
      if e > 0 then push (e - 1) !m_cur;
      push e hl_e;
      m_cur := hl_e
    end;
    (* Slope of [avail] on the event interval starting at [e]: events
       include every knot of [avail], so the segment containing [e] spans
       the whole interval and the cursor's segment slope is exact. *)
    let sigma = -Pl.Cursor.slope ac e in
    if sigma < 0 then begin
      if hl_e <= !m_cur then begin
        (* m follows hl through the interval. *)
        push e !m_cur;
        match bound with
        | Some e' ->
            let v = hl_e + (sigma * (e' - 1 - e)) in
            push (e' - 1) v;
            m_cur := v
        | None -> tail := sigma
      end
      else begin
        (* hl starts above m and falls; it crosses strictly below m at the
           first integer d with hl_e + sigma * d < m. *)
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
  for k = 0 to n_events - 1 do
    interval events.(k) (if k + 1 < n_events then Some events.(k + 1) else None)
  done;
  Pl.Builder.to_pl ~tail:!tail b

(* The instrumented entry point: every min-plus transform in the engine
   routes through this scan, so its call count, input/output segment counts
   and durations characterize the whole curve layer's hot path. *)
let prefix_min ~mode ~avail ~work =
  let t0 = if Obs.enabled () then Obs.now () else 0. in
  let result = prefix_min_impl ~mode ~avail ~work in
  if Obs.enabled () then begin
    Obs.incr c_prefix_min;
    Obs.observe_int h_work_jumps (Step.jump_count work);
    Obs.observe_int h_avail_knots (Pl.knot_count avail);
    Obs.observe_int h_out_knots (Pl.knot_count result);
    Obs.observe h_seconds (Obs.now () -. t0)
  end;
  result

let transform ~mode ~avail ~work =
  Pl.add avail (prefix_min ~mode ~avail ~work)

let transform_blocked ~mode ~avail ~work ~blocking =
  if blocking < 0 then invalid_arg "Minplus.transform_blocked: negative blocking";
  if blocking = 0 then transform ~mode ~avail ~work
  else
    let m = prefix_min ~mode ~avail ~work in
    let shifted = Pl.shift_right m blocking in
    Pl.splice ~at:blocking Pl.zero (Pl.add avail shifted)

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
