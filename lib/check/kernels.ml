module Rng = Rta_workload.Rng
module Step = Rta_curve.Step
module Pl = Rta_curve.Pl
module Minplus = Rta_curve.Minplus
module Reference = Rta_curve.Reference
module Obs = Rta_obs

let c_trials = Obs.counter "kernels.trials"
let c_mismatches = Obs.counter "kernels.mismatches"

type mismatch = {
  seed : int;
  index : int;
  check : string;
  detail : string;
  file : string option;
}

type outcome = {
  tested : int;
  passed : int;
  mismatches : mismatch list;
  elapsed_s : float;
}

let show_pl f = Format.asprintf "%a" Pl.pp f
let show_step f = Format.asprintf "%a" Step.pp f

(* --- generation ---------------------------------------------------------

   Piecewise-linear curves are generated segment-wise (length, integer
   slope), which satisfies of_knots' integrality requirement by
   construction and makes the adversarial shapes — plateaus (slope 0),
   one-tick segments (length 1), negative slopes — just corners of the
   same distribution.  Sorting the drawn slopes produces operands that
   exercise convolve's convex and concave fast paths. *)

let gen_segments rng ~n ~lo_slope ~hi_slope =
  List.init n (fun _ ->
      (Rng.int_range rng 1 8, Rng.int_range rng lo_slope hi_slope))

let pl_of_segments ~y0 ~tail segs =
  let knots = ref [ (0, y0) ] in
  let x = ref 0 and y = ref y0 in
  List.iter
    (fun (len, slope) ->
      x := !x + len;
      y := !y + (slope * len);
      knots := (!x, !y) :: !knots)
    segs;
  Pl.of_knots ~tail (List.rev !knots)

let gen_pl rng =
  let n = Rng.int_range rng 0 6 in
  let segs = gen_segments rng ~n ~lo_slope:(-4) ~hi_slope:6 in
  pl_of_segments
    ~y0:(Rng.int_range rng (-5) 10)
    ~tail:(Rng.int_range rng (-2) 4)
    segs

let gen_pl_convex rng =
  let n = Rng.int_range rng 0 6 in
  let segs =
    List.sort
      (fun (_, a) (_, b) -> Int.compare a b)
      (gen_segments rng ~n ~lo_slope:0 ~hi_slope:6)
  in
  let last = List.fold_left (fun _ (_, s) -> s) 0 segs in
  pl_of_segments ~y0:(Rng.int_range rng 0 10)
    ~tail:(last + Rng.int_range rng 0 3)
    segs

let gen_pl_concave rng =
  let n = Rng.int_range rng 0 6 in
  let segs =
    List.sort
      (fun (_, a) (_, b) -> Int.compare b a)
      (gen_segments rng ~n ~lo_slope:0 ~hi_slope:6)
  in
  let last = List.fold_left (fun acc (_, s) -> min acc s) 6 segs in
  pl_of_segments ~y0:0 ~tail:(max 0 (last - Rng.int_range rng 0 2)) segs

let gen_step rng =
  let n = Rng.int_range rng 0 8 in
  let t = ref (Rng.int_range rng 0 2) and v = ref (Rng.int_range rng 0 3) in
  let init = !v in
  let samples =
    List.init n (fun i ->
        if i > 0 then t := !t + Rng.int_range rng 1 8;
        v := !v + Rng.int_range rng 1 5;
        (!t, !v))
  in
  Step.of_samples ~init samples

let gen_times rng =
  let n = Rng.int_range rng 1 20 in
  let t = ref 0 in
  List.init n (fun _ ->
      t := !t + Rng.int_range rng 0 9;
      !t)

(* --- shrinking ----------------------------------------------------------

   Greedy descent over structural candidates; candidates that violate a
   constructor invariant (dropping a knot can make the merged segment's
   slope non-integral) are simply skipped. *)

let keep_valid mk = match mk () with c -> Some c | exception _ -> None

let pl_shrinks f =
  let knots = Array.to_list (Pl.knots f) in
  let tail = Pl.tail_slope f in
  let drop i = List.filteri (fun j _ -> j <> i) knots in
  let drops =
    List.init
      (max 0 (List.length knots - 1))
      (fun i -> fun () -> Pl.of_knots ~tail (drop (i + 1)))
  in
  let zero_tail =
    if tail <> 0 then [ (fun () -> Pl.of_knots ~tail:0 knots) ] else []
  in
  List.filter_map keep_valid (drops @ zero_tail)

let step_shrinks f =
  let jumps = Array.to_list (Step.jumps f) in
  let init = Step.init_value f in
  let drop i = List.filteri (fun j _ -> j <> i) jumps in
  let drops =
    List.init (List.length jumps) (fun i ->
        fun () -> Step.of_samples ~init (drop i))
  in
  let zero_init =
    if init <> 0 then [ (fun () -> Step.of_samples ~init:0 jumps) ] else []
  in
  List.filter_map keep_valid (drops @ zero_init)

let rec shrink2 shrinks_a shrinks_b still_fails (a, b) =
  let cands =
    List.map (fun a' -> (a', b)) (shrinks_a a)
    @ List.map (fun b' -> (a, b')) (shrinks_b b)
  in
  match List.find_opt still_fails cands with
  | Some c -> shrink2 shrinks_a shrinks_b still_fails c
  | None -> (a, b)

let rec shrink1 shrinks still_fails a =
  match List.find_opt still_fails (shrinks a) with
  | Some c -> shrink1 shrinks still_fails c
  | None -> a

(* --- the differential checks ------------------------------------------- *)

let convolve_mismatch (f, g) =
  let opt = Minplus.convolve f g in
  let ref_ = Reference.convolve f g in
  not (Pl.equal opt ref_)

let convolve_detail (f, g) =
  let opt = Minplus.convolve f g in
  let ref_ = Reference.convolve f g in
  Printf.sprintf "f = %s\ng = %s\noptimized convolve = %s\nreference convolve = %s"
    (show_pl f) (show_pl g) (show_pl opt) (show_pl ref_)

let prefix_mismatch mode (avail, work) =
  let opt = Minplus.prefix_min ~mode ~avail ~work in
  let ref_ = Reference.prefix_min ~mode ~avail ~work in
  not (Pl.equal opt ref_)

let prefix_detail mode (avail, work) =
  let opt = Minplus.prefix_min ~mode ~avail ~work in
  let ref_ = Reference.prefix_min ~mode ~avail ~work in
  Printf.sprintf "avail = %s\nwork = %s\noptimized prefix_min = %s\nreference prefix_min = %s"
    (show_pl avail) (show_step work) (show_pl opt) (show_pl ref_)

let pointwise_ops =
  [
    ("min2", Pl.min2, Reference.min2);
    ("max2", Pl.max2, Reference.max2);
    ("add", Pl.add, Reference.add);
    ("sub", Pl.sub, Reference.sub);
  ]

let pointwise_mismatch (f, g) =
  List.exists
    (fun (_, fast, slow) -> not (Pl.equal (fast f g) (slow f g)))
    pointwise_ops

let pointwise_detail (f, g) =
  Printf.sprintf "f = %s\ng = %s\n%s" (show_pl f) (show_pl g)
    (String.concat "\n"
       (List.map
          (fun (name, fast, slow) ->
            Printf.sprintf "%s: fast %s, reference %s" name
              (show_pl (fast f g)) (show_pl (slow f g)))
          pointwise_ops))

let of_step_mismatch work = not (Pl.equal (Pl.of_step work) (Reference.of_step work))

let of_step_detail work =
  Printf.sprintf "work = %s\nbuilder of_step = %s\nreference of_step = %s"
    (show_step work)
    (show_pl (Pl.of_step work))
    (show_pl (Reference.of_step work))

let cursor_pl_mismatch times f =
  let c = Pl.Cursor.make f in
  List.exists (fun t -> Pl.Cursor.eval c t <> Pl.eval f t) times

let cursor_pl_detail times f =
  Printf.sprintf "f = %s\ntimes = [%s]" (show_pl f)
    (String.concat "; " (List.map string_of_int times))

let cursor_step_mismatch times f =
  let c = Step.Cursor.make f and cl = Step.Cursor.make f in
  List.exists
    (fun t ->
      Step.Cursor.eval c t <> Step.eval f t
      || Step.Cursor.eval_left cl t <> Step.eval_left f t)
    times

let cursor_step_detail times f =
  Printf.sprintf "f = %s\ntimes = [%s]" (show_step f)
    (String.concat "; " (List.map string_of_int times))

(* --- the loop ----------------------------------------------------------- *)

let render m =
  Printf.sprintf "#! rta-kernels seed=%d index=%d check=%s\n%s\n" m.seed
    m.index m.check m.detail

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_mismatch dir m =
  mkdir_p dir;
  let path =
    Filename.concat dir
      (Printf.sprintf "kernel-mismatch-%d-%d-%s.txt" m.seed m.index m.check)
  in
  let oc = open_out path in
  output_string oc (render m);
  close_out oc;
  path

let run ?out_dir ?budget_s ~seed ~count () =
  let sp = if Obs.enabled () then Obs.span_begin "kernels.run" else Obs.no_span in
  let started = Unix.gettimeofday () in
  let deadline = Option.map (fun s -> started +. s) budget_s in
  let in_budget () =
    match deadline with None -> true | Some d -> Unix.gettimeofday () < d
  in
  let tested = ref 0 and passed = ref 0 and mismatches = ref [] in
  let index = ref 0 in
  while !index < count && in_budget () do
    let i = !index in
    incr index;
    incr tested;
    Obs.incr c_trials;
    let rng = Rng.make (seed + i) in
    let found = ref [] in
    let record check detail = found := (check, detail) :: !found in
    (* convolve: general operands plus shaped pairs for the fast paths. *)
    List.iter
      (fun (check, pair) ->
        if convolve_mismatch pair then
          let pair = shrink2 pl_shrinks pl_shrinks convolve_mismatch pair in
          record check (convolve_detail pair))
      [
        ("convolve", (gen_pl rng, gen_pl rng));
        ("convolve-convex", (gen_pl_convex rng, gen_pl_convex rng));
        ("convolve-concave", (gen_pl_concave rng, gen_pl_concave rng));
      ];
    (* pointwise combination kernels, fast vs reference bodies. *)
    (let pair = (gen_pl rng, gen_pl rng) in
     if pointwise_mismatch pair then
       let pair = shrink2 pl_shrinks pl_shrinks pointwise_mismatch pair in
       record "pointwise" (pointwise_detail pair));
    (* prefix_min, both infimum conventions. *)
    List.iter
      (fun (check, mode) ->
        let pair = (gen_pl rng, gen_step rng) in
        if prefix_mismatch mode pair then
          let pair = shrink2 pl_shrinks step_shrinks (prefix_mismatch mode) pair in
          record check (prefix_detail mode pair))
      [ ("prefix-min-left", `Left); ("prefix-min-right", `Right) ];
    (* of_step array builder vs the list-buffer baseline. *)
    (let work = gen_step rng in
     if of_step_mismatch work then
       let work = shrink1 step_shrinks of_step_mismatch work in
       record "of-step" (of_step_detail work));
    (* cursor evaluation vs direct evaluation at ascending times. *)
    (let times = gen_times rng in
     let f = gen_pl rng in
     if cursor_pl_mismatch times f then
       let f = shrink1 pl_shrinks (cursor_pl_mismatch times) f in
       record "cursor-pl" (cursor_pl_detail times f));
    (let times = gen_times rng in
     let f = gen_step rng in
     if cursor_step_mismatch times f then
       let f = shrink1 step_shrinks (cursor_step_mismatch times) f in
       record "cursor-step" (cursor_step_detail times f));
    if !found = [] then incr passed;
    List.iter
      (fun (check, detail) ->
        Obs.incr c_mismatches;
        let m = { seed; index = i; check; detail; file = None } in
        let m =
          match out_dir with
          | None -> m
          | Some dir -> { m with file = Some (write_mismatch dir m) }
        in
        mismatches := m :: !mismatches)
      (List.rev !found)
  done;
  Obs.span_int sp "tested" !tested;
  Obs.span_int sp "mismatches" (List.length !mismatches);
  Obs.span_end sp;
  {
    tested = !tested;
    passed = !passed;
    mismatches = List.rev !mismatches;
    elapsed_s = Unix.gettimeofday () -. started;
  }
