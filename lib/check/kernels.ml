module Rng = Rta_workload.Rng
module Step = Rta_curve.Step
module Pl = Rta_curve.Pl
module Minplus = Rta_curve.Minplus
module Local = Rta_core.Local
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
   same distribution. *)

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

(* Non-decreasing curves for the inverse check: the same segment-wise
   shapes without negative slopes. *)
let gen_pl_mono rng =
  let n = Rng.int_range rng 0 6 in
  let segs = gen_segments rng ~n ~lo_slope:0 ~hi_slope:6 in
  pl_of_segments
    ~y0:(Rng.int_range rng (-5) 10)
    ~tail:(Rng.int_range rng 0 4)
    segs

(* A curve that falls somewhere: one segment, or the tail, is forced
   negative. *)
let gen_pl_falling rng =
  let n = Rng.int_range rng 0 6 in
  let segs = gen_segments rng ~n ~lo_slope:0 ~hi_slope:6 in
  let at = Rng.int_range rng 0 n in
  let fall = -Rng.int_range rng 1 4 in
  let segs =
    List.mapi (fun i (len, s) -> (len, if i = at then fall else s)) segs
  in
  pl_of_segments
    ~y0:(Rng.int_range rng (-5) 10)
    ~tail:(if at = n then fall else Rng.int_range rng 0 4)
    segs

let gen_steps rng = List.init (Rng.int_range rng 0 6) (fun _ -> gen_step rng)

let gen_times rng =
  let n = Rng.int_range rng 1 20 in
  let t = ref 0 in
  List.init n (fun _ ->
      t := !t + Rng.int_range rng 0 9;
      !t)

(* One processor's exact SPP residents, highest rank first, as
   (tau, release times), and a horizon that may cut completions off.
   Releases may coincide, within and across residents. *)
let gen_spp rng =
  let resident _ =
    let times =
      List.init (Rng.int_range rng 0 8) (fun _ -> Rng.int_range rng 0 40)
    in
    (Rng.int_range rng 1 6, List.sort Int.compare times)
  in
  let residents = List.init (Rng.int_range rng 1 4) resident in
  (Rng.int_range rng 0 120, residents)

(* One static-priority resident's bound inputs: blocking, the
   higher-priority upper workload, the higher-priority lower service
   curves as 0 to 6 members (falling ones too), the level-k lower workload
   and the own upper workload. *)
let gen_sp rng =
  let blocking = if Rng.int_range rng 0 2 = 0 then 0 else Rng.int_range rng 1 12 in
  let hp_work_hi = gen_step rng in
  let hp_svc_lo =
    List.init (Rng.int_range rng 0 6) (fun _ ->
        if Rng.int_range rng 0 1 = 0 then gen_pl_mono rng else gen_pl rng)
  in
  let level_work = gen_step rng in
  (blocking, hp_work_hi, hp_svc_lo, level_work, gen_step rng)

(* A service curve as the analysis builds them: non-decreasing from a
   non-negative value, plateaus and one-tick segments included, with a
   horizon that may cut it. *)
let gen_departures rng =
  let n = Rng.int_range rng 0 6 in
  let service =
    pl_of_segments ~y0:(Rng.int_range rng 0 10) ~tail:(Rng.int_range rng 0 4)
      (gen_segments rng ~n ~lo_slope:0 ~hi_slope:6)
  in
  (service, Rng.int_range rng 1 5, gen_step rng, Rng.int_range rng 0 60)

(* One FCFS processor's residents as (tau, arr_lo, arr_hi): an exact
   release trace (ties and bursts allowed) or two arbitrary steps. *)
let gen_fcfs rng =
  let resident _ =
    let tau = Rng.int_range rng 1 4 in
    if Rng.int_range rng 0 1 = 0 then
      let times =
        List.init (Rng.int_range rng 0 8) (fun _ -> Rng.int_range rng 0 40)
      in
      let f = Step.of_arrival_times (Array.of_list (List.sort Int.compare times)) in
      (tau, f, f)
    else (tau, gen_step rng, gen_step rng)
  in
  let residents = List.init (Rng.int_range rng 1 4) resident in
  (Rng.int_range rng 0 1 = 0, Rng.int_range rng 0 120, residents)

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

(* Drop a release, or lower tau. *)
let resident_shrinks (tau, times) =
  List.mapi (fun i _ -> (tau, List.filteri (fun j _ -> j <> i) times)) times
  @ if tau > 1 then [ (tau - 1, times) ] else []

(* Drop one member, or shrink one member in place. *)
let list_shrinks shrinks l =
  let drops = List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) l) l in
  let replace i x' = List.mapi (fun j y -> if j = i then x' else y) l in
  let inner =
    List.concat (List.mapi (fun i x -> List.map (replace i) (shrinks x)) l)
  in
  drops @ inner

(* Shrink one input in place, or lower the blocking. *)
let sp_shrinks (b, c, p, w, own) =
  List.map (fun c -> (b, c, p, w, own)) (step_shrinks c)
  @ List.map (fun p -> (b, c, p, w, own)) (list_shrinks pl_shrinks p)
  @ List.map (fun w -> (b, c, p, w, own)) (step_shrinks w)
  @ List.map (fun own -> (b, c, p, w, own)) (step_shrinks own)
  @ if b > 0 then [ (b - 1, c, p, w, own); (0, c, p, w, own) ] else []

(* Shrink the service curve or the arrivals, or lower tau. *)
let departures_shrinks (service, tau, arr, h) =
  List.map (fun s -> (s, tau, arr, h)) (pl_shrinks service)
  @ List.map (fun a -> (service, tau, a, h)) (step_shrinks arr)
  @ if tau > 1 then [ (service, tau - 1, arr, h) ] else []

(* Shrink either side of a bracket (an exact one as one curve), or lower
   tau. *)
let fcfs_resident_shrinks (tau, lo, hi) =
  (if lo == hi then List.map (fun f -> (tau, f, f)) (step_shrinks lo)
   else
     List.map (fun f -> (tau, f, hi)) (step_shrinks lo)
     @ List.map (fun f -> (tau, lo, f)) (step_shrinks hi))
  @ if tau > 1 then [ (tau - 1, lo, hi) ] else []

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

let pointwise_ops =
  [
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

(* The checked inverse handle against the dense scan, over targets from
   below the curve's start to past its value at the dense horizon: a
   handle answer beyond that horizon is the one thing the scan cannot
   see. *)
let inverse_horizon f =
  let ks = Pl.knots f in
  fst ks.(Array.length ks - 1) + 8

(* Every target with the handle's and the scan's answers, and whether they
   agree.  Raises [Invalid_argument] if [make] rejects [f]. *)
let inverse_answers f =
  let h = inverse_horizon f in
  let d = Dense.of_pl ~horizon:h f and inv = Pl.Inverse.make f in
  List.init
    (Pl.eval f h - Pl.eval f 0 + 4)
    (fun k ->
      let v = Pl.eval f 0 - 1 + k in
      let a = Pl.Inverse.geq inv v and b = Dense.inverse_geq d v in
      let agree = match (a, b) with Some t, None -> t > h | _ -> a = b in
      (v, a, b, agree))

let inverse_mismatch f =
  match inverse_answers f with
  | exception Invalid_argument _ -> true
  | answers -> List.exists (fun (_, _, _, agree) -> not agree) answers

let inverse_detail f =
  let show = function None -> "none" | Some t -> string_of_int t in
  Printf.sprintf "f = %s\n%s" (show_pl f)
    (match inverse_answers f with
    | exception Invalid_argument msg -> "Inverse.make raised: " ^ msg
    | answers ->
        Printf.sprintf "target: handle/dense = [%s]"
          (String.concat "; "
             (List.map
                (fun (v, a, b, _) ->
                  Printf.sprintf "%d: %s/%s" v (show a) (show b))
                answers)))

let inverse_accepts_falling f =
  match Pl.Inverse.make f with
  | exception Invalid_argument _ -> false
  | _ -> true

(* The balanced sum against a left fold of the pairwise addition. *)
let left_fold_sum l = List.fold_left Step.add Step.zero l
let sum_mismatch l = not (Step.equal (Step.sum l) (left_fold_sum l))

let sum_detail l =
  Printf.sprintf "terms = [%s]\nsum = %s\nleft fold = %s"
    (String.concat "; " (List.map show_step l))
    (show_step (Step.sum l))
    (show_step (left_fold_sum l))

(* The idle-map SPP path against Theorem 3's formula on the reference
   kernels: each resident's departures and forced service curve, pushed
   rank by rank through one running aggregate.  The first disagreeing
   resident, if any, with both sides. *)
let spp_idle_first_mismatch (horizon, residents) =
  let residents =
    List.map
      (fun (tau, times) -> (tau, Step.of_arrival_times (Array.of_list times)))
      residents
  in
  let oracle = Reference.spp_exact ~horizon residents in
  let rec go hp rank = function
    | [] -> None
    | ((tau, arr), (svc, dep)) :: rest ->
        let i = Local.input ~tau ~arr_lo:arr ~arr_hi:arr ~exact:true in
        let o =
          Local.step ~horizon
            (Local.Static { preemptive = true; blocking = 0; hp })
            i
        in
        let got = Lazy.force o.svc_lo in
        if o.exact && Step.equal o.dep_lo dep && Pl.equal got svc then
          go (Local.push hp i o) (rank + 1) rest
        else
          Some
            (Printf.sprintf
               "resident %d (exact: %b)\nidle departures = %s\nTheorem 3 departures = %s\nidle service = %s\nTheorem 3 service = %s"
               rank o.exact (show_step o.dep_lo) (show_step dep) (show_pl got)
               (show_pl svc))
  in
  go Local.empty 1 (List.combine residents oracle)

let spp_idle_mismatch case = Option.is_some (spp_idle_first_mismatch case)

let spp_idle_detail ((horizon, residents) as case) =
  Printf.sprintf "horizon = %d\nresidents (tau: releases), highest rank first = [%s]\n%s"
    horizon
    (String.concat "; "
       (List.map
          (fun (tau, times) ->
            Printf.sprintf "%d: %s" tau
              (String.concat "," (List.map string_of_int times)))
          residents))
    (Option.value ~default:"" (spp_idle_first_mismatch case))

(* The bound sweeps against Theorems 5-6 composed on the reference
   kernels, which take the members' sum. *)
let sp_sweeps (blocking, hp_work_hi, hp_svc_lo, level_work, work_hi) =
  let lo = Minplus.sp_lower ~blocking ~hp_work:hp_work_hi ~level_work in
  let hi =
    Minplus.sp_upper ~hp_service:hp_svc_lo ~own_work:work_hi
      ~own_util:(Minplus.utilization ~mode:`Right work_hi)
  in
  ( (lo, hi),
    Reference.sp_bounds ~blocking ~hp_work_hi ~hp_svc_lo:(Pl.sum hp_svc_lo) ~level_work
      ~work_hi )

let sp_sweep_mismatch case =
  let (lo, hi), (lo_ref, hi_ref) = sp_sweeps case in
  not (Pl.equal lo lo_ref && Pl.equal hi hi_ref)

let sp_sweep_detail ((blocking, hp_work_hi, hp_svc_lo, level_work, work_hi) as case) =
  let (lo, hi), (lo_ref, hi_ref) = sp_sweeps case in
  Printf.sprintf
    "blocking = %d\nhp_work_hi = %s\nhp_svc_lo = %s\nlevel_work = %s\nwork_hi = %s\nlower sweep = %s\nlower formula = %s\nupper sweep = %s\nupper formula = %s"
    blocking (show_step hp_work_hi)
    ("[" ^ String.concat "; " (List.map show_pl hp_svc_lo) ^ "]")
    (show_step level_work)
    (show_step work_hi) (show_pl lo) (show_pl lo_ref) (show_pl hi) (show_pl hi_ref)

(* The busy-period walk against the identity plus the prefix minimum, in
   both modes. *)
let utilization_mismatch w =
  List.exists
    (fun mode ->
      not (Pl.equal (Minplus.utilization ~mode w) (Reference.utilization ~mode w)))
    [ `Left; `Right ]

let utilization_detail w =
  Printf.sprintf "work = %s\nwalk `Left = %s\nreference `Left = %s\nwalk `Right = %s\nreference `Right = %s"
    (show_step w)
    (show_pl (Minplus.utilization ~mode:`Left w))
    (show_pl (Reference.utilization ~mode:`Left w))
    (show_pl (Minplus.utilization ~mode:`Right w))
    (show_pl (Reference.utilization ~mode:`Right w))

(* The inverse-read departures against Theorem 2's chain. *)
let departures_pair (service, tau, arrivals, horizon) =
  ( Minplus.departures ~horizon ~tau ~service ~arrivals,
    Reference.departures ~horizon ~tau ~service ~arrivals )

let departures_mismatch case =
  let got, want = departures_pair case in
  not (Step.equal got want)

let departures_detail ((service, tau, arrivals, horizon) as case) =
  let got, want = departures_pair case in
  Printf.sprintf
    "service = %s\ntau = %d\narrivals = %s\nhorizon = %d\ninverse read = %s\nreference chain = %s"
    (show_pl service) tau (show_step arrivals) horizon (show_step got) (show_step want)

(* One FCFS processor's per-jump bounds against the per-instance
   construction: the first disagreeing resident, if any, with both
   sides. *)
let fcfs_first_mismatch (exact, horizon, residents) =
  let inputs =
    List.map
      (fun (tau, arr_lo, arr_hi) -> Local.input ~tau ~arr_lo ~arr_hi ~exact:false)
      residents
  in
  let ctx = Local.fcfs ~exact ~horizon inputs in
  let rec go rank = function
    | [] -> None
    | (i, (dep_lo, dep_hi, exact)) :: rest ->
        let o = Local.step ~horizon (Local.Fcfs ctx) i in
        let o_dep_hi = Lazy.force o.dep_hi in
        if Step.equal o.dep_lo dep_lo && Step.equal o_dep_hi dep_hi && o.exact = exact
        then go (rank + 1) rest
        else
          Some
            (Printf.sprintf
               "resident %d\nper-jump dep_lo = %s (exact: %b)\nper-instance dep_lo = %s (exact: %b)\nper-jump dep_hi = %s\nper-instance dep_hi = %s"
               rank (show_step o.dep_lo) o.exact (show_step dep_lo) exact
               (show_step o_dep_hi) (show_step dep_hi))
  in
  go 1 (List.combine inputs (Reference.fcfs ~exact ~horizon residents))

let fcfs_mismatch case = Option.is_some (fcfs_first_mismatch case)

let fcfs_detail ((exact, horizon, residents) as case) =
  Printf.sprintf "exact = %b\nhorizon = %d\nresidents (tau: arr_lo / arr_hi) = [%s]\n%s" exact
    horizon
    (String.concat "; "
       (List.map
          (fun (tau, lo, hi) -> Printf.sprintf "%d: %s / %s" tau (show_step lo) (show_step hi))
          residents))
    (Option.value ~default:"" (fcfs_first_mismatch case))

(* --- the loop ----------------------------------------------------------- *)

let render m =
  Printf.sprintf "#! rta-kernels seed=%d index=%d check=%s\n%s\n" m.seed
    m.index m.check m.detail

(* Every check draws from its own stream, seeded from the trial's seed
   and the check's name (a 30-bit hash, above the seed's 32 bits), so
   adding or removing a check leaves the inputs of every other one as
   they were, at every seed. *)
let stream seed name = Rng.make (seed lxor (Hashtbl.hash name lsl 32))

let run ?out_dir ?budget_s ~seed ~count () =
  let sp = if Obs.enabled () then Obs.span_begin "kernels.run" else Obs.no_span in
  let passed = ref 0 and mismatches = ref [] in
  let tested, elapsed_s =
    Fuzz.trials ~budget_s ~count @@ fun i ->
    Obs.incr c_trials;
    let draw = stream (seed + i) in
    let found = ref [] in
    let record check detail = found := (check, detail) :: !found in
    (* pointwise combination kernels, fast vs reference bodies. *)
    (let rng = draw "pointwise" in
     let pair = (gen_pl rng, gen_pl rng) in
     if pointwise_mismatch pair then
       let pair = shrink2 pl_shrinks pl_shrinks pointwise_mismatch pair in
       record "pointwise" (pointwise_detail pair));
    (* cursor evaluation vs direct evaluation at ascending times. *)
    (let rng = draw "cursor-pl" in
     let times = gen_times rng in
     let f = gen_pl rng in
     if cursor_pl_mismatch times f then
       let f = shrink1 pl_shrinks (cursor_pl_mismatch times) f in
       record "cursor-pl" (cursor_pl_detail times f));
    (let rng = draw "cursor-step" in
     let times = gen_times rng in
     let f = gen_step rng in
     if cursor_step_mismatch times f then
       let f = shrink1 step_shrinks (cursor_step_mismatch times) f in
       record "cursor-step" (cursor_step_detail times f));
    (let f = gen_pl_mono (draw "inverse-geq") in
     if inverse_mismatch f then
       let f = shrink1 pl_shrinks inverse_mismatch f in
       record "inverse-geq" (inverse_detail f));
    (let f = gen_pl_falling (draw "inverse-geq falling") in
     if inverse_accepts_falling f then
       record "inverse-geq"
         ("Inverse.make accepted a falling curve\nf = " ^ show_pl f));
    (let l = gen_steps (draw "step-sum") in
     if sum_mismatch l then
       let l = shrink1 (list_shrinks step_shrinks) sum_mismatch l in
       record "step-sum" (sum_detail l));
    (let horizon, residents = gen_spp (draw "spp-idle") in
     let still_fails residents = spp_idle_mismatch (horizon, residents) in
     if still_fails residents then
       let residents = shrink1 (list_shrinks resident_shrinks) still_fails residents in
       record "spp-idle" (spp_idle_detail (horizon, residents)));
    (let case = gen_sp (draw "sp-sweep") in
     if sp_sweep_mismatch case then
       record "sp-sweep" (sp_sweep_detail (shrink1 sp_shrinks sp_sweep_mismatch case)));
    (let w = gen_step (draw "utilization") in
     if utilization_mismatch w then
       record "utilization" (utilization_detail (shrink1 step_shrinks utilization_mismatch w)));
    (let case = gen_departures (draw "departures") in
     if departures_mismatch case then
       record "departures"
         (departures_detail (shrink1 departures_shrinks departures_mismatch case)));
    (let exact, horizon, residents = gen_fcfs (draw "fcfs-departures") in
     let still_fails residents = fcfs_mismatch (exact, horizon, residents) in
     if still_fails residents then
       let residents = shrink1 (list_shrinks fcfs_resident_shrinks) still_fails residents in
       record "fcfs-departures" (fcfs_detail (exact, horizon, residents)));
    if !found = [] then incr passed;
    List.iter
      (fun (check, detail) ->
        Obs.incr c_mismatches;
        let m = { seed; index = i; check; detail; file = None } in
        let m =
          match out_dir with
          | None -> m
          | Some dir ->
              let name = Printf.sprintf "kernel-mismatch-%d-%d-%s.txt" seed i check in
              { m with file = Some (Fuzz.write_report dir name (render m)) }
        in
        mismatches := m :: !mismatches)
      (List.rev !found)
  in
  Obs.span_int sp "tested" tested;
  Obs.span_int sp "mismatches" (List.length !mismatches);
  Obs.span_end sp;
  { tested; passed = !passed; mismatches = List.rev !mismatches; elapsed_s }
