(* Frozen baseline curve kernels.

   These are the original (pre-optimization) implementations of the
   pointwise combinations and the prefix-minimum scan, kept as an
   executable specification built only on the public curve API, with the
   paper's formulas composed on them.  The optimized kernels in
   {!Rta_curve.Minplus} and {!Rta_curve.Pl} are differential-tested
   against this module by the property tests and by `rta fuzz --kernels`,
   so every speedup ships with a proof-of-parity.  Do not "improve" this
   module: its value is that it stays simple, slow and obviously right. *)

module Step = Rta_curve.Step
module Pl = Rta_curve.Pl

type mode = [ `Left | `Right ]

(* Sorted, deduplicated event times: 0, every knot of [avail], and for every
   jump time j of [work] both j and j+1, so that both the value and the
   left limit of [work] are constant on every open interval between
   events. *)
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

(* The paper's min (A(t) - A(s) + c(s)), as the prefix minimum added back
   to the availability, and Theorem 5's variant of it, 0 while blocked. *)
let transform ~mode ~avail ~work = add avail (prefix_min ~mode ~avail ~work)

let transform_blocked ~mode ~avail ~work ~blocking =
  if blocking < 0 then invalid_arg "Reference.transform_blocked: negative blocking";
  if blocking = 0 then transform ~mode ~avail ~work
  else
    let m = prefix_min ~mode ~avail ~work in
    Pl.splice ~at:blocking Pl.zero (add avail (Pl.shift_right m blocking))

(* Theorem 3 as printed, rank by rank: A = t - (summed service above),
   S = A + min over s <= t of (c(s-) - A(s)), and Theorem 2's departures
   min (floor (S / tau)) arr on the service truncated at the horizon. *)
let spp_exact ~horizon residents =
  snd
    (List.fold_left_map
       (fun hp_svc (tau, arr) ->
         let avail = sub Pl.identity hp_svc in
         let svc = transform ~mode:`Left ~avail ~work:(Step.scale arr tau) in
         let dep =
           Step.min2 (Pl.to_step_floor_div (Pl.truncate_at svc horizon) tau) arr
         in
         (add hp_svc svc, (svc, dep)))
       Pl.zero residents)

(* Theorems 5-6 as the analysis composed them before the single-pass
   sweeps: the lower bound t - b - C(t) + m(t - b), with m the level-k
   prefix minimum, and the upper bound min (t - P(t), V(t)), each cut at 0
   and monotonized. *)
let sp_bounds ~blocking ~hp_work_hi ~hp_svc_lo ~level_work ~work_hi =
  let lo =
    add
      (sub (Pl.linear ~slope:1 ~offset:(-blocking)) (Pl.of_step hp_work_hi))
      (Pl.shift_right (prefix_min ~mode:`Left ~avail:Pl.identity ~work:level_work) blocking)
  in
  let hi =
    min2 (sub Pl.identity hp_svc_lo)
      (transform ~mode:`Right ~avail:Pl.identity ~work:work_hi)
  in
  (Pl.prefix_max (max2 lo Pl.zero), Pl.prefix_max (max2 hi Pl.zero))

(* Theorem 7's utilization as the transform the analysis ran before the
   busy-period walk: the identity plus the prefix minimum against it. *)
let utilization ~mode w = transform ~mode ~avail:Pl.identity ~work:w

(* Theorem 2 as the analysis composed it before the inverse read: the
   service cut at the horizon, divided down and capped, then the minimum
   with the arrivals. *)
let departures ~horizon ~tau ~service ~arrivals =
  Step.min2
    (Pl.to_step_floor_div ~cap:(Step.final_value arrivals)
       (Pl.truncate_at service horizon) tau)
    arrivals

(* The per-instance FCFS construction (Theorems 7-9): the summed
   workloads folded, the release-tie check over a sorted list of every
   release, and one utilization search per instance, each instance's
   departure a sample and the arrival cap a pointwise minimum. *)
let tie_free arrivals =
  let releases =
    List.concat_map
      (fun arr ->
        let prev = ref (Step.init_value arr) in
        Array.to_list (Step.jumps arr)
        |> List.map (fun (t, v) ->
               let n = v - !prev in
               prev := v;
               (t, n)))
      arrivals
  in
  let times = List.map fst releases in
  List.for_all (fun (_, n) -> n <= 1) releases
  && List.length (List.sort_uniq Int.compare times) = List.length times

let fcfs ~exact ~horizon residents =
  let sum side =
    List.fold_left
      (fun acc (tau, lo, hi) -> Step.add acc (Step.scale (side lo hi) tau))
      Step.zero residents
  in
  let g_lo = sum (fun lo _ -> lo) and g_hi = sum (fun _ hi -> hi) in
  let exact_inputs =
    exact
    && List.for_all (fun (_, lo, hi) -> Step.equal lo hi) residents
    && tie_free (List.map (fun (_, lo, _) -> lo) residents)
  in
  let util mode g = Pl.Inverse.make (Pl.truncate_at (utilization ~mode g) horizon) in
  let u_lo = util `Left g_lo in
  let u_hi = if exact_inputs then u_lo else util `Right g_hi in
  let per_instance arr theta_of =
    let count = Step.final_value arr in
    let rec jumps i acc =
      match if i > count then None else Option.bind (Step.inverse arr i) theta_of with
      | Some theta -> jumps (i + 1) ((theta, i) :: acc)
      | None -> Step.min2 (Step.of_samples (List.rev acc)) arr
    in
    jumps 1 []
  in
  List.map
    (fun (tau, arr_lo, arr_hi) ->
      let dep_lo =
        per_instance arr_lo (fun a ->
            match Pl.Inverse.geq u_lo (Step.eval g_hi a) with
            | Some theta when theta <= horizon -> Some theta
            | Some _ | None -> None)
      in
      let dep_hi =
        per_instance arr_hi (fun a ->
            Pl.Inverse.geq u_hi (Step.eval_left g_lo a + tau)
            |> Option.map (max (a + tau)))
      in
      let exact = exact_inputs && Step.equal dep_lo dep_hi in
      (dep_lo, (if exact then dep_lo else dep_hi), exact))
    residents

(* Theorems 5-6 exactly as printed (Eqs. 16-19), chained along the
   dependency order on this module's kernels: the availability subtracts
   the summed {e lower} service bounds of the higher-priority residents
   (Eq. 17), the lower bound is 0 while blocked and the blocked transform
   beyond it, the upper one the [`Right] transform of the same
   availability, each cut at 0 and monotonized, and the departures
   Theorem 2's.  Unsound as a lower bound (EXPERIMENTS.md, T-2b). *)
let as_printed ~release_horizon ~horizon system =
  let open Rta_model in
  let module Engine = Rta_core.Engine in
  for p = 0 to System.processor_count system - 1 do
    if System.scheduler_of system p <> Sched.Spnp then
      invalid_arg "Reference.as_printed: SPNP processors only"
  done;
  let order =
    match Rta_core.Deps.compute system with
    | Rta_core.Deps.Acyclic order -> order
    | Rta_core.Deps.Cyclic _ -> invalid_arg "Reference.as_printed: cyclic system"
  in
  let entries =
    Array.init (System.job_count system) (fun j ->
        Array.make (Array.length (System.job system j).System.steps) None)
  in
  let entry (id : System.subjob_id) = Option.get entries.(id.job).(id.step) in
  List.iter
    (fun (id : System.subjob_id) ->
      let { System.proc; exec = tau; _ } = System.step system id in
      let arr_lo, arr_hi =
        if id.step = 0 then
          let f =
            Arrival.arrival_function (System.job system id.job).System.arrival
              ~horizon:release_horizon
          in
          (f, f)
        else
          let pred = entry { id with System.step = id.step - 1 } in
          (pred.Engine.dep_lo, Lazy.force pred.Engine.dep_hi)
      in
      let rec above = function
        | h :: rest when h <> id -> h :: above rest
        | _ -> []
      in
      let hp_svc =
        List.fold_left
          (fun acc h -> add acc (Lazy.force (entry h).Engine.svc_lo))
          Pl.zero
          (above (System.by_priority system proc))
      in
      let blocking = System.max_blocking system id in
      let avail = sub Pl.identity hp_svc in
      let lo =
        let b_fun =
          if blocking = 0 then avail
          else
            Pl.splice ~at:blocking Pl.zero
              (sub (Pl.linear ~slope:1 ~offset:(-blocking)) hp_svc)
        in
        transform_blocked ~mode:`Left ~avail:b_fun ~work:(Step.scale arr_lo tau)
          ~blocking
      in
      let hi = transform ~mode:`Right ~avail ~work:(Step.scale arr_hi tau) in
      let svc_lo = Pl.prefix_max (max2 lo Pl.zero)
      and svc_hi = Pl.prefix_max (max2 hi Pl.zero) in
      entries.(id.job).(id.step) <-
        Some
          {
            Engine.id;
            tau;
            arr_lo;
            arr_hi;
            svc_lo = Lazy.from_val svc_lo;
            svc_hi = Lazy.from_val svc_hi;
            dep_lo = departures ~horizon ~tau ~service:svc_lo ~arrivals:arr_lo;
            dep_hi = Lazy.from_val (departures ~horizon ~tau ~service:svc_hi ~arrivals:arr_hi);
            exact = false;
          })
    order;
  {
    Engine.system;
    horizon;
    release_horizon;
    entries = Array.map (Array.map Option.get) entries;
    loops = [];
  }

(* The textbook Section 6 fixed point: a full Jacobi sweep over the whole
   system that recomputes every subjob from the previous iterate each
   round, on the same per-processor step ({!Rta_core.Local}) as the
   analysis.  No components, no dirty set, no caches across rounds, and
   Eq. 12 extracted by one binary search per instance. *)

type sweep = {
  per_job : Rta_model.Verdict.t array;
  per_stage : Rta_model.Verdict.t array array;
  iterations : int;
}

let jacobi ?(max_iterations = 64) ?release_horizon ~horizon system =
  let open Rta_model in
  let module Local = Rta_core.Local in
  let release_horizon = Option.value ~default:horizon release_horizon in
  let sentinel = Rta_core.Fixpoint.unbounded_sentinel horizon in
  let n_jobs = System.job_count system in
  let releases =
    Array.init n_jobs (fun j ->
        Arrival.arrival_function (System.job system j).System.arrival
          ~horizon:release_horizon)
  in
  (* ends.(j).(st): sum of the execution times of stages 0..st, the
     earliest completion and the initial iterate. *)
  let ends =
    Array.init n_jobs (fun j ->
        let acc = ref 0 in
        Array.map
          (fun (s : System.step) ->
            acc := !acc + s.System.exec;
            !acc)
          (System.job system j).System.steps)
  in
  let x = Array.map Array.copy ends in
  let iterations = ref 0 and changed = ref true in
  while !changed && !iterations < max_iterations do
    incr iterations;
    changed := false;
    let x' = Array.map Array.copy x in
    for p = 0 to System.processor_count system - 1 do
      let residents = System.subjobs_on system p in
      let inputs =
        List.map
          (fun (id : System.subjob_id) ->
            let j = id.System.job and st = id.System.step in
            let shifted d = Step.shift_right releases.(j) d in
            let arr_lo, arr_hi =
              if st = 0 then (releases.(j), releases.(j))
              else
                ( shifted (min x.(j).(st - 1) sentinel),
                  shifted ends.(j).(st - 1) )
            in
            let tau = (System.step system id).System.exec in
            (id, Local.input ~tau ~arr_lo ~arr_hi ~exact:false))
          residents
      in
      (* Every resident's bounds this round: FCFS residents share one
         context; static-priority ones are computed highest rank first,
         each extending the aggregate of those above it (which FCFS never
         reads). *)
      let fcfs = lazy (Local.fcfs ~exact:false ~horizon (List.map snd inputs)) in
      let outputs =
        let rank_order =
          if System.scheduler_of system p = Sched.Fcfs then residents
          else System.by_priority system p
        in
        List.fold_left
          (fun (hp, acc) id ->
            let i = List.assoc id inputs in
            let policy =
              Local.policy system id ~hp:(fun () -> hp) ~fcfs:(fun () -> Lazy.force fcfs)
            in
            let o = Local.step ~horizon policy i in
            (Local.push hp i o, (id, o) :: acc))
          (Local.empty, []) rank_order
        |> snd
      in
      let output id = List.assoc id outputs in
      List.iter
        (fun (id : System.subjob_id) ->
          let j = id.System.job and st = id.System.step in
          let dep_lo = (output id).Local.dep_lo in
          let count = Step.final_value releases.(j) in
          let rec worst m acc =
            if m > count then acc
            else
              match (Step.inverse dep_lo m, Step.inverse releases.(j) m) with
              | Some d, Some r -> worst (m + 1) (max acc (d - r))
              | None, _ | _, None -> sentinel
          in
          let r = if count = 0 then x.(j).(st) else min (worst 1 0) sentinel in
          if r > x.(j).(st) then begin
            x'.(j).(st) <- r;
            changed := true
          end)
        residents
    done;
    Array.blit x' 0 x 0 n_jobs
  done;
  let verdict r = if r >= sentinel then Verdict.Unbounded else Bounded r in
  let last row =
    if !changed then Verdict.Unbounded else verdict row.(Array.length row - 1)
  in
  {
    per_job = Array.map last x;
    per_stage = Array.map (Array.map verdict) x;
    iterations = !iterations;
  }
