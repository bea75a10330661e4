module Step = Rta_curve.Step
module Pl = Rta_curve.Pl

type fault = [ `None | `Fcfs_drop_tau ]
type variant = [ `Sound | `As_printed ]

type input = {
  tau : int;
  arr_lo : Step.t;
  arr_hi : Step.t;
  work_lo : Step.t;
  work_hi : Step.t;
  exact : bool;
}

(* Exact brackets are one curve twice; scaling and keeping it once halves
   the work and the memory of every exact chain. *)
let input ~tau ~arr_lo ~arr_hi ~exact =
  let work_lo = Step.scale arr_lo tau in
  let work_hi = if arr_hi == arr_lo then work_lo else Step.scale arr_hi tau in
  { tau; arr_lo; arr_hi; work_lo; work_hi; exact }

type output = {
  svc_lo : Pl.t Lazy.t;
  svc_hi : Pl.t Lazy.t;
  dep_lo : Step.t;
  dep_hi : Step.t;
  exact : bool;
}

type fcfs = { g_lo : Step.t; g_hi : Step.t; exact_inputs : bool }

(* Beyond the paper: with exact resident arrivals and no release ties on
   the processor, the FCFS order is fully determined and the lower/upper
   constructions coincide — the analysis is exact and exactness propagates
   down the chain.  (The paper deems exact FCFS "difficult, if not
   impossible" because of ties; absence of ties is checkable per instance,
   so we claim exactness exactly when it holds.) *)
let tie_free residents =
  (* Every release as (time, instances released then).  A resident's jump
     times are distinct, so a repeated time is a tie between residents;
     simultaneous instances of the same subjob (a jump by more than 1) are
     ties too. *)
  let releases =
    List.concat_map
      (fun r ->
        let prev = ref (Step.init_value r.arr_lo) in
        Array.to_list (Step.jumps r.arr_lo)
        |> List.map (fun (t, v) ->
               let n = v - !prev in
               prev := v;
               (t, n)))
      residents
  in
  let times = List.map fst releases in
  List.for_all (fun (_, n) -> n <= 1) releases
  && List.length (List.sort_uniq Int.compare times) = List.length times

let fcfs ~exact residents =
  {
    g_lo = Step.sum (List.map (fun r -> r.work_lo) residents);
    g_hi = Step.sum (List.map (fun r -> r.work_hi) residents);
    exact_inputs =
      exact
      && List.for_all (fun r -> Step.equal r.arr_lo r.arr_hi) residents
      && tie_free residents;
  }

type policy =
  | Static of { preemptive : bool; blocking : int; hp : (input * output) list }
  | Fcfs of fcfs

(* Departure bounds from service bounds (Theorem 2 / Lemmas 1-2), with the
   arrival caps described in local.mli.  The arrival cap bounds departures
   by the instance count, so converting service beyond
   [tau * final_value arr] only creates jumps the min discards; capping the
   conversion keeps the work proportional to the instance count instead of
   the horizon. *)
let departures ~horizon ~tau ~arr_lo ~arr_hi ~svc_lo ~svc_hi =
  let dep_of svc arr =
    Step.min2
      (Pl.to_step_floor_div ~cap:(Step.final_value arr)
         (Pl.truncate_at svc horizon) tau)
      arr
  in
  let dep_lo = dep_of svc_lo arr_lo in
  (dep_lo, if svc_hi == svc_lo && arr_hi == arr_lo then dep_lo else dep_of svc_hi arr_hi)

(* FCFS departure targets are polled for cancellation every
   [cancel_stride] instances: the per-instance loops are the only part of
   the analysis whose cost grows with the instance count rather than the
   subjob count. *)
let cancel_stride = 512

module type S = sig
  val step :
    ?cancel:Cancel.t ->
    ?fault:fault ->
    ?variant:variant ->
    horizon:int ->
    policy ->
    input ->
    output
end

module Make (K : Rta_curve.KERNELS) = struct
  let sum l = List.fold_left K.add Pl.zero l
  let pos f = K.max2 f Pl.zero
  let transform ~mode ~avail ~work = K.add avail (K.prefix_min ~mode ~avail ~work)

  (* Exact SPP service (Theorem 3): avail A = t - sum of exact
     higher-priority services; S = min over s <= t of
     (A(t) - A(s) + c(s-)). *)
  let spp_exact_service ~hp_services ~work =
    transform ~mode:`Left ~avail:(K.sub Pl.identity (sum hp_services)) ~work

  (* Approximate static-priority service bounds (the role of Theorems 5-6;
     SPP is the blocking-0 case).

     Lower bound — level-k busy-window argument, provably pointwise sound:
     let s0 be the start of the level-k busy period containing t, so that
     all level-<=k queues are empty at s0.  Our service satisfies

       S(t) >= c(s0-) + (t - s0) - b - sum_hp (c_hp(t) - c_hp(s0-))

     because within (s0, t] the processor is never idle while our queue is
     backlogged, suffers at most one non-preemptive blocking (b, Eq. 15),
     and higher-priority service is bounded by the workload that arrived
     after s0.  Substituting bounds in the sound direction and taking the
     minimum over all s (a superset of candidates only loosens a lower
     bound):

       S_lo(t) = (t - b - sum_hp c_hi_hp(t))
                 + min over s <= t of (W_lo(s-) - s)

     with W_lo = c_lo_self + sum_hp c_lo_hp.  Note: the recursion printed
     in the paper's Eq. 17 (interference via hp service {e lower} bounds)
     is unsound — see EXPERIMENTS.md for the two-job counterexample; this
     formulation replaces it.

     Upper bound — two sound components, combined by pointwise min:
     (a) S(t) <= t - sum_hp S_lo_hp(t): total capacity minus guaranteed
         higher-priority service (valid because S_lo_hp is pointwise
         sound);
     (b) S(t) <= min over s of ((t - s) + c_hi(s)): unit service rate
         applied to the upper-bounded own workload (Theorem 6's shape with
         B = t). *)
  let sp_bounds ~blocking ~hp_lo ~hp_work_lo ~hp_work_hi ~work_lo ~work_hi =
    let lo =
      let d =
        K.sub
          (Pl.linear ~slope:1 ~offset:(-blocking))
          (Pl.of_step (Step.sum hp_work_hi))
      in
      let w_lo = Step.sum (work_lo :: hp_work_lo) in
      let m = K.prefix_min ~mode:`Left ~avail:Pl.identity ~work:w_lo in
      (* The minimum ranges over s <= t - b (the paper's Eq. 16 domain):
         the candidate s = t - b is bounded below by the level-k workload
         already arrived, while s close to t would drive the bound to minus
         infinity once arrivals stop. *)
      K.add d (Pl.shift_right m blocking)
    in
    let hi =
      let capacity_left = K.sub Pl.identity (sum hp_lo) in
      let smoothed_work = transform ~mode:`Right ~avail:Pl.identity ~work:work_hi in
      K.min2 capacity_left smoothed_work
    in
    (Pl.prefix_max (pos lo), Pl.prefix_max (pos hi))

  (* Theorems 5-6 exactly as printed in the paper (Eqs. 16-19), kept for
     the ablation study.  Known unsound as a departure lower bound (see
     above); never used by default. *)
  let sp_bounds_as_printed ~blocking ~hp_lo ~work_lo ~work_hi =
    let interference = sum hp_lo in
    let lo =
      let b_fun =
        if blocking = 0 then K.sub Pl.identity interference
        else
          Pl.splice ~at:blocking Pl.zero
            (K.sub (Pl.linear ~slope:1 ~offset:(-blocking)) interference)
      in
      Rta_curve.Minplus.transform_blocked ~mode:`Left ~avail:b_fun ~work:work_lo
        ~blocking
    in
    let hi =
      transform ~mode:`Right ~avail:(K.sub Pl.identity interference) ~work:work_hi
    in
    (Pl.prefix_max (pos lo), Pl.prefix_max (pos hi))

  (* FCFS departure bounds (Theorems 7-9), built instance by instance; see
     local.mli for the soundness argument.  [exact_inputs] (arrivals exact
     and release-tie-free on this processor) selects the exact Left-limit
     utilization for the upper bound too, which makes the two bounds
     coincide.  The cancellation token is polled every [cancel_stride]
     instances and between the min-plus transforms, the other
     instance-bearing cost, to keep the deadline-to-response latency
     bounded on huge horizons. *)
  let fcfs_departures ~cancel ~fault ~exact_inputs ~horizon ~tau ~arr_lo
      ~arr_hi ~g_lo ~g_hi =
    let u_lo =
      Pl.truncate_at (transform ~mode:`Left ~avail:Pl.identity ~work:g_lo) horizon
    in
    Cancel.check cancel;
    let u_hi =
      if exact_inputs then u_lo
      else
        Pl.truncate_at
          (transform ~mode:`Right ~avail:Pl.identity ~work:g_hi)
          horizon
    in
    Cancel.check cancel;
    (* One departure jump per instance i of [arr], at [theta_of a_i]
       where a_i is the instance's arrival; stops at the first instance
       without one.  Jump times are non-decreasing in i because both the
       arrival inverse and the workload before it are; of_samples
       tolerates ties. *)
    let per_instance arr theta_of =
      let count = Step.final_value arr in
      let rec jumps i acc =
        if i land (cancel_stride - 1) = 0 then Cancel.check cancel;
        match if i > count then None else Option.bind (Step.inverse arr i) theta_of with
        | Some theta -> jumps (i + 1) ((theta, i) :: acc)
        | None -> Step.of_samples (List.rev acc)
      in
      jumps 1 []
    in
    let dep_lo =
      per_instance arr_lo (fun a_i ->
          let target =
            match fault with
            | `None -> Step.eval g_hi a_i
            | `Fcfs_drop_tau ->
                (* Planted bug: the left limit misses the workload arriving
                   exactly at a_i — the instance's own tau. *)
                Step.eval_left g_hi a_i
          in
          match Pl.inverse_geq u_lo target with
          | Some theta when theta <= horizon -> Some theta
          | Some _ | None -> None)
    in
    let dep_hi =
      per_instance arr_hi (fun a_i ->
          Pl.inverse_geq u_hi (Step.eval_left g_lo a_i + tau)
          |> Option.map (max (a_i + tau)))
    in
    (Step.min2 dep_lo arr_lo, Step.min2 dep_hi arr_hi)

  let step ?(cancel = Cancel.never) ?(fault = `None) ?(variant = `Sound)
      ~horizon policy (i : input) =
    match policy with
    | Static { preemptive; blocking; hp } ->
        let hp_lo = List.map (fun (_, o) -> Lazy.force o.svc_lo) hp in
        let svc_lo, svc_hi, exact =
          if
            preemptive && blocking = 0 && i.exact
            && List.for_all (fun ((_ : input), o) -> o.exact) hp
          then
            let svc = spp_exact_service ~hp_services:hp_lo ~work:i.work_lo in
            (svc, svc, true)
          else
            let lo, hi =
              match variant with
              | `Sound ->
                  sp_bounds ~blocking ~hp_lo
                    ~hp_work_lo:(List.map (fun (h, _) -> h.work_lo) hp)
                    ~hp_work_hi:(List.map (fun (h, _) -> h.work_hi) hp)
                    ~work_lo:i.work_lo ~work_hi:i.work_hi
              | `As_printed ->
                  sp_bounds_as_printed ~blocking ~hp_lo ~work_lo:i.work_lo
                    ~work_hi:i.work_hi
            in
            (lo, hi, false)
        in
        let dep_lo, dep_hi =
          departures ~horizon ~tau:i.tau ~arr_lo:i.arr_lo ~arr_hi:i.arr_hi
            ~svc_lo ~svc_hi
        in
        {
          svc_lo = Lazy.from_val svc_lo;
          svc_hi = Lazy.from_val svc_hi;
          dep_lo;
          dep_hi;
          exact;
        }
    | Fcfs { g_lo; g_hi; exact_inputs } ->
        let dep_lo, dep_hi =
          fcfs_departures ~cancel ~fault ~exact_inputs ~horizon ~tau:i.tau
            ~arr_lo:i.arr_lo ~arr_hi:i.arr_hi ~g_lo ~g_hi
        in
        let exact = exact_inputs && Step.equal dep_lo dep_hi in
        let dep_hi = if exact then dep_lo else dep_hi in
        (* Thm 8/9-flavoured service curves, for inspection only. *)
        let svc_lo = lazy (Pl.of_step (Step.scale dep_lo i.tau)) in
        let svc_hi =
          if exact then svc_lo
          else lazy (K.add (Pl.of_step (Step.scale dep_hi i.tau)) (Pl.const i.tau))
        in
        { svc_lo; svc_hi; dep_lo; dep_hi; exact }
end

include Make (struct
  let add = Pl.add
  let sub = Pl.sub
  let min2 = Pl.min2
  let max2 = Pl.max2
  let prefix_min = Rta_curve.Minplus.prefix_min
end)
