(* Ints only: the polymorphic versions call the runtime's generic compare. *)
open struct [@@@warning "-32"] let min = Int.min let max = Int.max let compare = Int.compare external ( < ) : int -> int -> bool = "%lessthan" external ( <= ) : int -> int -> bool = "%lessequal" external ( > ) : int -> int -> bool = "%greaterthan" external ( >= ) : int -> int -> bool = "%greaterequal" end

module Step = Rta_curve.Step
module Pl = Rta_curve.Pl
module Minplus = Rta_curve.Minplus

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

type handoff = Sums | Idle of Rta_curve.Idle.t | Level of Step.t

type output = {
  svc_lo : Pl.t Lazy.t;
  svc_hi : Pl.t Lazy.t;
  dep_lo : Step.t;
  dep_hi : Step.t Lazy.t;
  exact : bool;
  handoff : handoff;
}

type fcfs = {
  g_lo : Step.t;
  g_hi : Step.t;
  u_lo : Pl.Inverse.inv;
  u_hi : Pl.Inverse.inv Lazy.t;
  exact_inputs : bool;
}

(* Beyond the paper: with exact resident arrivals and no release ties on
   the processor, the FCFS order is fully determined and the lower/upper
   constructions coincide — the analysis is exact and exactness propagates
   down the chain.  (The paper deems exact FCFS "difficult, if not
   impossible" because of ties; absence of ties is checkable per instance,
   so we claim exactness exactly when it holds.) *)
let tie_free ~g_lo residents =
  (* Simultaneous instances of the same subjob (a jump by more than 1)
     are ties. *)
  let rises_by_one (r : input) =
    let rec from i prev =
      i = Step.jump_count r.arr_lo
      || (Step.jump_value r.arr_lo i = prev + 1 && from (i + 1) (prev + 1))
    in
    from 0 (Step.init_value r.arr_lo)
  in
  (* A resident's jump times are distinct, and [g_lo], the sum of the
     residents' [tau * arr_lo], jumps at each distinct one of all of
     them: it has as many jumps as the residents together exactly when
     no two residents share a release time. *)
  List.for_all rises_by_one residents
  && Step.jump_count g_lo
     = List.fold_left (fun n (r : input) -> n + Step.jump_count r.arr_lo) 0 residents

(* The running workload sums of a higher-priority set, its members' lower
   service curves, and while every member is exact SPP the idle time they
   leave.  The service curves are kept, not summed: a persistent list
   whose tail is the next-higher rank's, read as one sum by
   Minplus.sp_upper's merged reader; while the idle map is valid the list
   is the one lazy curve of the busy time the map records.  Each lazy sum
   captures only the previous lazy sum and the pushed curve, never the
   previous record: on an SPP-exact processor the work sums are never
   forced, and a closure over the record would keep every earlier idle
   map alive through that unforced chain. *)
type hp = {
  count : int;
  work_lo : Step.t Lazy.t;
  work_hi : Step.t Lazy.t;
  svc_lo : Pl.t Lazy.t list;
  idle : Rta_curve.Idle.t option;
}

let empty =
  {
    count = 0;
    work_lo = Lazy.from_val Step.zero;
    work_hi = Lazy.from_val Step.zero;
    svc_lo = [];
    idle = Some Rta_curve.Idle.full;
  }

let hp_work_lo hp = Lazy.force hp.work_lo
let hp_work_hi hp = Lazy.force hp.work_hi
let hp_svc_lo hp = Pl.sum (List.map Lazy.force hp.svc_lo)

type policy =
  | Static of { preemptive : bool; blocking : int; hp : hp }
  | Fcfs of fcfs

let policy system id ~hp ~fcfs =
  let open Rta_model in
  match System.scheduler_of system (System.step system id).System.proc with
  | Sched.Spp -> Static { preemptive = true; blocking = 0; hp = hp () }
  | Sched.Spnp ->
      Static { preemptive = false; blocking = System.max_blocking system id; hp = hp () }
  | Sched.Fcfs -> Fcfs (fcfs ())

(* FCFS departure targets are polled for cancellation every
   [cancel_stride] instances: the per-jump loops are the only part of the
   analysis whose cost grows with the instance count rather than the
   subjob count. *)
let cancel_stride = 512

let push hp (i : input) (o : output) =
  let extend add sum x =
    if hp.count = 0 then Lazy.from_val x else lazy (add (Lazy.force sum) x)
  in
  let work_lo =
    match o.handoff with
    | Level w -> Lazy.from_val w
    | Sums | Idle _ -> extend Step.add hp.work_lo i.work_lo
  in
  let work_hi =
    (* Exact brackets share one workload curve; so do their sums. *)
    if hp.work_hi == hp.work_lo && i.work_hi == i.work_lo then work_lo
    else extend Step.add hp.work_hi i.work_hi
  in
  let idle =
    match (hp.idle, o.handoff) with
    | Some _, Idle rest -> Some rest
    | _ -> None
  in
  let svc_lo =
    match idle with
    | Some rest -> [ lazy (Rta_curve.Idle.busy rest) ]
    | None -> o.svc_lo :: hp.svc_lo
  in
  { count = hp.count + 1; work_lo; work_hi; svc_lo; idle }

(* Theorem 7's utilization functions, once per processor and truncated
   at the horizon, kept as inverse handles: every departure bound reads
   them only through their pseudo-inverse.  The upper one is built when
   the first resident's upper departure bound is forced; with exact
   tie-free inputs the Left-limit utilization serves as the upper one
   too, which makes the two FCFS bounds coincide.  The cancellation
   token is polled after each utilization, the processor's other
   instance-bearing cost.

   Cost per processor with I instances: the pairwise workload sums are
   O(I log I), the tie check and the two utilization walks O(I), and
   every departure bound one O(log I) query per arrival jump, so
   O(I log I) in all. *)
let fcfs ?(cancel = Cancel.never) ~exact ~horizon residents =
  let g_lo = Step.sum (List.map (fun (r : input) -> r.work_lo) residents) in
  let g_hi =
    (* Exact brackets share one workload curve; so do their sums. *)
    if List.for_all (fun (r : input) -> r.work_hi == r.work_lo) residents
    then g_lo
    else Step.sum (List.map (fun (r : input) -> r.work_hi) residents)
  in
  let exact_inputs =
    exact
    && List.for_all (fun (r : input) -> Step.equal r.arr_lo r.arr_hi) residents
    && tie_free ~g_lo residents
  in
  let utilization mode g = Pl.truncate_at (Minplus.utilization ~mode g) horizon in
  let u_lo = Pl.Inverse.make (utilization `Left g_lo) in
  Cancel.check cancel;
  let u_hi =
    if exact_inputs then Lazy.from_val u_lo
    else
      lazy
        (let u = Pl.Inverse.make (utilization `Right g_hi) in
         Cancel.check cancel;
         u)
  in
  { g_lo; g_hi; u_lo; u_hi; exact_inputs }

let fcfs_exact ctx = ctx.exact_inputs

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
               + min over s <= t - b of (W_lo(s-) - s)

   with W_lo = c_lo_self + sum_hp c_lo_hp.  The minimum ranges over
   s <= t - b (the paper's Eq. 16 domain): the candidate s = t - b is
   bounded below by the level-k workload already arrived, while s close
   to t would drive the bound to minus infinity once arrivals stop.
   Note: the recursion printed
   in the paper's Eq. 17 (interference via hp service {e lower} bounds)
   is unsound — see EXPERIMENTS.md for the two-job counterexample; this
   formulation replaces it, and the ablation runs the printed one
   (Rta_check.Reference.as_printed).

   Upper bound — two sound components, combined by pointwise min:
   (a) S(t) <= t - sum_hp S_lo_hp(t): total capacity minus guaranteed
       higher-priority service (valid because S_lo_hp is pointwise
       sound);
   (b) S(t) <= min over s of ((t - s) + c_hi(s)): unit service rate
       applied to the upper-bounded own workload (Theorem 6's shape with
       B = t).

   The two higher-priority workload sums and the members' lower service
   curves come from the running aggregate [hp]; the level-k workload
   [W_lo] is returned too, for the next rank's aggregate to reuse.  Both
   bounds, cut at 0 and monotonized, are one sweep each
   (Minplus.sp_lower, sp_upper): the lower walks the jumps of
   sum_hp c_hi_hp and W_lo once, and the upper reads the higher-priority
   service sum, through a merged reader over the members' curves, only
   where the resident's own upper workload is above the bound so far.
   (b) is the resident's own [`Right] utilization.  The upper bound is
   built only when forced: no verdict reads it, only the next stage's
   upper arrival bracket through the upper departure bound.  The thunk
   holds the members' curves, not the aggregate. *)
let sp_bounds ~blocking ~hp ~work_lo ~work_hi =
  let w_lo =
    if hp.count = 0 then work_lo else Step.add (Lazy.force hp.work_lo) work_lo
  in
  let lo =
    Minplus.sp_lower ~blocking ~hp_work:(Lazy.force hp.work_hi)
      ~level_work:w_lo
  in
  let hp_service = hp.svc_lo in
  let hi =
    lazy
      (Minplus.sp_upper ~hp_service:(List.map Lazy.force hp_service)
         ~own_work:work_hi
         ~own_util:(Minplus.utilization ~mode:`Right work_hi))
  in
  (lo, hi, w_lo)

(* FCFS departure bounds (Theorems 7-9) on the processor's utilization
   functions; see local.mli for the soundness argument.  The instances
   of one arrival jump share their arrival time a, so one search serves
   them all: they depart together at max theta a, theta being the time
   the bound's target is reached (the arrival cap).  Targets and
   arrivals only rise, so the workloads are read through cursors.  The
   walk stops at the first jump without a departure, and polls the
   cancellation token each time it passes another [cancel_stride]
   instances, to keep the deadline-to-response latency bounded on huge
   horizons. *)
let fcfs_departures ~cancel ~ctx ~horizon ~tau ~arr_lo ~arr_hi =
  let { g_lo; g_hi; u_lo; u_hi; _ } = ctx in
  let per_jump arr theta_of =
    let n = Step.jump_count arr in
    let b = Step.Builder.create (n + 1) in
    let poll = ref cancel_stride in
    (* The instances up to [v], arrived at [a]; false once they have no
       departure. *)
    let group a v =
      if v >= !poll then begin
        Cancel.check cancel;
        poll := (v / cancel_stride + 1) * cancel_stride
      end;
      match theta_of a with
      | Some theta ->
          Step.Builder.push b (max theta a) v;
          true
      | None -> false
    in
    let rec from i =
      i < n && group (Step.jump_time arr i) (Step.jump_value arr i) && from (i + 1)
    in
    let init = Step.init_value arr in
    ignore ((init = 0 || group 0 init) && from 0);
    Step.Builder.to_step b
  in
  let dep_lo =
    let g_hi_at = Step.Cursor.make g_hi in
    per_jump arr_lo (fun a ->
        match Pl.Inverse.geq u_lo (Step.Cursor.eval g_hi_at a) with
        | Some theta when theta <= horizon -> Some theta
        | Some _ | None -> None)
  in
  let dep_hi =
    lazy
      (let u_hi = Lazy.force u_hi and g_lo_before = Step.Cursor.make g_lo in
       per_jump arr_hi (fun a ->
           Pl.Inverse.geq u_hi (Step.Cursor.eval_left g_lo_before a + tau)
           |> Option.map (max (a + tau))))
  in
  (dep_lo, dep_hi)

let step ?(cancel = Cancel.never) ~horizon policy (i : input) =
  match policy with
  | Static { preemptive = true; blocking = 0; hp = { idle = Some idle; _ } }
    when i.exact ->
      (* Theorem 3, read off the idle time the higher ranks left: the
         departures are the completions by the horizon, which is
         Theorem 2's [min (floor (S / tau)) arr] on the truncated
         service. *)
      let use =
        Rta_curve.Idle.consume idle ~tau:i.tau ~arrivals:i.arr_lo ~horizon
      in
      {
        svc_lo = use.service;
        svc_hi = use.service;
        dep_lo = use.departures;
        dep_hi = Lazy.from_val use.departures;
        exact = true;
        handoff = Idle use.rest;
      }
  | Static { blocking; hp; _ } ->
      let svc_lo, svc_hi, w_lo =
        sp_bounds ~blocking ~hp ~work_lo:i.work_lo ~work_hi:i.work_hi
      in
      (* Departure bounds from service bounds (Theorem 2 / Lemmas 1-2),
         with the arrival caps described in local.mli, read instance by
         instance off the service curves: the work follows the instance
         count and the curves' knots, not the horizon.  The upper one is
         built with the upper service curve it reads, when forced. *)
      let { tau; arr_hi; _ } = i in
      let departures service arrivals =
        Minplus.departures ~horizon ~tau ~service ~arrivals
      in
      {
        svc_lo = Lazy.from_val svc_lo;
        svc_hi;
        dep_lo = departures svc_lo i.arr_lo;
        dep_hi = lazy (departures (Lazy.force svc_hi) arr_hi);
        exact = false;
        handoff = Level w_lo;
      }
  | Fcfs ctx ->
      let dep_lo, dep_hi =
        fcfs_departures ~cancel ~ctx ~horizon ~tau:i.tau
          ~arr_lo:i.arr_lo ~arr_hi:i.arr_hi
      in
      (* Only exact tie-free inputs can make the bounds coincide, and
         then the comparison forces the upper one at once. *)
      let exact = ctx.exact_inputs && Step.equal dep_lo (Lazy.force dep_hi) in
      let dep_hi = if exact then Lazy.from_val dep_lo else dep_hi in
      (* Thm 8/9-flavoured service curves, for inspection only. *)
      let svc_lo = lazy (Pl.of_step (Step.scale dep_lo i.tau)) in
      let svc_hi =
        if exact then svc_lo
        else
          lazy
            (Pl.add (Pl.of_step (Step.scale (Lazy.force dep_hi) i.tau)) (Pl.const i.tau))
      in
      { svc_lo; svc_hi; dep_lo; dep_hi; exact; handoff = Sums }
