open Rta_model
module Engine = Rta_core.Engine
module Response = Rta_core.Response
module Step = Rta_curve.Step
module Pl = Rta_curve.Pl
module IntSet = Set.Make (Int)

type violation = {
  id : System.subjob_id option;
  kind : string;
  detail : string;
}

type verdict = Passed | Skipped of string | Failed of violation list

let pp_violation ppf v =
  (match v.id with
  | Some id -> Format.fprintf ppf "job %d step %d: " id.System.job id.System.step
  | None -> ());
  Format.fprintf ppf "%s: %s" v.kind v.detail

(* Merged event times of the given curves within [0, horizon]: between two
   consecutive merged times every step function is constant and every
   piecewise-linear curve is linear, so pointwise checks at these times are
   exhaustive over [0, horizon]. *)
let merged_times ~horizon ~steps ~pls =
  let acc = IntSet.add 0 (IntSet.singleton horizon) in
  let add_pt acc (t, _) = if t <= horizon then IntSet.add t acc else acc in
  let acc =
    List.fold_left (fun acc f -> Array.fold_left add_pt acc (Step.jumps f)) acc steps
  in
  let acc =
    List.fold_left (fun acc f -> Array.fold_left add_pt acc (Pl.knots f)) acc pls
  in
  IntSet.elements acc

let check_subjob ~add ~horizon system t (e : Engine.entry) sim =
  let id = Some e.Engine.id in
  List.iter (fun msg -> add id "invariant" msg) (Engine.check_entry t e);
  let arr = Rta_sim.Sim.arrival_function sim system e.Engine.id in
  let dep = sim.Rta_sim.Sim.departures.(e.Engine.id.System.job).(e.Engine.id.System.step) in
  let svc = sim.Rta_sim.Sim.service.(e.Engine.id.System.job).(e.Engine.id.System.step) in
  (* Arrival and departure brackets, and exact-trace equality. *)
  let bracket kind_lo kind_hi sim_f lo hi =
    (* The merged times are ascending (IntSet.elements), so cursor
       evaluation walks each curve once instead of binary-searching per
       event. *)
    let sim_c = Step.Cursor.make sim_f in
    let lo_c = Step.Cursor.make lo and hi_c = Step.Cursor.make hi in
    List.iter
      (fun tt ->
        let s = Step.Cursor.eval sim_c tt in
        let l = Step.Cursor.eval lo_c tt and h = Step.Cursor.eval hi_c tt in
        if s < l then
          add id kind_lo (Printf.sprintf "t=%d: simulated count %d < lower bound %d" tt s l);
        if s > h then
          add id kind_hi (Printf.sprintf "t=%d: simulated count %d > upper bound %d" tt s h);
        if e.Engine.exact && s <> l then
          add id "exact"
            (Printf.sprintf "t=%d: exact entry claims %d events, simulation has %d" tt l s))
      (merged_times ~horizon ~steps:[ sim_f; lo; hi ] ~pls:[])
  in
  bracket "arr_lo" "arr_hi" arr e.Engine.arr_lo e.Engine.arr_hi;
  bracket "dep_lo" "dep_hi" dep e.Engine.dep_lo e.Engine.dep_hi;
  (* Service bracket.  On exact FCFS entries svc_hi = svc_lo = tau * dep,
     which sits below the true cumulative service mid-execution by design —
     the upper check would be a false positive there. *)
  let fcfs =
    System.scheduler_of system (System.step system e.Engine.id).System.proc = Sched.Fcfs
  in
  let check_upper = not (fcfs && e.Engine.exact) in
  let svc_c = Pl.Cursor.make svc in
  let lo_c = Pl.Cursor.make e.Engine.svc_lo
  and hi_c = Pl.Cursor.make e.Engine.svc_hi in
  List.iter
    (fun tt ->
      let s = Pl.Cursor.eval svc_c tt in
      let l = Pl.Cursor.eval lo_c tt and h = Pl.Cursor.eval hi_c tt in
      if s < l then
        add id "svc_lo" (Printf.sprintf "t=%d: simulated service %d < lower bound %d" tt s l);
      if check_upper && s > h then
        add id "svc_hi" (Printf.sprintf "t=%d: simulated service %d > upper bound %d" tt s h);
      if e.Engine.exact && (not fcfs) && s <> l then
        add id "exact"
          (Printf.sprintf "t=%d: exact service claims %d, simulation has %d" tt l s))
    (merged_times ~horizon ~steps:[] ~pls:[ svc; e.Engine.svc_lo; e.Engine.svc_hi ])

let check_responses ~add ~horizon system t sim =
  for j = 0 to System.job_count system - 1 do
    let last = Array.length (System.job system j).System.steps - 1 in
    let id = Some { System.job = j; step = last } in
    List.iter
      (fun (m, verdict) ->
        match verdict with
        | Response.Unbounded -> ()
        | Response.Bounded bound -> (
            let r = sim.Rta_sim.Sim.per_job.(j).(m - 1) in
            match r.Rta_sim.Sim.completed with
            | Some c ->
                if c - r.Rta_sim.Sim.released > bound then
                  add id "response"
                    (Printf.sprintf
                       "instance %d: simulated response %d exceeds bound %d" m
                       (c - r.Rta_sim.Sim.released) bound)
            | None ->
                if r.Rta_sim.Sim.released + bound <= horizon then
                  add id "response"
                    (Printf.sprintf
                       "instance %d: claimed completion by %d, but it never \
                        completed within the horizon %d"
                       m
                       (r.Rta_sim.Sim.released + bound)
                       horizon)))
      (Response.per_instance t ~job:j)
  done

let check ?fault ?release_horizon ~horizon system =
  match Engine.run ?fault ?release_horizon ~horizon system with
  | Error (`Cyclic ids) ->
      Skipped
        (Printf.sprintf "cyclic dependencies through %d subjobs" (List.length ids))
  | Ok t ->
      let sim = Rta_sim.Sim.run ?release_horizon system ~horizon in
      let violations = ref [] in
      let add id kind detail = violations := { id; kind; detail } :: !violations in
      Array.iter
        (Array.iter (fun e -> check_subjob ~add ~horizon system t e sim))
        t.Engine.entries;
      check_responses ~add ~horizon system t sim;
      (match List.rev !violations with [] -> Passed | vs -> Failed vs)
