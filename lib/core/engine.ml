open Rta_model
module Step = Rta_curve.Step
module Pl = Rta_curve.Pl

let log_src = Logs.Src.create "rta.engine" ~doc:"Response-time analysis engine"

module Log = (val Logs.src_log log_src)
module Obs = Rta_obs

let c_runs = Obs.counter "engine.runs"
let c_path_spp_exact = Obs.counter "engine.path.spp_exact"
let c_path_spp_bounds = Obs.counter "engine.path.spp_bounds"
let c_path_spnp = Obs.counter "engine.path.spnp"
let c_path_fcfs = Obs.counter "engine.path.fcfs"
let c_path_fcfs_exact = Obs.counter "engine.path.fcfs_exact"
let h_entry_arr_jumps = Obs.histogram "engine.entry.arr_jumps"
let h_entry_dep_jumps = Obs.histogram "engine.entry.dep_jumps"
let h_entry_svc_knots = Obs.histogram "engine.entry.svc_knots"
let h_subjob_seconds = Obs.histogram "engine.subjob.seconds"

type entry = {
  id : System.subjob_id;
  tau : int;
  arr_lo : Step.t;
  arr_hi : Step.t;
  svc_lo : Pl.t;
  svc_hi : Pl.t;
  dep_lo : Step.t;
  dep_hi : Step.t;
  exact : bool;
}

type t = {
  system : System.t;
  horizon : int;
  release_horizon : int;
  entries : entry array array;
}

let entry t (id : System.subjob_id) = t.entries.(id.job).(id.step)

let is_exact t =
  Array.for_all (Array.for_all (fun e -> e.exact)) t.entries

let entry_csv t id =
  let e = entry t id in
  let change_points =
    [ e.arr_lo; e.arr_hi; e.dep_lo; e.dep_hi ]
    |> List.concat_map (fun f -> Array.to_list (Step.jumps f) |> List.map fst)
    |> List.cons 0 |> List.sort_uniq Int.compare
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "t,arr_lo,arr_hi,dep_lo,dep_hi\n";
  List.iter
    (fun time ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%d,%d\n" time (Step.eval e.arr_lo time)
           (Step.eval e.arr_hi time) (Step.eval e.dep_lo time)
           (Step.eval e.dep_hi time)))
    change_points;
  Buffer.contents buf

(* Structural invariants an entry must satisfy whatever the scheduler path
   that produced it; the fuzz oracle runs this on every entry before
   comparing against the simulator.  All bracket comparisons are restricted
   to [0, horizon] — beyond it the engine makes no claims (FCFS upper
   departures in particular may jump later). *)
let check_entry t e =
  let failures = ref [] in
  let fail fmt =
    Format.kasprintf (fun s -> failures := s :: !failures) fmt
  in
  let check_inv (type a) name
      (module C : Rta_curve.CURVE with type t = a) (c : a) =
    try C.invariant c with Invalid_argument msg -> fail "%s: %s" name msg
  in
  check_inv "arr_lo" Rta_curve.step_curve e.arr_lo;
  check_inv "arr_hi" Rta_curve.step_curve e.arr_hi;
  check_inv "dep_lo" Rta_curve.step_curve e.dep_lo;
  check_inv "dep_hi" Rta_curve.step_curve e.dep_hi;
  check_inv "svc_lo" Rta_curve.pl_curve e.svc_lo;
  check_inv "svc_hi" Rta_curve.pl_curve e.svc_hi;
  if not (Pl.is_nondecreasing e.svc_lo) then fail "svc_lo is decreasing somewhere";
  if not (Pl.is_nondecreasing e.svc_hi) then fail "svc_hi is decreasing somewhere";
  if Pl.eval e.svc_lo 0 < 0 then
    fail "svc_lo(0) = %d < 0" (Pl.eval e.svc_lo 0);
  let h = t.horizon in
  let step_h f = Step.truncate_after f h and pl_h f = Pl.truncate_at f h in
  if not (Step.dominates (step_h e.arr_hi) (step_h e.arr_lo)) then
    fail "arr_hi does not dominate arr_lo within the horizon";
  if not (Step.dominates (step_h e.dep_hi) (step_h e.dep_lo)) then
    fail "dep_hi does not dominate dep_lo within the horizon";
  if not (Pl.dominates (pl_h e.svc_hi) (pl_h e.svc_lo)) then
    fail "svc_hi does not dominate svc_lo within the horizon";
  if e.exact then begin
    if not (Step.equal e.arr_lo e.arr_hi) then
      fail "exact entry with arr_lo <> arr_hi";
    if not (Step.equal e.dep_lo e.dep_hi) then
      fail "exact entry with dep_lo <> dep_hi";
    if not (Pl.equal e.svc_lo e.svc_hi) then
      fail "exact entry with svc_lo <> svc_hi";
    (* Theorem 2 on the exact path: dep = floor(S / tau), capped by the
       arrivals. *)
    let derived =
      Step.min2
        (Pl.to_step_floor_div (Pl.truncate_at e.svc_lo h) e.tau)
        e.arr_lo
    in
    if not (Step.equal e.dep_lo derived) then
      fail "exact entry violates dep = floor(S / tau)"
  end;
  List.rev !failures

let run ?(cancel = Cancel.never) ?(fault = `None) ?(variant = `Sound)
    ?(extra_blocking = fun _ -> 0) ?release_horizon ~horizon system =
  let release_horizon = Option.value ~default:horizon release_horizon in
  if release_horizon > horizon then
    invalid_arg "Engine.run: release_horizon exceeds horizon";
  let sp_run =
    if Obs.enabled () then begin
      Obs.incr c_runs;
      let sp = Obs.span_begin "engine.run" in
      Obs.span_int sp "horizon" horizon;
      Obs.span_int sp "release_horizon" release_horizon;
      Obs.span_int sp "subjobs" (System.subjob_count system);
      sp
    end
    else Obs.no_span
  in
  (* Balanced even when a checkpoint raises [Cancel.Cancelled] mid-walk:
     the span (and any trace sink) must see the run closed. *)
  Fun.protect ~finally:(fun () -> Obs.span_end sp_run) @@ fun () ->
  match Deps.compute system with
  | Deps.Cyclic stuck -> Error (`Cyclic stuck)
  | Deps.Acyclic order ->
      let per_subjob init =
        Array.init (System.job_count system) (fun j ->
            Array.make (Array.length (System.job system j).System.steps) init)
      in
      let inputs = per_subjob None and outputs = per_subjob None in
      let entries = per_subjob None in
      let output_of (id : System.subjob_id) =
        Option.get outputs.(id.job).(id.step)
      in
      (* Arrival brackets: the first stage is the exact release trace; later
         stages inherit the predecessor's departure bounds.  Built once per
         subjob, when it or an FCFS co-resident first needs it. *)
      let input_of (id : System.subjob_id) =
        match inputs.(id.job).(id.step) with
        | Some i -> i
        | None ->
            let tau = (System.step system id).System.exec in
            let i =
              if id.step = 0 then
                let f =
                  Arrival.arrival_function (System.job system id.job).System.arrival
                    ~horizon:release_horizon
                in
                Local.input ~tau ~arr_lo:f ~arr_hi:f ~exact:true
              else
                let pred = output_of { id with System.step = id.step - 1 } in
                Local.input ~tau ~arr_lo:pred.Local.dep_lo
                  ~arr_hi:pred.Local.dep_hi ~exact:pred.Local.exact
            in
            inputs.(id.job).(id.step) <- Some i;
            i
      in
      (* An FCFS processor's context needs every resident's arrivals, which
         the dependency order guarantees before its first resident. *)
      let fcfs = Array.make (System.processor_count system) None in
      let fcfs_of p =
        match fcfs.(p) with
        | Some c -> c
        | None ->
            let residents = System.subjobs_on system p in
            let c = Local.fcfs ~exact:true (List.map input_of residents) in
            fcfs.(p) <- Some c;
            c
      in
      (* Per subjob, not per processor: processor-level order can be cyclic
         when the subjob order is not (A.1 over B.2 on P while B.1 over A.2
         on Q). *)
      let compute (id : System.subjob_id) =
        Cancel.check cancel;
        let sp =
          if Obs.enabled () then
            Obs.span_begin
              (Printf.sprintf "engine.subjob %s.%d"
                 (System.job system id.job).System.name (id.step + 1))
          else Obs.no_span
        in
        let t0 = if Obs.enabled () then Obs.now () else 0. in
        let proc = (System.step system id).System.proc in
        let sched = System.scheduler_of system proc in
        let static ~preemptive ~blocking =
          let hp = System.higher_priority_on system id in
          let hp = List.map (fun h -> (input_of h, output_of h)) hp in
          Local.Static { preemptive; blocking; hp }
        in
        let policy =
          match sched with
          | Sched.Spp -> static ~preemptive:true ~blocking:(extra_blocking id)
          | Sched.Spnp ->
              static ~preemptive:false
                ~blocking:(System.max_blocking system id + extra_blocking id)
          | Sched.Fcfs -> Local.Fcfs (fcfs_of proc)
        in
        let i = input_of id in
        let o = Local.step ~cancel ~fault ~variant ~horizon policy i in
        outputs.(id.job).(id.step) <- Some o;
        let { Local.tau; arr_lo; arr_hi; _ } = i in
        let { Local.dep_lo; dep_hi; exact; _ } = o in
        let svc_lo = Lazy.force o.Local.svc_lo and svc_hi = Lazy.force o.Local.svc_hi in
        Log.debug (fun m ->
            m "subjob %s.%d: %s, %d instances in [lo..hi] = [%d..%d]"
              (System.job system id.job).System.name (id.step + 1)
              (if exact then "exact" else "bounded")
              (Step.final_value arr_lo) (Step.final_value dep_lo)
              (Step.final_value dep_hi));
        entries.(id.job).(id.step) <-
          Some { id; tau; arr_lo; arr_hi; svc_lo; svc_hi; dep_lo; dep_hi; exact };
        if Obs.enabled () then begin
          let counter, path =
            match (sched, exact) with
            | Sched.Spp, true -> (c_path_spp_exact, "spp-exact")
            | Sched.Spp, false -> (c_path_spp_bounds, "spp-bounds")
            | Sched.Spnp, _ -> (c_path_spnp, "spnp")
            | Sched.Fcfs, true -> (c_path_fcfs_exact, "fcfs-exact")
            | Sched.Fcfs, false -> (c_path_fcfs, "fcfs")
          in
          Obs.incr counter;
          Obs.span_str sp "path" path;
          Obs.span_int sp "arr_lo.jumps" (Step.jump_count arr_lo);
          Obs.span_int sp "arr_hi.jumps" (Step.jump_count arr_hi);
          Obs.span_int sp "dep_lo.jumps" (Step.jump_count dep_lo);
          Obs.span_int sp "dep_hi.jumps" (Step.jump_count dep_hi);
          Obs.span_int sp "svc_lo.knots" (Pl.knot_count svc_lo);
          Obs.span_int sp "svc_hi.knots" (Pl.knot_count svc_hi);
          Obs.observe_int h_entry_arr_jumps (Step.jump_count arr_hi);
          Obs.observe_int h_entry_dep_jumps (Step.jump_count dep_hi);
          Obs.observe_int h_entry_svc_knots (Pl.knot_count svc_hi);
          Obs.observe h_subjob_seconds (Obs.now () -. t0)
        end;
        Obs.span_end sp
      in
      List.iter compute order;
      let entries = Array.map (Array.map Option.get) entries in
      Ok { system; horizon; release_horizon; entries }
