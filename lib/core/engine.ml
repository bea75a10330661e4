(* Ints only: the polymorphic versions call the runtime's generic compare. *)
open struct [@@@warning "-32"] let min = Int.min let max = Int.max let compare = Int.compare external ( < ) : int -> int -> bool = "%lessthan" external ( <= ) : int -> int -> bool = "%lessequal" external ( > ) : int -> int -> bool = "%greaterthan" external ( >= ) : int -> int -> bool = "%greaterequal" end

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
  svc_lo : Pl.t Lazy.t;
  svc_hi : Pl.t Lazy.t;
  dep_lo : Step.t;
  dep_hi : Step.t Lazy.t;
  exact : bool;
}

type loop = {
  members : System.subjob_id list;
  rounds : int;
  settled : bool;
}

type t = {
  system : System.t;
  horizon : int;
  release_horizon : int;
  entries : entry array array;
  loops : loop list;
}

let entry t (id : System.subjob_id) = t.entries.(id.job).(id.step)

let is_exact t =
  Array.for_all (Array.for_all (fun e -> e.exact)) t.entries

let entry_csv t id =
  let e = entry t id in
  let dep_hi = Lazy.force e.dep_hi in
  let change_points =
    [ e.arr_lo; e.arr_hi; e.dep_lo; dep_hi ]
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
           (Step.eval dep_hi time)))
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
  let check_inv name invariant c =
    try invariant c with Invalid_argument msg -> fail "%s: %s" name msg
  in
  check_inv "arr_lo" Step.invariant e.arr_lo;
  check_inv "arr_hi" Step.invariant e.arr_hi;
  let dep_hi = Lazy.force e.dep_hi in
  check_inv "dep_lo" Step.invariant e.dep_lo;
  check_inv "dep_hi" Step.invariant dep_hi;
  let svc_lo = Lazy.force e.svc_lo and svc_hi = Lazy.force e.svc_hi in
  check_inv "svc_lo" Pl.invariant svc_lo;
  check_inv "svc_hi" Pl.invariant svc_hi;
  if not (Pl.is_nondecreasing svc_lo) then fail "svc_lo is decreasing somewhere";
  if not (Pl.is_nondecreasing svc_hi) then fail "svc_hi is decreasing somewhere";
  if Pl.eval svc_lo 0 < 0 then
    fail "svc_lo(0) = %d < 0" (Pl.eval svc_lo 0);
  let h = t.horizon in
  let step_h f = Step.truncate_after f h and pl_h f = Pl.truncate_at f h in
  if not (Step.dominates (step_h e.arr_hi) (step_h e.arr_lo)) then
    fail "arr_hi does not dominate arr_lo within the horizon";
  if not (Step.dominates (step_h dep_hi) (step_h e.dep_lo)) then
    fail "dep_hi does not dominate dep_lo within the horizon";
  if not (Pl.dominates (pl_h svc_hi) (pl_h svc_lo)) then
    fail "svc_hi does not dominate svc_lo within the horizon";
  if e.exact then begin
    if not (Step.equal e.arr_lo e.arr_hi) then
      fail "exact entry with arr_lo <> arr_hi";
    if not (Step.equal e.dep_lo dep_hi) then
      fail "exact entry with dep_lo <> dep_hi";
    if not (Pl.equal svc_lo svc_hi) then
      fail "exact entry with svc_lo <> svc_hi";
    (* Theorem 2 on the exact path: dep = floor(S / tau), capped by the
       arrivals. *)
    let derived =
      Step.min2 (Pl.to_step_floor_div (Pl.truncate_at svc_lo h) e.tau) e.arr_lo
    in
    if not (Step.equal e.dep_lo derived) then
      fail "exact entry violates dep = floor(S / tau)"
  end;
  List.rev !failures

let run ?(cancel = Cancel.never) ?release_horizon ~horizon system =
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
  let components = Deps.components system in
  let cyclic =
    List.exists (function Deps.Loop _ -> true | Deps.Single _ -> false) components
  in
  let per_subjob init =
    Array.init (System.job_count system) (fun j ->
        Array.make (Array.length (System.job system j).System.steps) init)
  in
  (* Outputs are not kept: an entry holds what later stages read, and
     an exact SPP output's idle map lives on only in its processor's
     running aggregate. *)
  let inputs = per_subjob None and entries = per_subjob None in
  let entry_of (id : System.subjob_id) = Option.get entries.(id.job).(id.step) in
  (* Arrival brackets: the first stage is the exact release trace; later
     stages inherit the predecessor's departure bounds.  Built once per
     subjob, when it, an FCFS co-resident or a loop past it first needs
     it; a loop's members get their final brackets from the loop.  In a
     system with a loop, a later stage's upper bracket is also capped by
     its earliest possible arrivals (engine.mli); a cap that changes
     nothing keeps the chain's curve, so exact brackets stay one curve. *)
  let rec input_of (id : System.subjob_id) =
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
            let pred = entry_of { id with System.step = id.step - 1 } in
            let dep_hi = Lazy.force pred.dep_hi in
            let arr_hi =
              if not cyclic then dep_hi
              else
                let steps = (System.job system id.job).System.steps in
                let prefix = ref 0 in
                for st = 0 to id.step - 1 do
                  prefix := !prefix + steps.(st).System.exec
                done;
                let release = (input_of { id with System.step = 0 }).Local.arr_lo in
                let capped = Step.min2 dep_hi (Step.shift_right release !prefix) in
                if Step.equal capped dep_hi then dep_hi else capped
            in
            Local.input ~tau ~arr_lo:pred.dep_lo ~arr_hi ~exact:pred.exact
        in
        inputs.(id.job).(id.step) <- Some i;
        i
  in
  (* An FCFS processor's context needs every resident's arrivals, which
     the dependency order guarantees before its first resident outside a
     loop.  A loop holding some of its residents holds its join point
     ({!Deps}), so this context is built after the loop, from its final
     brackets. *)
  let fcfs = Array.make (System.processor_count system) None in
  let fcfs_of p =
    match fcfs.(p) with
    | Some c -> c
    | None ->
        let residents = System.subjobs_on system p in
        let c =
          Local.fcfs ~cancel ~exact:true ~horizon (List.map input_of residents)
        in
        fcfs.(p) <- Some c;
        c
  in
  (* A static-priority resident depends on every resident above it, so
     the dependency order computes a processor's residents in rank
     order: one running aggregate per processor is always the
     higher-priority set of the next resident computed there, paired
     with the residents still to come (none listed for FCFS).  A loop's
     members on a processor are consecutive in rank, so the aggregate
     when the loop starts is what its topmost member reads, and pushing
     the members in rank order when it settles restores the invariant. *)
  let running =
    Array.init (System.processor_count system) (fun p ->
        ( Local.empty,
          if System.scheduler_of system p = Sched.Fcfs then []
          else System.by_priority system p ))
  in
  (* A computed subjob's entry, and its processor's aggregate advanced
     past it. *)
  let record (id : System.subjob_id) (i : Local.input) (o : Local.output) =
    let proc = (System.step system id).System.proc in
    (* The lowest resident's aggregate would never be read: its
       processor is done, and its sums are dropped. *)
    (match running.(proc) with
    | hp, next :: below ->
        assert (next = id);
        running.(proc) <-
          ((if below = [] then Local.empty else Local.push hp i o), below)
    | _, [] -> ());
    let { Local.tau; arr_lo; arr_hi; _ } = i in
    let { Local.dep_lo; dep_hi; exact; svc_lo; svc_hi; _ } = o in
    Log.debug (fun m ->
        m "subjob %s.%d: %s, %d instances, %d departed by the horizon"
          (System.job system id.job).System.name (id.step + 1)
          (if exact then "exact" else "bounded")
          (Step.final_value arr_lo) (Step.final_value dep_lo));
    entries.(id.job).(id.step) <-
      Some { id; tau; arr_lo; arr_hi; svc_lo; svc_hi; dep_lo; dep_hi; exact }
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
    let policy =
      Local.policy system id
        ~hp:(fun () -> fst running.(proc))
        ~fcfs:(fun () -> fcfs_of proc)
    in
    let i = input_of id in
    let o = Local.step ~cancel ~horizon policy i in
    record id i o;
    if Obs.enabled () then begin
      let { Local.arr_lo; arr_hi; _ } = i in
      let { Local.dep_lo; dep_hi; exact; svc_lo; svc_hi; _ } = o in
      let counter, path =
        match (System.scheduler_of system proc, exact) with
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
      (* Upper bounds and service curves only where the path has built
         them: tracing forces nothing the untraced run skips. *)
      if Lazy.is_val dep_hi then
        Obs.span_int sp "dep_hi.jumps" (Step.jump_count (Lazy.force dep_hi));
      if Lazy.is_val svc_lo then
        Obs.span_int sp "svc_lo.knots" (Pl.knot_count (Lazy.force svc_lo));
      if Lazy.is_val svc_hi then begin
        Obs.span_int sp "svc_hi.knots" (Pl.knot_count (Lazy.force svc_hi));
        Obs.observe_int h_entry_svc_knots (Pl.knot_count (Lazy.force svc_hi))
      end;
      Obs.observe_int h_entry_arr_jumps (Step.jump_count arr_hi);
      Obs.observe_int h_entry_dep_jumps (Step.jump_count dep_lo);
      Obs.observe h_subjob_seconds (Obs.now () -. t0)
    end;
    Obs.span_end sp
  in
  (* A loop's members iterate together ({!Fixpoint.loop}) on the final
     bounds of everything before them, and are recorded when it stops:
     per processor, static-priority members in rank order. *)
  let settle members =
    let loop =
      Fixpoint.loop ~cancel ~release_horizon ~horizon
        ~input:input_of
        ~above:(fun p -> fst running.(p))
        system members
    in
    let in_loop = Hashtbl.create 16 in
    List.iter (fun id -> Hashtbl.replace in_loop id ()) members;
    List.map (fun (id : System.subjob_id) -> (System.step system id).System.proc) members
    |> List.sort_uniq compare
    |> List.iter (fun p ->
           List.iter
             (fun id ->
               if Hashtbl.mem in_loop id then begin
                 let i, o = loop.Fixpoint.final id in
                 inputs.(id.System.job).(id.System.step) <- Some i;
                 record id i o
               end)
             (System.by_priority system p));
    { members; rounds = loop.Fixpoint.rounds; settled = loop.Fixpoint.settled }
  in
  let loops =
    List.filter_map
      (function
        | Deps.Single id ->
            compute id;
            None
        | Deps.Loop members -> Some (settle members))
      components
  in
  let entries = Array.map (Array.map Option.get) entries in
  Ok { system; horizon; release_horizon; entries; loops }
