(* Ints only: the polymorphic versions call the runtime's generic compare. *)
open struct [@@@warning "-32"] let min = Int.min let max = Int.max let compare = Int.compare external ( < ) : int -> int -> bool = "%lessthan" external ( <= ) : int -> int -> bool = "%lessequal" external ( > ) : int -> int -> bool = "%greaterthan" external ( >= ) : int -> int -> bool = "%greaterequal" end

open Rta_model
module Step = Rta_curve.Step

let log_src = Logs.Src.create "rta.fixpoint" ~doc:"Section 6 fixed-point analysis"

module Log = (val Logs.src_log log_src)
module Obs = Rta_obs

let c_analyses = Obs.counter "fixpoint.analyses"
let c_recomputes = Obs.counter "fixpoint.recomputes"
let c_skipped = Obs.counter "fixpoint.skipped_clean"
let h_iterations = Obs.histogram "fixpoint.iterations"
let h_residual = Obs.histogram "fixpoint.residual"
let h_dirty = Obs.histogram "fixpoint.dirty_per_iteration"
let g_last_iterations = Obs.gauge "fixpoint.last.iterations"
let g_last_converged = Obs.gauge "fixpoint.last.converged"

(* Sentinel for "no bound within the horizon": larger than any reachable
   completion offset, so joins keep it absorbing. *)
let unbounded_sentinel horizon = (2 * horizon) + 1

type loop = {
  rounds : int;
  settled : bool;
  final : System.subjob_id -> Local.input * Local.output;
}

(* The unknown vector X assigns every member of a loop a bound on its
   COMPLETION time relative to the job's release (not a per-stage latency:
   summing per-stage latencies measured from optimistic arrivals would
   double-count the arrival uncertainty window and the iteration would
   diverge).  Given X, a subjob's arrival bracket is

   - at stage 0: the release trace;
   - after a member: release + best-case prefix (earliest) and
     release + X of that member (latest);
   - after a subjob outside the loop: that subjob's final bounds, as the
     caller hands them in ([input]);

   local departure bounds follow from the per-processor step ({!Local}),
   and X'_st = max over instances m of (dep_lo^{-1}(m) - release(m)), one
   [Step.max_lag] walk from the release trace to dep_lo.

   X only grows (each member's new value is joined with its old one).
   A round is a symmetric Gauss-Seidel sweep by processor: the members
   one processor at a time, ascending on odd rounds and descending on
   even ones, each rise written to X in place at once.  The iteration
   stops after a round with no rise, at an X with F(X) <= X for every
   member, which makes the completion bounds sound (argued in the .mli).

   Incremental evaluation: recomputing member [id] reads exactly these X
   components —

   - X of its chain predecessor, when that is a member (its own
     latest-arrival shift);
   - on SPP/SPNP: X of the member chain predecessors of every
     higher-priority resident (their arrival brackets feed the
     interference terms; the priority order is total per processor, so the
     transitive higher-priority closure is the direct set);
   - on FCFS: X of the member chain predecessors of every resident (the
     summed workload G of Theorem 7), members or not.

   Every X component carries a version stamp, the tick at which it last
   changed, and a member remembers the newest stamp of its read list when
   X last took in its bounds.  It is dirty, and re-run at its turn,
   exactly when that stamp is stale: some component it reads moved since.
   A recompute with unchanged inputs is deterministic and reproduces its
   previous value, so the iterates, the stopping test and the round count
   coincide exactly with the same sweep recomputing every member each
   round — asserted by the differential tests in test/core. *)
(* Iteration cap: a loop whose X vector still moves after this many
   rounds is unsettled (stated in the .mli). *)
let max_iterations = 64

let loop ?(cancel = Cancel.never) ~release ~horizon ~input ~above system members =
  Obs.incr c_analyses;
  let sp_run =
    if Obs.enabled () then begin
      let sp = Obs.span_begin "fixpoint.loop" in
      Obs.span_int sp "horizon" horizon;
      Obs.span_int sp "subjobs" (List.length members);
      sp
    end
    else Obs.no_span
  in
  (* Balanced even when a cancellation checkpoint raises mid-iteration:
     closing the run span also restores the observer's span cursor. *)
  Fun.protect ~finally:(fun () -> Obs.span_end sp_run) @@ fun () ->
  let sentinel = unbounded_sentinel horizon in
  let proc_of id = (System.step system id).System.proc in
  let fcfs_on p = System.scheduler_of system p = Sched.Fcfs in
  (* Local numbering: the members first, then the other residents of
     their FCFS processors, whose arrivals are in the summed workloads. *)
  let index = Hashtbl.create 64 in
  let numbered = ref [] in
  let number id =
    if not (Hashtbl.mem index id) then begin
      Hashtbl.replace index id (Hashtbl.length index);
      numbered := id :: !numbered
    end
  in
  List.iter number members;
  let m = Hashtbl.length index in
  let procs = List.sort_uniq compare (List.map proc_of members) in
  List.iter
    (fun p -> if fcfs_on p then List.iter number (System.subjobs_on system p))
    procs;
  let ids = Array.of_list (List.rev !numbered) in
  let local id = Hashtbl.find index id in
  let member id =
    match Hashtbl.find_opt index id with Some k -> k < m | None -> false
  in
  (* ends id: sum of the execution times of stages 0..id.step, the
     earliest completion of that stage after release. *)
  let ends (id : System.subjob_id) =
    let steps = (System.job system id.job).System.steps in
    let acc = ref 0 in
    for st = 0 to id.step do
      acc := !acc + steps.(st).System.exec
    done;
    !acc
  in
  (* X.(k): completion bound of member k relative to release. *)
  let x = Array.init m (fun k -> ends ids.(k)) in
  (* The member chain predecessor of every numbered subjob. *)
  let pred =
    Array.map
      (fun (id : System.subjob_id) ->
        let p = { id with System.step = id.step - 1 } in
        if id.step > 0 && member p then Some (local p) else None)
      ids
  in
  (* The earliest-start shift delays releases the least, so it is the upper
     arrival counting function of the bracket; it never changes. *)
  let arr_hi =
    Array.mapi
      (fun k (id : System.subjob_id) ->
        match pred.(k) with
        | Some q -> Step.shift_right (release id.job) (ends ids.(q))
        | None -> Step.zero)
      ids
  in
  (* Read lists, as local indices of X components (see the read-set
     derivation above): a subjob's arrival bracket reads its member chain
     predecessor; its static-priority bounds also read those of its
     higher-priority co-residents; an FCFS processor's context, and so
     every FCFS member's bounds, read those of all residents.  Residents
     ranked above a loop's members come before the loop, so only members
     have member predecessors among them. *)
  let pred_reads k = Option.to_list pred.(k) in
  let n_procs = System.processor_count system in
  let fcfs_reads = Array.make n_procs [] in
  List.iter
    (fun p ->
      if fcfs_on p then
        fcfs_reads.(p) <-
          List.concat_map (fun id -> pred_reads (local id)) (System.subjobs_on system p))
    procs;
  let reads =
    Array.init m (fun k ->
        let id = ids.(k) in
        let p = proc_of id in
        if fcfs_on p then fcfs_reads.(p)
        else
          pred_reads k
          @ List.concat_map
              (fun h -> if member h then pred_reads (local h) else [])
              (System.higher_priority_on system id))
  in
  (* Version stamps for the cross-iteration caches below:
     [version.(k)] is the global tick at which X component [k] last changed.
     A cached value is valid as long as the maximum version over its read
     list is unchanged, because ticks only grow. *)
  let tick = ref 0 in
  let version = Array.make m 0 in
  let max_version = List.fold_left (fun acc k -> max acc version.(k)) 0 in
  let cached cache k reads compute =
    let cur = max_version reads in
    match cache.(k) with
    | Some (v, value) when v = cur -> value
    | _ ->
        let value = compute () in
        cache.(k) <- Some (cur, value);
        value
  in
  let input_cache = Array.make (Array.length ids) None in
  let output_cache = Array.make m None in
  (* [absorbed.(k)]: the newest stamp of member [k]'s read list when X.(k)
     last took in its bounds (-1 before).  While it is current the member
     is clean: a recompute would only reproduce those bounds. *)
  let absorbed = Array.make m (-1) in
  let hp_cache = Array.make m None in
  let fcfs_cache = Array.make n_procs None in
  let input_of k =
    cached input_cache k (pred_reads k) (fun () ->
        let id = ids.(k) in
        let tau = (System.step system id).System.exec in
        match pred.(k) with
        | Some q ->
            let arr_lo = Step.shift_right (release id.job) (min x.(q) sentinel) in
            Local.input ~tau ~arr_lo ~arr_hi:arr_hi.(k) ~exact:false
        | None when id.step = 0 ->
            let f = release id.job in
            Local.input ~tau ~arr_lo:f ~arr_hi:f ~exact:false
        | None -> input id)
  in
  (* The resident ranked next above each static-priority member, and the
     aggregate of everything ranked above a loop's members on their
     processor. *)
  let next_higher = Array.make m None in
  let boundary = Array.make n_procs Local.empty in
  List.iter
    (fun p ->
      if not (fcfs_on p) then begin
        boundary.(p) <- above p;
        ignore
          (List.fold_left
             (fun prev id ->
               if member id then next_higher.(local id) <- prev;
               Some id)
             None (System.by_priority system p))
      end)
    procs;
  (* A member's bounds, and its higher-priority aggregate, are cached under
     its read list, so a recompute runs the local step once whether its
     own turn or a lower-priority co-resident asks first; a member whose
     bounds a co-resident forced stays dirty ([absorbed]) until its own
     turn takes them into X.  The next-higher member's read list is
     contained in this one's, so its aggregate is fresh too; the topmost
     member's is the boundary. *)
  let rec output_of k =
    let id = ids.(k) in
    let p = proc_of id in
    cached output_cache k reads.(k) @@ fun () ->
    let fcfs () =
      cached fcfs_cache p fcfs_reads.(p) (fun () ->
          Local.fcfs ~cancel ~exact:false ~horizon
            (List.map (fun id -> input_of (local id)) (System.subjobs_on system p)))
    in
    Local.step ~cancel ~horizon
      (Local.policy system id ~hp:(fun () -> hp_of k) ~fcfs)
      (input_of k)
  and hp_of k =
    match next_higher.(k) with
    | Some h when member h ->
        cached hp_cache k reads.(k) (fun () ->
            let h = local h in
            Local.push (hp_of h) (input_of h) (output_of h))
    | Some _ | None -> boundary.(proc_of ids.(k))
  in
  (* The members of each processor with one, as blocks in ascending
     processor order. *)
  let blocks =
    Array.of_list
      (List.map
         (fun p ->
           List.filter_map
             (fun id -> if member id then Some (local id) else None)
             (System.subjobs_on system p))
         procs)
  in
  let n_blocks = Array.length blocks in
  let iterations = ref 0 in
  let changed = ref true in
  let residual = ref 0 in
  while !changed && !iterations < max_iterations do
    Cancel.check cancel;
    incr iterations;
    changed := false;
    residual := 0;
    let dirty_count = ref 0 in
    let sp_iter =
      if Obs.enabled () then
        Obs.span_begin (Printf.sprintf "fixpoint.iteration %d" !iterations)
      else Obs.no_span
    in
    let process_subjob k =
      let stamp = max_version reads.(k) in
      if absorbed.(k) = stamp then Obs.incr c_skipped
      else begin
        Cancel.check cancel;
        incr dirty_count;
        Obs.incr c_recomputes;
        absorbed.(k) <- stamp;
        let dep_lo = (output_of k).Local.dep_lo in
        let rel = release ids.(k).System.job in
        let prev = x.(k) in
        (* No instance released reads 0, below every X. *)
        let r =
          match Step.max_lag ~count:(Step.final_value rel) rel dep_lo with
          | Some r -> min r sentinel
          | None -> sentinel
        in
        if r > prev then begin
          x.(k) <- r;
          incr tick;
          version.(k) <- !tick;
          residual := max !residual (r - prev);
          changed := true
        end
      end
    in
    (* Odd rounds walk the processors upwards, even rounds downwards. *)
    let ascending = !iterations land 1 = 1 in
    for b = 0 to n_blocks - 1 do
      List.iter process_subjob blocks.(if ascending then b else n_blocks - 1 - b)
    done;
    if Obs.enabled () then begin
      (* Residual in the sup norm: the largest rise of a member this round. *)
      Obs.span_int sp_iter "residual" !residual;
      Obs.span_int sp_iter "recomputed" !dirty_count;
      Obs.span_str sp_iter "state" (if !changed then "changed" else "stable");
      Obs.observe_int h_residual !residual;
      Obs.observe_int h_dirty !dirty_count
    end;
    Obs.span_end sp_iter;
    Log.debug (fun m ->
        m "iteration %d: %s (%d recomputed)" !iterations
          (if !changed then "changed" else "stable")
          !dirty_count)
  done;
  if Obs.enabled () then begin
    Obs.observe_int h_iterations !iterations;
    Obs.set_gauge g_last_iterations !iterations;
    Obs.set_gauge g_last_converged (if !changed then 0 else 1);
    Obs.span_int sp_run "iterations" !iterations;
    Obs.span_str sp_run "verdict"
      (if !changed then "diverged-within-budget" else "converged")
  end;
  (* An unsettled loop's members have no bound: X at the sentinel brackets
     their arrivals by 0 and the earliest arrivals, which are sound
     whatever the iteration did, and so are the bounds stepped from them. *)
  if !changed then
    Array.iteri
      (fun k _ ->
        x.(k) <- sentinel;
        incr tick;
        version.(k) <- !tick)
      x;
  let final id =
    let k = local id in
    (input_of k, output_of k)
  in
  { rounds = !iterations; settled = not !changed; final }
