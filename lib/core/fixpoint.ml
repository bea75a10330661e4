(* Ints only: the polymorphic versions call the runtime's generic compare. *)
open struct [@@@warning "-32"] let min = Int.min let max = Int.max let compare = Int.compare end

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

type verdict = Rta_model.Verdict.t = Bounded of int | Unbounded
type result = {
  per_job : verdict array;
  per_stage : verdict array array;
  iterations : int;
}

(* Sentinel for "no bound within the horizon": larger than any reachable
   completion offset, so joins keep it absorbing. *)
let unbounded_sentinel horizon = (2 * horizon) + 1

(* The unknown vector X assigns every subjob a bound on its COMPLETION time
   relative to the job's release (not a per-stage latency: summing per-stage
   latencies measured from optimistic arrivals would double-count the
   arrival uncertainty window and the iteration would diverge).  Given X:

   - stage st's arrival is bracketed by release + best-case prefix (earliest)
     and release + X_{st-1} (latest);
   - local departure bounds follow from the per-processor step ({!Local});
   - X'_st = max over instances m of (dep_lo^{-1}(m) - release(m)).

   X grows monotonically (joined with the previous iterate); convergence
   yields sound completion bounds, and the end-to-end response is X at the
   last stage (the Theorem 1 shape applied to departure lower bounds).

   Incremental evaluation: recomputing subjob [id] reads exactly these X
   components —

   - X of its chain predecessor (its own latest-arrival shift);
   - on SPP/SPNP: X of the chain predecessor of every higher-priority
     resident (their arrival brackets feed the interference terms; the
     priority order is total per processor, so the transitive
     higher-priority closure is the direct set);
   - on FCFS: X of the chain predecessor of every resident (the summed
     workload G of Theorem 7).

   Every X component carries a version stamp, the tick at which it last
   changed, and a subjob's cached bounds carry the newest stamp of its read
   list when they were computed.  A subjob is dirty, and re-run, exactly
   when that stamp is stale: some component it reads moved since.  A
   recompute with unchanged inputs is deterministic and reproduces its
   previous value, so the iterates, the convergence test and the iteration
   count coincide exactly with the textbook full sweep — asserted by the
   differential tests in test/core. *)
(* Iteration cap: a system whose X vector still moves after this many
   rounds is reported [Unbounded] (stated in the .mli). *)
let max_iterations = 64

let analyze ?(cancel = Cancel.never) ?release_horizon ~horizon system =
  let release_horizon = Option.value ~default:horizon release_horizon in
  Obs.incr c_analyses;
  let sp_run =
    if Obs.enabled () then begin
      let sp = Obs.span_begin "fixpoint.analyze" in
      Obs.span_int sp "horizon" horizon;
      Obs.span_int sp "subjobs" (System.subjob_count system);
      sp
    end
    else Obs.no_span
  in
  (* Balanced even when a cancellation checkpoint raises mid-iteration:
     closing the run span also restores the observer's span cursor. *)
  Fun.protect ~finally:(fun () -> Obs.span_end sp_run) @@ fun () ->
  let n_jobs = System.job_count system in
  let chain j = (System.job system j).System.steps in
  let release_trace =
    Array.init n_jobs (fun j ->
        Arrival.arrival_function (System.job system j).System.arrival
          ~horizon:release_horizon)
  in
  let sentinel = unbounded_sentinel horizon in
  (* Flat indexing of subjobs, for the version stamps and caches. *)
  let offsets = Array.make (n_jobs + 1) 0 in
  for j = 0 to n_jobs - 1 do
    offsets.(j + 1) <- offsets.(j) + Array.length (chain j)
  done;
  let n_subjobs = offsets.(n_jobs) in
  let flat (id : System.subjob_id) = offsets.(id.System.job) + id.System.step in
  (* ends.(j).(st): sum of the execution times of stages 0..st, the
     earliest completion of stage st after release. *)
  let ends =
    Array.init n_jobs (fun j ->
        let acc = ref 0 in
        Array.map
          (fun (s : System.step) ->
            acc := !acc + s.System.exec;
            !acc)
          (chain j))
  in
  (* X.(j).(st): completion bound of stage st relative to release. *)
  let x = Array.map Array.copy ends in
  (* The earliest-start shift delays releases the least, so it is the upper
     arrival counting function of the bracket; it never changes. *)
  let arr_hi =
    Array.init n_jobs (fun j ->
        Array.mapi
          (fun st _ ->
            let f = release_trace.(j) in
            if st = 0 then f else Step.shift_right f ends.(j).(st - 1))
          (chain j))
  in
  let all_subjobs =
    List.concat
      (List.init n_jobs (fun j ->
           List.init (Array.length (chain j)) (fun st ->
               { System.job = j; step = st })))
  in
  (* Read lists, as flat indices of X components (see the read-set
     derivation above): a subjob's arrival bracket reads its chain
     predecessor; its static-priority bounds also read the predecessors of
     its higher-priority co-residents; an FCFS processor's context, and so
     every FCFS resident's bounds, read the predecessors of all
     residents. *)
  let pred_reads (id : System.subjob_id) =
    if id.System.step = 0 then [] else [ flat id - 1 ]
  in
  let fcfs_reads =
    Array.init (System.processor_count system) (fun p ->
        List.concat_map pred_reads (System.subjobs_on system p))
  in
  let reads = Array.make n_subjobs [] in
  List.iter
    (fun (id : System.subjob_id) ->
      let p = (System.step system id).System.proc in
      reads.(flat id) <-
        (match System.scheduler_of system p with
        | Sched.Fcfs -> fcfs_reads.(p)
        | Sched.Spp | Sched.Spnp ->
            pred_reads id
            @ List.concat_map pred_reads (System.higher_priority_on system id)))
    all_subjobs;
  (* Version stamps for the cross-iteration caches below:
     [version.(k)] is the global tick at which X component [k] last changed.
     A cached value is valid as long as the maximum version over its read
     list is unchanged, because ticks only grow. *)
  let tick = ref 0 in
  let version = Array.make n_subjobs 0 in
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
  let input_cache = Array.make n_subjobs None in
  let output_cache = Array.make n_subjobs None in
  (* Dirty: its bounds are stale, because some component it reads moved
     since they were computed (or they never were). *)
  let is_dirty id =
    match output_cache.(flat id) with
    | Some (v, _) -> v <> max_version reads.(flat id)
    | None -> true
  in
  let hp_cache = Array.make n_subjobs None in
  let fcfs_cache = Array.make (System.processor_count system) None in
  let input_of (id : System.subjob_id) =
    cached input_cache (flat id) (pred_reads id) (fun () ->
        let j = id.System.job and st = id.System.step in
        let arr_lo =
          if st = 0 then release_trace.(j)
          else Step.shift_right release_trace.(j) (min x.(j).(st - 1) sentinel)
        in
        Local.input ~tau:(System.step system id).System.exec ~arr_lo
          ~arr_hi:arr_hi.(j).(st) ~exact:false)
  in
  (* The next-higher resident on each static-priority processor: a
     resident's higher-priority aggregate is its next-higher resident's
     extended by that resident. *)
  let above = Array.make n_subjobs None in
  for p = 0 to System.processor_count system - 1 do
    if System.scheduler_of system p <> Sched.Fcfs then
      ignore
        (List.fold_left
           (fun prev id ->
             above.(flat id) <- prev;
             Some id)
           None (System.by_priority system p))
  done;
  (* A subjob's bounds, and its higher-priority aggregate, are cached under
     its read list: stale bounds are what makes the subjob dirty, and a
     processor's dirty residents are listed before any is recomputed, so
     each dirty recompute runs the local step exactly once, whether its own
     turn or a lower-priority co-resident asks first.  The next-higher
     resident's read list is contained in this one's, so its aggregate is
     fresh too. *)
  let rec output_of (id : System.subjob_id) =
    let p = (System.step system id).System.proc in
    cached output_cache (flat id) reads.(flat id) @@ fun () ->
    let fcfs () =
      cached fcfs_cache p fcfs_reads.(p) (fun () ->
          Local.fcfs ~cancel ~exact:false ~horizon
            (List.map input_of (System.subjobs_on system p)))
    in
    Local.step ~cancel ~horizon
      (Local.policy system id ~hp:(fun () -> hp_of id) ~fcfs)
      (input_of id)
  and hp_of (id : System.subjob_id) =
    match above.(flat id) with
    | None -> Local.empty
    | Some h ->
        cached hp_cache (flat id) reads.(flat id) (fun () ->
            Local.push (hp_of h) (input_of h) (output_of h))
  in
  (* Instance release times, precomputed once: inv_release.(j).(m - 1) is
     the release of the m-th instance of job j. *)
  let inv_release =
    Array.init n_jobs (fun j ->
        let rel = release_trace.(j) in
        Array.init (Step.final_value rel) (fun m ->
            match Step.inverse rel (m + 1) with
            | Some t -> t
            | None -> assert false))
  in
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
    let x' = Array.map Array.copy x in
    for p = 0 to System.processor_count system - 1 do
      let residents = System.subjobs_on system p in
      let dirty_residents = List.filter is_dirty residents in
      if dirty_residents <> [] then begin
        let process_subjob (id : System.subjob_id) =
          Cancel.check cancel;
          incr dirty_count;
          Obs.incr c_recomputes;
          let dep_lo = (output_of id).Local.dep_lo in
          let count = Step.final_value release_trace.(id.System.job) in
          (* worst = max over instances m of (inverse dep_lo m - release of
             m), or the sentinel if dep_lo never reaches count: the
             departure jumps are swept once against the precomputed
             instance release times. *)
          let worst () =
            let inv = inv_release.(id.System.job) in
            let acc = ref 0 and m = ref 1 in
            let consume t v =
              while !m <= v && !m <= count do
                acc := max !acc (t - inv.(!m - 1));
                incr m
              done
            in
            consume 0 (Step.init_value dep_lo);
            for i = 0 to Step.jump_count dep_lo - 1 do
              consume (Step.jump_time dep_lo i) (Step.jump_value dep_lo i)
            done;
            if !m <= count then sentinel else !acc
          in
          let prev = x.(id.System.job).(id.System.step) in
          let r = if count = 0 then prev else min (worst ()) sentinel in
          if r > prev then begin
            x'.(id.System.job).(id.System.step) <- r;
            residual := max !residual (r - prev);
            changed := true
          end
        in
        List.iter process_subjob dirty_residents
      end
      else Obs.add c_skipped (List.length residents)
    done;
    Array.iteri
      (fun j row ->
        Array.iteri
          (fun st v ->
            if x.(j).(st) <> v then begin
              incr tick;
              version.(offsets.(j) + st) <- !tick
            end)
          row;
        Array.blit row 0 x.(j) 0 (Array.length row))
      x';
    if Obs.enabled () then begin
      (* Residual in the sup norm: max over subjobs of X' - X this round. *)
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
  let stage_verdict r = if r >= sentinel then Unbounded else Bounded r in
  let per_stage = Array.map (Array.map stage_verdict) x in
  let per_job =
    Array.map
      (fun row ->
        if !changed then Unbounded else row.(Array.length row - 1) |> stage_verdict)
      x
  in
  if Obs.enabled () then begin
    Obs.observe_int h_iterations !iterations;
    Obs.set_gauge g_last_iterations !iterations;
    Obs.set_gauge g_last_converged (if !changed then 0 else 1);
    Obs.span_int sp_run "iterations" !iterations;
    Obs.span_str sp_run "verdict"
      (if !changed then "diverged-within-budget" else "converged")
  end;
  Obs.span_end sp_run;
  { per_job; per_stage; iterations = !iterations }
