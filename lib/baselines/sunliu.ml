open Rta_model

type verdict = Rta_model.Verdict.t = Bounded of int | Unbounded
type result = { per_job : verdict array; iterations : int }

type subjob_state = {
  rho : int;
  tau : int;
  proc : int;
  prio : int;
  mutable jitter : int;
  mutable local_response : int;  (* from nominal stage release *)
}

let applicability system =
  let n = System.processor_count system in
  let rec procs p =
    if p >= n then Ok ()
    else
      match System.scheduler_of system p with
      | Sched.Spp -> procs (p + 1)
      | Sched.Spnp | Sched.Fcfs ->
          Error
            (Printf.sprintf "processor %d is not SPP (S&L handles SPP only)" p)
  in
  let rec jobs j =
    if j >= System.job_count system then Ok ()
    else
      match (System.job system j).System.arrival with
      | Arrival.Periodic _ -> jobs (j + 1)
      | Arrival.Bursty _ | Arrival.Burst_periodic _ | Arrival.Sporadic_worst _
      | Arrival.Trace _ ->
          Error
            (Printf.sprintf "job %s is not periodic (S&L handles periodic only)"
               (System.job system j).System.name)
  in
  match procs 0 with Ok () -> jobs 0 | e -> e

let analyze ?(jitter_model = `Sun_liu) ?(max_iterations = 64) system =
  match applicability system with
  | Error _ as e -> e
  | Ok () ->
      let period j =
        match (System.job system j).System.arrival with
        | Arrival.Periodic { period; _ } -> period
        | Arrival.Bursty _ | Arrival.Burst_periodic _ | Arrival.Sporadic_worst _
        | Arrival.Trace _ ->
            assert false
      in
      let states =
        Array.init (System.job_count system) (fun j ->
            let job = System.job system j in
            Array.map
              (fun (s : System.step) ->
                {
                  rho = period j;
                  tau = s.System.exec;
                  proc = s.System.proc;
                  prio = s.System.prio;
                  jitter = 0;
                  local_response = s.System.exec;
                })
              job.System.steps)
      in
      let interferers_of j st =
        let self = states.(j).(st) in
        let acc = ref [] in
        Array.iteri
          (fun j' row ->
            Array.iteri
              (fun st' (o : subjob_state) ->
                if
                  (not (j' = j && st' = st))
                  && o.proc = self.proc && o.prio < self.prio
                then
                  acc :=
                    { Busy_period.rho = o.rho; tau = o.tau; jitter = o.jitter }
                    :: !acc)
              row)
          states;
        !acc
      in
      let diverged = ref false in
      let recompute_responses () =
        Array.iteri
          (fun j row ->
            Array.iteri
              (fun st (s : subjob_state) ->
                match
                  Busy_period.response_time
                    ~task:{ Busy_period.rho = s.rho; tau = s.tau; jitter = s.jitter }
                    ~interferers:(interferers_of j st) ()
                with
                | Some r -> s.local_response <- r
                | None -> diverged := true)
              row)
          states
      in
      let changed = ref true in
      let iterations = ref 0 in
      while !changed && (not !diverged) && !iterations < max_iterations do
        incr iterations;
        changed := false;
        recompute_responses ();
        (* Propagate jitters down every chain.  The local response R_{j-1}
           is measured from the (jitter-model) nominal release, so stage j's
           release window after its own nominal (shifted by the best-case
           prefix) has width R_{j-1} - tau_{j-1}; the original holistic
           analysis uses the cruder R_{j-1}. *)
        Array.iter
          (fun row ->
            Array.iteri
              (fun st (s : subjob_state) ->
                if st > 0 then begin
                  let prev = row.(st - 1) in
                  let new_jitter =
                    match jitter_model with
                    | `Sun_liu -> max 0 (prev.local_response - prev.tau)
                    | `Holistic -> prev.local_response
                  in
                  if new_jitter > s.jitter then begin
                    s.jitter <- new_jitter;
                    changed := true
                  end
                end)
              row)
          states
      done;
      (* End-to-end: the last stage's nominal release is the job release
         shifted by the best-case prefix, so completion is bounded by
         sum of tau over the prefix plus the last local response. *)
      let per_job =
        Array.map
          (fun row ->
            if !diverged || !changed then Unbounded
            else
              let n = Array.length row in
              let best_prefix = ref 0 in
              for i = 0 to n - 2 do
                best_prefix := !best_prefix + row.(i).tau
              done;
              Bounded (!best_prefix + row.(n - 1).local_response))
          states
      in
      Ok { per_job; iterations = !iterations }

let schedulable result system =
  let ok j v =
    match v with
    | Bounded r -> r <= (System.job system j).System.deadline
    | Unbounded -> false
  in
  Array.to_list result.per_job |> List.mapi ok |> List.for_all Fun.id
