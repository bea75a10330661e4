open Rta_model

type verdict = Rta_model.Verdict.t = Bounded of int | Unbounded

let analyze system =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  if System.processor_count system <> 1 then fail "more than one processor"
  else if not (Sched.equal (System.scheduler_of system 0) Sched.Spp) then
    fail "processor is not SPP"
  else
    let n = System.job_count system in
    let rec to_tasks j acc =
      if j >= n then Ok (List.rev acc)
      else
        let job = System.job system j in
        if Array.length job.System.steps <> 1 then
          fail "job %s has more than one stage" job.System.name
        else
          match job.System.arrival with
          | Arrival.Periodic { period; _ } ->
              to_tasks (j + 1)
                ((job.System.steps.(0).System.prio,
                  { Busy_period.rho = period; tau = job.System.steps.(0).System.exec; jitter = 0 })
                :: acc)
          | Arrival.Bursty _ | Arrival.Burst_periodic _
          | Arrival.Sporadic_worst _ | Arrival.Trace _ ->
              fail "job %s is not periodic" job.System.name
    in
    match to_tasks 0 [] with
    | Error _ as e -> e
    | Ok tasks ->
        let arr = Array.of_list tasks in
        Ok
          (Array.map
             (fun (prio, task) ->
               let interferers =
                 Array.to_list arr
                 |> List.filter_map (fun (p, t) -> if p < prio then Some t else None)
               in
               match Busy_period.response_time ~task ~interferers () with
               | Some r -> Bounded r
               | None -> Unbounded)
             arr)
