open Rta_model

type arrival_kind = Periodic_eq25 | Bursty_eq27

type deadline_model =
  | Multiple_of_period of float
  | Shifted_exponential of { offset : float; scale : float }

type config = {
  stages : int;
  procs_per_stage : int;
  jobs : int;
  utilization : float;
  arrival : arrival_kind;
  deadline : deadline_model;
  sched : Sched.t;
  x_min : float;
  eq26 : [ `Exact_utilization | `As_printed ];
}

let default ~stages ~jobs ~utilization ~arrival ~deadline ~sched =
  {
    stages;
    procs_per_stage = 2;
    jobs;
    utilization;
    arrival;
    deadline;
    sched;
    x_min = 0.1;
    eq26 = `Exact_utilization;
  }

let validate c =
  if c.stages < 1 then invalid_arg "Jobshop: stages must be >= 1";
  if c.procs_per_stage < 1 then invalid_arg "Jobshop: procs_per_stage must be >= 1";
  if c.jobs < 1 then invalid_arg "Jobshop: jobs must be >= 1";
  if not (c.utilization > 0. && c.utilization < 1.) then
    invalid_arg "Jobshop: utilization must be in (0, 1)";
  if not (c.x_min > 0. && c.x_min < 1.) then
    invalid_arg "Jobshop: x_min must be in (0, 1)"

let generate c ~rng =
  validate c;
  let n_procs = c.stages * c.procs_per_stage in
  (* Draw the per-job randomness first. *)
  let x = Array.init c.jobs (fun _ -> Rng.uniform rng c.x_min 1.0) in
  let period_units k = 1.0 /. x.(k) in
  let procs =
    Array.init c.jobs (fun _ ->
        Array.init c.stages (fun st ->
            (st * c.procs_per_stage) + Rng.int_range rng 0 (c.procs_per_stage - 1)))
  in
  let w = Array.init c.jobs (fun _ -> Array.init c.stages (fun _ -> Rng.float_unit rng)) in
  (* Eq. 26/28 denominators, per processor. *)
  let denom = Array.make n_procs 0.0 in
  for k = 0 to c.jobs - 1 do
    for st = 0 to c.stages - 1 do
      let p = procs.(k).(st) in
      let contribution =
        match c.eq26 with
        | `Exact_utilization -> w.(k).(st)
        | `As_printed -> w.(k).(st) *. period_units k
      in
      denom.(p) <- denom.(p) +. contribution
    done
  done;
  let exec_ticks k st =
    let p = procs.(k).(st) in
    let tau_units = c.utilization *. w.(k).(st) *. period_units k /. denom.(p) in
    max 1 (Time.of_units_ceil tau_units)
  in
  let deadline_ticks k =
    let units =
      match c.deadline with
      | Multiple_of_period m -> m *. period_units k
      | Shifted_exponential { offset; scale } ->
          offset +. Rng.exponential rng ~mean:scale
    in
    max 1 (Time.of_units units)
  in
  let arrival_pattern k =
    let period = max 1 (Time.of_units (period_units k)) in
    match c.arrival with
    | Periodic_eq25 -> Arrival.Periodic { period; offset = 0 }
    | Bursty_eq27 -> Arrival.Bursty { period }
  in
  let jobs =
    Array.init c.jobs (fun k ->
        {
          System.name = Printf.sprintf "T%d" (k + 1);
          arrival = arrival_pattern k;
          deadline = deadline_ticks k;
          steps =
            Array.init c.stages (fun st ->
                { System.proc = procs.(k).(st); exec = exec_ticks k st; prio = 0 });
        })
  in
  let jobs = Priority.deadline_monotonic jobs in
  System.make_exn ~schedulers:(Array.make n_procs c.sched) ~jobs
