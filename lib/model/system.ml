type step = { proc : int; exec : int; prio : int }

type job = {
  name : string;
  arrival : Arrival.pattern;
  deadline : int;
  steps : step array;
}

type t = { schedulers : Sched.t array; jobs : job array }
type subjob_id = { job : int; step : int }

let validate ~schedulers ~jobs =
  let n_procs = Array.length schedulers in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let check_step jname s =
    if s.exec < 1 then err "job %s: execution time must be >= 1 tick" jname
    else if s.proc < 0 || s.proc >= n_procs then
      err "job %s: processor %d out of range (%d processors)" jname s.proc
        n_procs
    else Ok ()
  in
  let check_job j =
    if Array.length j.steps = 0 then err "job %s: empty subjob chain" j.name
    else if j.deadline < 1 then err "job %s: deadline must be >= 1 tick" j.name
    else
      match Arrival.validate j.arrival with
      | Error e -> err "job %s: %s" j.name e
      | Ok () ->
          Array.fold_left
            (fun acc s -> match acc with Error _ -> acc | Ok () -> check_step j.name s)
            (Ok ()) j.steps
  in
  let rec check_jobs i =
    if i >= Array.length jobs then Ok ()
    else match check_job jobs.(i) with Ok () -> check_jobs (i + 1) | e -> e
  in
  let priorities_distinct () =
    (* On every SPP/SPNP processor, the priorities of resident subjobs must
       be pairwise distinct so that "higher priority" is unambiguous. *)
    let seen = Hashtbl.create 64 in
    let bad = ref None in
    Array.iteri
      (fun ji j ->
        Array.iteri
          (fun si s ->
            match schedulers.(s.proc) with
            | Sched.Fcfs -> ()
            | Sched.Spp | Sched.Spnp -> (
                let key = (s.proc, s.prio) in
                match Hashtbl.find_opt seen key with
                | Some (ji', si') ->
                    if !bad = None then bad := Some (s.proc, s.prio, ji', si', ji, si)
                | None -> Hashtbl.add seen key (ji, si)))
          j.steps)
      jobs;
    match !bad with
    | None -> Ok ()
    | Some (p, prio, ji', si', ji, si) ->
        err
          "processor %d: subjobs %s.%d and %s.%d share priority %d (must be \
           distinct on SPP/SPNP processors)"
          p jobs.(ji').name (si' + 1) jobs.(ji).name (si + 1) prio
  in
  match check_jobs 0 with
  | Error _ as e -> e
  | Ok () -> priorities_distinct ()

let make ~schedulers ~jobs =
  match validate ~schedulers ~jobs with
  | Ok () -> Ok { schedulers; jobs }
  | Error _ as e -> e

let make_exn ~schedulers ~jobs =
  match make ~schedulers ~jobs with
  | Ok t -> t
  | Error e -> invalid_arg ("System.make: " ^ e)

let processor_count t = Array.length t.schedulers
let job_count t = Array.length t.jobs

let subjob_count t =
  Array.fold_left (fun acc j -> acc + Array.length j.steps) 0 t.jobs

let job t i = t.jobs.(i)
let step t id = t.jobs.(id.job).steps.(id.step)
let scheduler_of t p = t.schedulers.(p)

let fold_subjobs t f init =
  let acc = ref init in
  Array.iteri
    (fun ji j ->
      Array.iteri (fun si _ -> acc := f !acc { job = ji; step = si }) j.steps)
    t.jobs;
  !acc

let subjobs_on t p =
  fold_subjobs t
    (fun acc id -> if (step t id).proc = p then id :: acc else acc)
    []
  |> List.rev

let by_priority t p =
  List.stable_sort
    (fun a b -> Int.compare (step t a).prio (step t b).prio)
    (subjobs_on t p)

let related_priority cmp t id =
  let s = step t id in
  subjobs_on t s.proc
  |> List.filter (fun other ->
         other <> id && cmp (step t other).prio s.prio)

let higher_priority_on t id = related_priority ( < ) t id
let lower_priority_on t id = related_priority ( > ) t id

let max_blocking t id =
  lower_priority_on t id
  |> List.fold_left (fun acc other -> max acc (step t other).exec) 0

let utilization t ~proc =
  let add acc id =
    match acc with
    | None -> None
    | Some u -> (
        let s = step t id in
        if s.proc <> proc then acc
        else
          match Arrival.rate_per_tick_denominator (job t id.job).arrival with
          | None -> None
          | Some period -> Some (u +. (float_of_int s.exec /. float_of_int period)))
  in
  fold_subjobs t add (Some 0.)

let max_utilization t =
  let n = processor_count t in
  let rec go p acc =
    if p >= n then acc
    else
      match (acc, utilization t ~proc:p) with
      | Some m, Some u -> go (p + 1) (Some (Float.max m u))
      | _, None | None, _ -> None
  in
  go 0 (Some 0.)

let total_exec j = Array.fold_left (fun acc s -> acc + s.exec) 0 j.steps

(* Horizon suggestion shared by every front end (CLI, batch service, fuzz
   harness, experiments): releases cover ten of the longest period, with
   equal slack after the release window for in-flight instances to drain. *)
let suggested_horizons t =
  let max_period = ref Time.ticks_per_unit in
  Array.iter
    (fun j ->
      match Arrival.rate_per_tick_denominator j.arrival with
      | Some p -> if p > !max_period then max_period := p
      | None -> ())
    t.jobs;
  (* Saturating: a degenerate system (one huge-period job, a trace spanning
     near-max_int ticks) must suggest a large horizon, never a negative
     one. *)
  let sat_mul a k = if a > max_int / k then max_int else a * k in
  let release_horizon = sat_mul !max_period 10 in
  (release_horizon, sat_mul release_horizon 2)

let pp ppf t =
  Format.fprintf ppf "@[<v>system: %d processors, %d jobs@," (processor_count t)
    (job_count t);
  Array.iteri
    (fun p sched ->
      Format.fprintf ppf "  P%d [%a]:" p Sched.pp sched;
      List.iter
        (fun id ->
          let s = step t id in
          Format.fprintf ppf " %s.%d(tau=%a,prio=%d)" (job t id.job).name
            (id.step + 1) Time.pp s.exec s.prio)
        (subjobs_on t p);
      Format.fprintf ppf "@,")
    t.schedulers;
  Array.iter
    (fun j ->
      Format.fprintf ppf "  job %s: %a, deadline %a, chain" j.name Arrival.pp
        j.arrival Time.pp j.deadline;
      Array.iter (fun s -> Format.fprintf ppf " P%d" s.proc) j.steps;
      Format.fprintf ppf "@,")
    t.jobs;
  Format.fprintf ppf "@]"
