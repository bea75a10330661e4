open Rta_model

type t = string

(* The canonical request is a length-prefixed binary encoding of the
   parsed system and the resolved config: every integer is an unsigned
   LEB128 varint of its 63-bit pattern (prefix-free, so no field can run
   into the next), every string and array is preceded by its length, and
   every variant by a constructor tag.  The encoding is injective, so equal
   encodings mean equal requests; nothing is printed or formatted. *)

let rec add_int buf n =
  if n land lnot 0x7f = 0 then Buffer.add_char buf (Char.unsafe_chr n)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (n land 0x7f lor 0x80));
    add_int buf (n lsr 7)
  end

let add_string buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let sched_tag = function Sched.Spp -> 0 | Sched.Spnp -> 1 | Sched.Fcfs -> 2
let estimator_tag = function `Direct -> 0 | `Sum -> 1

let add_arrival buf = function
  | Arrival.Periodic { period; offset } ->
      add_int buf 0;
      add_int buf period;
      add_int buf offset
  | Arrival.Bursty { period } ->
      add_int buf 1;
      add_int buf period
  | Arrival.Burst_periodic { burst; period; offset } ->
      add_int buf 2;
      add_int buf burst;
      add_int buf period;
      add_int buf offset
  | Arrival.Sporadic_worst { min_gap; count } ->
      add_int buf 3;
      add_int buf min_gap;
      add_int buf count
  | Arrival.Trace times ->
      add_int buf 4;
      add_int buf (Array.length times);
      Array.iter (add_int buf) times

let add_job buf (job : System.job) =
  add_string buf job.System.name;
  add_arrival buf job.System.arrival;
  add_int buf job.System.deadline;
  add_int buf (Array.length job.System.steps);
  Array.iter
    (fun (s : System.step) ->
      add_int buf s.System.proc;
      add_int buf s.System.exec;
      add_int buf s.System.prio)
    job.System.steps

let of_system ~config system =
  (* Everything the analysis result depends on: a format version, the
     tick granularity, the analysis parameters with horizons RESOLVED (an
     explicit horizon equal to the derived default hashes identically),
     the scheduler of every processor and every job field. *)
  let release_horizon, horizon =
    Rta_core.Analysis.resolve_horizons config system
  in
  let buf = Buffer.create 256 in
  add_string buf "rta-key/3";
  add_int buf Time.ticks_per_unit;
  add_int buf (estimator_tag config.Rta_core.Analysis.estimator);
  add_int buf release_horizon;
  add_int buf horizon;
  let procs = System.processor_count system in
  add_int buf procs;
  for p = 0 to procs - 1 do
    add_int buf (sched_tag (System.scheduler_of system p))
  done;
  let jobs = System.job_count system in
  add_int buf jobs;
  for j = 0 to jobs - 1 do
    add_job buf (System.job system j)
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let to_hex k = k
let equal = String.equal
