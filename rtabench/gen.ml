(* Seeded input generation for the three workloads.

   Every input is a request line of the batch wire format (doc/BATCH.md):
   the program under test only ever sees this text.  The shops follow the
   paper's Section 5 job-shop model (Eq. 24 priorities, Eq. 25/27
   releases, Eq. 26 execution times at an exact per-processor
   utilization), with two variance cuts that keep the cost of one input
   close to the cost of the next:

   - jobs are dealt to the processors of a stage in equal numbers (a
     random deal, not a random choice per job), so every processor has the
     same number of residents;
   - the period draws [x_k] are stratified over (x_min, 1): one draw per
     stratum, strata shuffled across jobs, so the total release rate of a
     shop barely moves from seed to seed.

   Cost grows super-linearly with residents per processor, so without
   these cuts two seeds of the "same" workload measure different
   workloads. *)

open Rta_model
module Rng = Rta_workload.Rng
module Json = Rta_obs.Json

type item = {
  line : string;  (** one NDJSON request *)
  label : string;  (** "spp", "spnp", "fcfs" or "mixed" *)
  distinct : int;  (** index of the distinct spec this line carries *)
  repeat : bool;  (** an exact repeat of an earlier request's spec *)
  bidirectional : bool;
}

let x_min = 0.1

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int_range rng 0 i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

type shape = {
  stages : int;
  procs_per_stage : int;
  jobs : int;
  utilization : float;
  arrival : [ `Periodic | `Bursty ];
  scheds : Sched.t array;  (** one policy per stage *)
  bidirectional : bool;
      (** every other job runs its chain backwards through the stages *)
}

let shop rng s =
  let n_procs = s.stages * s.procs_per_stage in
  let strata = shuffle rng (Array.init s.jobs Fun.id) in
  let x =
    Array.init s.jobs (fun k ->
        x_min
        +. (1. -. x_min) *. (float strata.(k) +. Rng.float_unit rng)
           /. float s.jobs)
  in
  let period_units k = 1. /. x.(k) in
  let procs = Array.make_matrix s.jobs s.stages 0 in
  for st = 0 to s.stages - 1 do
    Array.iteri
      (fun i k ->
        procs.(k).(st) <- (st * s.procs_per_stage) + (i mod s.procs_per_stage))
      (shuffle rng (Array.init s.jobs Fun.id))
  done;
  let w = Array.init s.jobs (fun _ -> Array.init s.stages (fun _ -> Rng.float_unit rng)) in
  let denom = Array.make n_procs 0. in
  Array.iteri
    (fun k row -> Array.iteri (fun st p -> denom.(p) <- denom.(p) +. w.(k).(st)) row)
    procs;
  let step k st =
    let p = procs.(k).(st) in
    let tau = s.utilization *. w.(k).(st) *. period_units k /. denom.(p) in
    { System.proc = p; exec = max 1 (Time.of_units_ceil tau); prio = 0 }
  in
  let jobs =
    Array.init s.jobs (fun k ->
        let steps = Array.init s.stages (step k) in
        let steps =
          if s.bidirectional && k mod 2 = 1 then
            Array.init s.stages (fun i -> steps.(s.stages - 1 - i))
          else steps
        in
        let period = max 1 (Time.of_units (period_units k)) in
        {
          System.name = Printf.sprintf "T%d" (k + 1);
          arrival =
            (match s.arrival with
            | `Periodic -> Arrival.Periodic { period; offset = 0 }
            | `Bursty -> Arrival.Bursty { period });
          deadline = max 1 (Time.of_units (2. *. period_units k));
          steps;
        })
  in
  let schedulers = Array.init n_procs (fun p -> s.scheds.(p / s.procs_per_stage)) in
  System.make_exn ~schedulers ~jobs:(Priority.deadline_monotonic jobs)

let request_line ~id ~horizons:(rh, h) system =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.String id);
         ("spec", Json.String (Parser.print system));
         ("release_horizon", Json.Int rh);
         ("horizon", Json.Int h);
       ])

let sched_label s = String.lowercase_ascii (Sched.to_string s)
let cycle = [| Sched.Spp; Sched.Spnp; Sched.Fcfs |]

(* The workloads split the seed into independent streams, one per input,
   so inputs do not shift when an earlier one is redrawn. *)
let streams seed n =
  let root = Rng.make seed in
  Array.init n (fun _ -> Rng.split root)

(* [n] shops at U = 0.5 with Eq. 27 releases, cycling SPP, SPNP, FCFS
   (one policy on every processor of a shop). *)
let cycling_pool ~prefix ~n ~horizons ~stages ~jobs seed =
  Array.mapi
    (fun i rng ->
      let sched = cycle.(i mod 3) in
      let system =
        shop rng
          {
            stages;
            procs_per_stage = 2;
            jobs;
            utilization = 0.5;
            arrival = `Bursty;
            scheds = Array.make stages sched;
            bidirectional = false;
          }
      in
      {
        line = request_line ~id:(Printf.sprintf "%s-%d" prefix i) ~horizons system;
        label = sched_label sched;
        distinct = i;
        repeat = false;
        bidirectional = false;
      })
    (streams seed n)

(* Fixed horizons (release, analysis) in ticks: the derived default follows
   the longest period, which moves with the seed, and the engine's cost
   moves with it. *)
let shop_large_horizons = (80_000, 160_000)
let batch_mix_horizons = (40_000, 80_000)
let serve_hot_horizons = (40_000, 80_000)

(* shop-large: 2-stage shops, 48 jobs, 24 residents per processor. *)
let shop_large seed =
  cycling_pool ~prefix:"sl" ~n:12 ~horizons:shop_large_horizons ~stages:2 ~jobs:48 seed

(* serve-hot: 32 distinct 16-job x 3-stage shops. *)
let serve_hot seed =
  cycling_pool ~prefix:"sh" ~n:32 ~horizons:serve_hot_horizons ~stages:3 ~jobs:16 seed

(* ------------------------------------------------------------------ *)
(* batch-mix: many small shops, 1 in 8 bidirectional, 1 in 5 repeated  *)
(* ------------------------------------------------------------------ *)

let batch_mix_size = 800

let cyclic system =
  match Rta_core.Deps.compute system with
  | Rta_core.Deps.Cyclic _ -> true
  | Rta_core.Deps.Acyclic _ -> false

(* Request [i]'s role is a function of [i] alone, so every seed has the
   same mix: positions 4, 9, 14, ... repeat an earlier request's spec
   verbatim (the designed 0.2 hit ratio); of the other positions, 0 mod 8
   are bidirectional shops and 6 mod 8 mix policies across stages.  Stage
   count, job count, policy and arrival kind cycle through their ranges so
   each seed covers every shape equally. *)
let batch_mix seed =
  let rngs = streams seed batch_mix_size in
  let distinct = ref 0 in
  let originals = ref [] in
  Array.mapi
    (fun i rng ->
      if i mod 5 = 4 then begin
        let pool = Array.of_list !originals in
        let src = pool.(Rng.int_range rng 0 (Array.length pool - 1)) in
        (* Same spec text, fresh id: a repeat of the request, not of its
           line. *)
        match Json.of_string src.line with
        | Ok (Json.Obj fields) ->
            let fields = List.remove_assoc "id" fields in
            {
              src with
              repeat = true;
              line =
                Json.to_string
                  (Json.Obj (("id", Json.String (Printf.sprintf "bm-%d" i)) :: fields));
            }
        | _ -> assert false
      end
      else begin
        let bidirectional = i mod 8 = 0 in
        let mixed = i mod 8 = 6 in
        let stages = 2 + (i mod 3) in
        let jobs = 4 + (i / 3 mod 5) in
        let sched = cycle.(i / 15 mod 3) in
        let scheds =
          if mixed then Array.init stages (fun _ -> cycle.(Rng.int_range rng 0 2))
          else Array.make stages sched
        in
        let shape =
          {
            stages;
            procs_per_stage = 2;
            jobs;
            utilization = [| 0.3; 0.5 |].(i / 45 mod 2);
            arrival = (if i / 90 mod 2 = 0 then `Bursty else `Periodic);
            scheds;
            bidirectional;
          }
        in
        (* Redraw until a bidirectional shop really is cyclic (a
           priority order can happen to break every loop). *)
        let rec draw () =
          let s = shop rng shape in
          if bidirectional && not (cyclic s) then draw () else s
        in
        let system = draw () in
        let it =
          {
            line =
              request_line ~id:(Printf.sprintf "bm-%d" i)
                ~horizons:batch_mix_horizons system;
            label =
              (if Array.for_all (Sched.equal scheds.(0)) scheds then
                 sched_label scheds.(0)
               else "mixed");
            distinct = !distinct;
            repeat = false;
            bidirectional;
          }
        in
        incr distinct;
        originals := it :: !originals;
        it
      end)
    rngs

let workloads = [ "shop-large"; "batch-mix"; "serve-hot" ]

let inputs ~workload seed =
  match workload with
  | "shop-large" -> shop_large seed
  | "batch-mix" -> batch_mix seed
  | "serve-hot" -> serve_hot seed
  | w -> invalid_arg ("unknown workload " ^ w)
