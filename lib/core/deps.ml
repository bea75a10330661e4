(* Ints only: the polymorphic versions call the runtime's generic compare. *)
open struct [@@@warning "-32"] let min = Int.min let max = Int.max let compare = Int.compare external ( < ) : int -> int -> bool = "%lessthan" external ( <= ) : int -> int -> bool = "%lessequal" external ( > ) : int -> int -> bool = "%greaterthan" external ( >= ) : int -> int -> bool = "%greaterequal" end

open Rta_model

type component = Single of System.subjob_id | Loop of System.subjob_id list
type order = Acyclic of System.subjob_id list | Cyclic of System.subjob_id list

let predecessor (id : System.subjob_id) =
  if id.step = 0 then None else Some { id with System.step = id.step - 1 }

(* A node of the dependency graph: a subjob, or an FCFS processor's join
   point, which stands for "every resident's arrival is known". *)
type node = Subjob of System.subjob_id | Join of int

let c_edges = Rta_obs.counter "deps.edges"

(* The dependency relation, with each processor's residents listed once.
   A static-priority resident depends on its next-higher co-resident only:
   that one depends on the next above it in turn, so the relation keeps
   the same ancestors as "every higher-priority resident" (priorities are
   distinct on a processor) with one edge per resident instead of one per
   pair.  Every FCFS resident depends on all its co-residents' chain
   predecessors (its own included); those edges go through the
   processor's join point, which depends on the predecessors, so a
   processor with N residents has O(N) edges instead of N^2.  Either way
   two subjobs reach each other exactly when they did through the
   pairwise relation, so the components are the same. *)
let dependencies system =
  let procs = List.init (System.processor_count system) Fun.id in
  let above = Hashtbl.create 64 in
  List.iter
    (fun p ->
      if System.scheduler_of system p <> Sched.Fcfs then
        ignore
          (List.fold_left
             (fun prev id ->
               Option.iter (Hashtbl.replace above id) prev;
               Some id)
             None (System.by_priority system p)))
    procs;
  function
  | Join p ->
      (* Arrival functions of all residents: their chain predecessors. *)
      List.filter_map predecessor (System.subjobs_on system p)
      |> List.map (fun id -> Subjob id)
  | Subjob id -> (
      let s = System.step system id in
      let chain =
        match predecessor id with None -> [] | Some p -> [ Subjob p ]
      in
      match System.scheduler_of system s.proc with
      | Sched.Spp | Sched.Spnp ->
          (* The next-higher resident's service function. *)
          chain
          @ List.map (fun h -> Subjob h) (Option.to_list (Hashtbl.find_opt above id))
      | Sched.Fcfs -> Join s.proc :: chain)

(* Tarjan's algorithm over the nodes numbered flat: subjobs first, job by
   job, then one join point per processor.  Edges point from a node to
   what it depends on, so a component is closed only after every
   component it depends on: the output is in dependency order. *)
let components system =
  let n_jobs = System.job_count system in
  let offsets = Array.make (n_jobs + 1) 0 in
  for j = 0 to n_jobs - 1 do
    offsets.(j + 1) <- offsets.(j) + Array.length (System.job system j).System.steps
  done;
  let n = offsets.(n_jobs) in
  let ids = Array.make n { System.job = 0; step = 0 } in
  for j = 0 to n_jobs - 1 do
    for s = 0 to offsets.(j + 1) - offsets.(j) - 1 do
      ids.(offsets.(j) + s) <- { System.job = j; step = s }
    done
  done;
  let index = function
    | Subjob (id : System.subjob_id) -> offsets.(id.job) + id.step
    | Join p -> n + p
  in
  let node k = if k < n then Subjob ids.(k) else Join (k - n) in
  let dependencies = dependencies system in
  let size = n + System.processor_count system in
  let visited = Array.make size (-1) and low = Array.make size 0 in
  let on_stack = Array.make size false in
  let stack = ref [] and clock = ref 0 and out = ref [] in
  let rec visit v =
    visited.(v) <- !clock;
    low.(v) <- !clock;
    incr clock;
    stack := v :: !stack;
    on_stack.(v) <- true;
    let succ = List.sort_uniq compare (List.map index (dependencies (node v))) in
    Rta_obs.add c_edges (List.length succ);
    List.iter
      (fun w ->
        if visited.(w) < 0 then begin
          visit w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) visited.(w))
      succ;
    if low.(v) = visited.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> assert false
      in
      let members = pop [] in
      let subjobs =
        List.filter (fun k -> k < n) members |> List.sort compare |> List.map node
        |> List.map (function Subjob id -> id | Join _ -> assert false)
      in
      match (members, subjobs) with
      | _, [] -> () (* a join point on no cycle: nothing to compute *)
      | [ _ ], [ id ] when not (List.mem v succ) -> out := Single id :: !out
      | _ -> out := Loop subjobs :: !out
    end
  in
  for k = 0 to n - 1 do
    if visited.(k) < 0 then visit k
  done;
  List.rev !out

let compute system =
  let components = components system in
  match List.concat_map (function Loop ids -> ids | Single _ -> []) components with
  | [] -> Acyclic (List.map (function Single id -> id | Loop _ -> assert false) components)
  | on_cycle ->
      let by_job_then_step (a : System.subjob_id) (b : System.subjob_id) =
        if a.job = b.job then compare a.step b.step else compare a.job b.job
      in
      Cyclic (List.sort by_job_then_step on_cycle)
