open Rta_model

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
   processor with N residents has O(N) edges instead of N^2.  Kahn's walk
   below always takes the smallest ready subjob, and a subjob is ready
   exactly when all its ancestors are done, so the order is the same
   either way, provided the walk settles a join point as soon as it is
   ready. *)
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

let compute system =
  let all =
    List.concat
      (List.init (System.job_count system) (fun j ->
           List.init
             (Array.length (System.job system j).steps)
             (fun s -> { System.job = j; step = s })))
  in
  let joins =
    List.init (System.processor_count system) Fun.id
    |> List.filter (fun p ->
           System.scheduler_of system p = Sched.Fcfs
           && System.subjobs_on system p <> [])
    |> List.map (fun p -> Join p)
  in
  let nodes = List.map (fun id -> Subjob id) all @ joins in
  (* Kahn's algorithm over the dependency relation. *)
  let dependencies = dependencies system in
  let in_degree = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace in_degree n 0) nodes;
  let dependents = Hashtbl.create 64 in
  List.iter
    (fun n ->
      List.iter
        (fun d ->
          Rta_obs.incr c_edges;
          Hashtbl.replace in_degree n (Hashtbl.find in_degree n + 1);
          Hashtbl.replace dependents d (n :: Option.value ~default:[] (Hashtbl.find_opt dependents d)))
        (List.sort_uniq compare (dependencies n)))
    nodes;
  (* Done with [n]: the subjobs it makes ready, with every join point it
     makes ready settled on the spot. *)
  let rec release n =
    Option.value ~default:[] (Hashtbl.find_opt dependents n)
    |> List.concat_map (fun d ->
           let deg = Hashtbl.find in_degree d - 1 in
           Hashtbl.replace in_degree d deg;
           match d with
           | _ when deg > 0 -> []
           | Subjob id -> [ id ]
           | Join _ -> release d)
  in
  let ready =
    let sources = List.filter (fun id -> Hashtbl.find in_degree (Subjob id) = 0) all in
    let from_joins =
      List.concat_map
        (fun j -> if Hashtbl.find in_degree j = 0 then release j else [])
        joins
    in
    List.sort compare (sources @ from_joins)
  in
  let rec walk ready acc =
    match ready with
    | [] -> List.rev acc
    | id :: rest ->
        let next = release (Subjob id) in
        walk (List.merge compare rest (List.sort compare next)) (id :: acc)
  in
  let sorted = walk ready [] in
  if List.length sorted = List.length all then Acyclic sorted
  else
    let stuck = List.filter (fun id -> Hashtbl.find in_degree (Subjob id) > 0) all in
    Cyclic stuck
