open Rta_model

type order = Acyclic of System.subjob_id list | Cyclic of System.subjob_id list

let predecessor (id : System.subjob_id) =
  if id.step = 0 then None else Some { id with System.step = id.step - 1 }

(* The dependency relation, with each processor's residents listed once.
   A static-priority resident depends on its next-higher co-resident only:
   that one depends on the next above it in turn, so the relation keeps
   the same ancestors as "every higher-priority resident" (priorities are
   distinct on a processor) with one edge per resident instead of one per
   pair.  Kahn's walk below always takes the smallest ready subjob, and a
   subjob is ready exactly when all its ancestors are done, so the order
   is the same either way. *)
let dependencies system =
  let procs = List.init (System.processor_count system) Fun.id in
  let residents = Array.of_list (List.map (System.subjobs_on system) procs) in
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
  fun (id : System.subjob_id) ->
    let s = System.step system id in
    let chain = match predecessor id with None -> [] | Some p -> [ p ] in
    let local =
      match System.scheduler_of system s.proc with
      | Sched.Spp | Sched.Spnp ->
          (* The next-higher resident's service function. *)
          Option.to_list (Hashtbl.find_opt above id)
      | Sched.Fcfs ->
          (* Arrival functions of all residents: their chain predecessors. *)
          residents.(s.proc)
          |> List.filter_map (fun other ->
                 if other = id then None else predecessor other)
    in
    chain @ local

let compute system =
  let all =
    List.concat
      (List.init (System.job_count system) (fun j ->
           List.init
             (Array.length (System.job system j).steps)
             (fun s -> { System.job = j; step = s })))
  in
  (* Kahn's algorithm over the dependency relation. *)
  let dependencies = dependencies system in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun id -> Hashtbl.replace tbl id (List.sort_uniq compare (dependencies id)))
    all;
  let in_degree = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace in_degree id 0) all;
  let dependents = Hashtbl.create 64 in
  Hashtbl.iter
    (fun id deps ->
      List.iter
        (fun d ->
          Hashtbl.replace in_degree id (Hashtbl.find in_degree id + 1);
          Hashtbl.replace dependents d (id :: Option.value ~default:[] (Hashtbl.find_opt dependents d)))
        deps)
    tbl;
  let ready =
    List.filter (fun id -> Hashtbl.find in_degree id = 0) all
    |> List.sort compare
  in
  let rec walk ready acc =
    match ready with
    | [] -> List.rev acc
    | id :: rest ->
        let next =
          Option.value ~default:[] (Hashtbl.find_opt dependents id)
          |> List.filter (fun d ->
                 let deg = Hashtbl.find in_degree d - 1 in
                 Hashtbl.replace in_degree d deg;
                 deg = 0)
        in
        walk (List.merge compare rest (List.sort compare next)) (id :: acc)
  in
  let sorted = walk ready [] in
  if List.length sorted = List.length all then Acyclic sorted
  else
    let stuck = List.filter (fun id -> Hashtbl.find in_degree id > 0) all in
    Cyclic stuck
