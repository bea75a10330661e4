let subdeadline (j : System.job) i =
  let total = float_of_int (System.total_exec j) in
  float_of_int j.steps.(i).exec /. total *. float_of_int j.deadline

(* Assign per-processor priority ranks ordered by [key] (smaller key =
   higher priority = smaller prio number), tie-broken by (job, step). *)
let rank_by key jobs =
  let entries = ref [] in
  Array.iteri
    (fun ji (j : System.job) ->
      Array.iteri
        (fun si (s : System.step) -> entries := (s.proc, key j si, ji, si) :: !entries)
        j.steps)
    jobs;
  let sorted =
    List.sort
      (fun (p1, k1, j1, s1) (p2, k2, j2, s2) ->
        compare (p1, k1, j1, s1) (p2, k2, j2, s2))
      !entries
  in
  (* Walk per processor, counting rank. *)
  let ranks = Hashtbl.create 64 in
  let last_proc = ref (-1) and rank = ref 0 in
  List.iter
    (fun (p, _, ji, si) ->
      if p <> !last_proc then begin
        last_proc := p;
        rank := 0
      end;
      incr rank;
      Hashtbl.replace ranks (ji, si) !rank)
    sorted;
  Array.mapi
    (fun ji (j : System.job) ->
      {
        j with
        System.steps =
          Array.mapi
            (fun si (s : System.step) ->
              { s with System.prio = Hashtbl.find ranks (ji, si) })
            j.steps;
      })
    jobs

let deadline_monotonic jobs = rank_by subdeadline jobs

let deadline_monotonic_system system =
  let jobs =
    Array.init (System.job_count system) (System.job system)
    |> deadline_monotonic
  in
  let schedulers =
    Array.init (System.processor_count system) (System.scheduler_of system)
  in
  System.make ~schedulers ~jobs
