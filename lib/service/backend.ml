(* Domain-based worker pool. *)

let default_jobs () = max 1 (Domain.recommended_domain_count ())

let run ~jobs tasks =
  let n = Array.length tasks in
  let jobs = max 1 (min jobs n) in
  let first_exn : exn option Atomic.t = Atomic.make None in
  let next = Atomic.make 0 in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      (try tasks.(i) ()
       with e ->
         ignore (Atomic.compare_and_set first_exn None (Some e)));
      worker ()
    end
  in
  if jobs = 1 then worker ()
  else begin
    let others = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join others
  end;
  match Atomic.get first_exn with Some e -> raise e | None -> ()
