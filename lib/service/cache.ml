type 'a entry = Done of 'a | Pending

type 'a t = {
  mutex : Mutex.t;
  cond : Condition.t;
  tbl : (string, 'a entry) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create () =
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    tbl = Hashtbl.create 256;
    hits = 0;
    misses = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let length t =
  locked t (fun () ->
      Hashtbl.fold
        (fun _ e acc -> match e with Done _ -> acc + 1 | Pending -> acc)
        t.tbl 0)

let mem t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some (Done _) -> true
      | Some Pending | None -> false)

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some (Done v) -> Some v
      | Some Pending | None -> None)

let stats t = locked t (fun () -> (t.hits, t.misses))

let find_or_compute t ~key f =
  Mutex.lock t.mutex;
  let rec decide () =
    match Hashtbl.find_opt t.tbl key with
    | Some (Done v) ->
        t.hits <- t.hits + 1;
        Mutex.unlock t.mutex;
        `Hit v
    | Some Pending ->
        (* Another caller is computing this key right now: wait for it
           instead of duplicating the work (in-flight deduplication). *)
        Condition.wait t.cond t.mutex;
        decide ()
    | None ->
        Hashtbl.replace t.tbl key Pending;
        t.misses <- t.misses + 1;
        Mutex.unlock t.mutex;
        (* From here until the marker is resolved, EVERY exit path —
           including asynchronous exceptions landing between the unlock
           above and the call to [f], and {!Cancel.Cancelled} unwinding out
           of [f] — must clear the Pending marker, or waiters block forever
           and the key can never be computed again.  [Fun.protect] makes the
           cleanup unconditional; the happy path marks completion first so
           the finaliser knows not to evict the fresh result. *)
        let completed = ref false in
        Fun.protect
          ~finally:(fun () ->
            if not !completed then begin
              Mutex.lock t.mutex;
              Hashtbl.remove t.tbl key;
              Condition.broadcast t.cond;
              Mutex.unlock t.mutex
            end)
          (fun () ->
            let v = f () in
            Mutex.lock t.mutex;
            Hashtbl.replace t.tbl key (Done v);
            completed := true;
            Condition.broadcast t.cond;
            Mutex.unlock t.mutex;
            `Miss v)
  in
  decide ()
