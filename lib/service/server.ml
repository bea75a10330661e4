(* NDJSON daemon.  See server.mli for the contract.

   Thread architecture (everything works on both the sequential backend
   and the domains backend):

   - one reader thread per input (stdin, each accepted socket connection)
     decodes lines, answers invalid requests inline and pushes the rest
     onto the bounded queue;
   - the accept loop is its own thread, spawning connection readers;
   - the worker pool runs through {!Backend}: each pool slot executes
     [worker_loop], which drains the queue until it is closed and empty;
     the slots are domains, so analyses run in parallel;
   - a closer thread joins the input threads and then closes the queue,
     which is what lets the pool terminate.

   Blocking I/O is always [select] with a short timeout so every thread
   notices the stop flag promptly; the SIGTERM/SIGINT handler only sets
   that atomic flag (never takes a lock — a handler that locks can
   deadlock with the thread it interrupted). *)

let queue_full_c = Rta_obs.counter "service.queue.rejected"
let served_c = Rta_obs.counter "service.served"
let queue_depth_g = Rta_obs.gauge "service.queue.depth"
let queue_hw_g = Rta_obs.gauge "service.queue.high_water"

type config = {
  workers : int;
  max_queue : int;
  defaults : Batch.request;
  store : Store.t option;
  socket : string option;
  stdio : bool;
}

let config ?workers ?(max_queue = 64) ?(defaults = Batch.request "") ?store
    ?socket ?(stdio = true) () =
  let workers =
    match workers with Some w -> w | None -> Backend.default_jobs ()
  in
  { workers; max_queue; defaults; store; socket; stdio }

type item = {
  index : int;
  id : string option;
  prepared : Batch.prepared;
  admitted : float;
  reply : string -> unit;
}

type t = {
  cfg : config;
  cache : Batch.analysis Cache.t;
  stop_flag : bool Atomic.t;
  next_index : int Atomic.t;
  served : int Atomic.t;
  qm : Mutex.t;
  qc : Condition.t;
  queue : item Queue.t;
  mutable q_closed : bool;
}

let create cfg =
  if cfg.workers < 1 then invalid_arg "Server.create: workers must be >= 1";
  if cfg.max_queue < 1 then invalid_arg "Server.create: max_queue must be >= 1";
  if (not cfg.stdio) && cfg.socket = None then
    invalid_arg "Server.create: no input (need stdio and/or a socket)";
  {
    cfg;
    cache = Cache.create ();
    stop_flag = Atomic.make false;
    next_index = Atomic.make 0;
    served = Atomic.make 0;
    qm = Mutex.create ();
    qc = Condition.create ();
    queue = Queue.create ();
    q_closed = false;
  }

let stop t = Atomic.set t.stop_flag true
let stopping t = Atomic.get t.stop_flag
let requests_served t = Atomic.get t.served

(* -------------------------- bounded queue -------------------------- *)

let try_push t item =
  Mutex.lock t.qm;
  let accepted =
    if t.q_closed || Queue.length t.queue >= t.cfg.max_queue then false
    else begin
      Queue.add item t.queue;
      if Rta_obs.enabled () then begin
        Rta_obs.set_gauge queue_depth_g (Queue.length t.queue);
        Rta_obs.max_gauge queue_hw_g (Queue.length t.queue)
      end;
      Condition.signal t.qc;
      true
    end
  in
  Mutex.unlock t.qm;
  accepted

let pop t =
  Mutex.lock t.qm;
  let rec go () =
    if not (Queue.is_empty t.queue) then begin
      let item = Queue.pop t.queue in
      if Rta_obs.enabled () then
        Rta_obs.set_gauge queue_depth_g (Queue.length t.queue);
      Some item
    end
    else if t.q_closed then None
    else begin
      Condition.wait t.qc t.qm;
      go ()
    end
  in
  let r = go () in
  Mutex.unlock t.qm;
  r

let close_queue t =
  Mutex.lock t.qm;
  t.q_closed <- true;
  Condition.broadcast t.qc;
  Mutex.unlock t.qm

(* --------------------------- responses ----------------------------- *)

let send t reply line =
  reply line;
  Atomic.incr t.served;
  if Rta_obs.enabled () then Rta_obs.incr served_c

let queue_full_line ~index ~id =
  let id_field =
    match id with
    | Some id -> [ ("id", Rta_obs.Json.String id) ]
    | None -> []
  in
  Rta_obs.Json.to_string
    (Rta_obs.Json.Obj
       (("schema_version", Rta_obs.Json.Int 1)
       :: ("index", Rta_obs.Json.Int index)
       :: id_field
       @ [ ("status", Rta_obs.Json.String "queue_full") ]))

(* --------------------------- admission ----------------------------- *)

let admit t ~reply line =
  if String.trim line <> "" then begin
    let index = Atomic.fetch_and_add t.next_index 1 in
    let parsed = Batch.request_of_line ~defaults:t.cfg.defaults line in
    let id = match parsed with Ok r -> r.Batch.id | Error _ -> None in
    match Batch.prepare parsed with
    | Batch.P_invalid e ->
        (* Answer malformed input on the reader thread: it costs nothing
           and keeps the queue for work that needs workers. *)
        send t reply
          (Batch.response_line
             {
               Batch.index;
               id;
               cache = `Uncached;
               status = Batch.Invalid e;
             })
    | p ->
        let item =
          { index; id; prepared = p; admitted = Rta_obs.now (); reply }
        in
        if not (try_push t item) then begin
          if Rta_obs.enabled () then Rta_obs.incr queue_full_c;
          send t reply (queue_full_line ~index ~id)
        end
  end

(* ---------------------------- workers ------------------------------ *)

let worker_loop t () =
  let rec go () =
    match pop t with
    | None -> ()
    | Some item ->
        let label =
          match item.prepared with
          | Batch.P_invalid _ -> `Uncached
          | Batch.P_ready { key; _ } ->
              if Cache.mem t.cache (Key.to_hex key) then `Hit else `Miss
        in
        let status =
          Batch.execute ~cache:t.cache ?store:t.cfg.store
            ~admitted:item.admitted item.prepared
        in
        send t item.reply
          (Batch.response_line
             { Batch.index = item.index; id = item.id; cache = label; status });
        go ()
  in
  go ()

(* ---------------------------- readers ------------------------------ *)

(* Line-framed reads over a raw fd, polling the stop flag between
   [select] rounds so shutdown never waits on a silent client.  A final
   unterminated line at EOF is processed like any other. *)
let read_lines t fd ~on_line =
  let pending = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let flush_lines () =
    let s = Buffer.contents pending in
    Buffer.clear pending;
    let rec split start =
      match String.index_from_opt s start '\n' with
      | Some nl ->
          on_line (String.sub s start (nl - start));
          split (nl + 1)
      | None -> Buffer.add_substring pending s start (String.length s - start)
    in
    split 0
  in
  let rec loop () =
    if not (stopping t) then
      match Unix.select [ fd ] [] [] 0.2 with
      | [], _, _ -> loop ()
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> if Buffer.length pending > 0 then on_line (Buffer.contents pending)
          | n ->
              Buffer.add_subbytes pending chunk 0 n;
              flush_lines ();
              loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
          | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let locked_writer fd =
  let m = Mutex.create () in
  fun line ->
    Mutex.lock m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock m)
      (fun () ->
        (* A client that hung up (EPIPE) loses its remaining responses;
           nothing else in the daemon should notice. *)
        try
          let payload = Bytes.of_string (line ^ "\n") in
          let len = Bytes.length payload in
          let rec write off =
            if off < len then
              write (off + Unix.write fd payload off (len - off))
          in
          write 0
        with Unix.Unix_error _ -> ())

(* ----------------------------- serve ------------------------------- *)

let listen_socket path =
  (* A stale socket file from a crashed daemon would make bind fail;
     nothing else can legitimately own the path, so take it over. *)
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  fd

let accept_loop t lfd =
  let conns = ref [] in
  while not (stopping t) do
    match Unix.select [ lfd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept lfd with
        | cfd, _ ->
            let thread =
              Thread.create
                (fun () ->
                  let reply = locked_writer cfd in
                  read_lines t cfd ~on_line:(admit t ~reply);
                  (* Close only the read side here: workers may still owe
                     this client responses; the fd is closed after the
                     pool drains. *)
                  try Unix.shutdown cfd Unix.SHUTDOWN_RECEIVE
                  with Unix.Unix_error _ -> ())
                ()
            in
            conns := (thread, cfd) :: !conns
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  List.iter (fun (thread, _) -> Thread.join thread) !conns;
  List.map snd !conns

let serve t =
  let restore =
    let install signal =
      try
        let old =
          Sys.signal signal (Sys.Signal_handle (fun _ -> stop t))
        in
        fun () -> Sys.set_signal signal old
      with Invalid_argument _ | Sys_error _ -> fun () -> ()
    in
    let r_term = install Sys.sigterm in
    let r_int = install Sys.sigint in
    fun () ->
      r_term ();
      r_int ()
  in
  Fun.protect ~finally:restore @@ fun () ->
  let listener = Option.map listen_socket t.cfg.socket in
  let conn_fds = ref [] in
  let inputs = ref [] in
  (match listener with
  | Some lfd ->
      inputs :=
        Thread.create (fun () -> conn_fds := accept_loop t lfd) () :: !inputs
  | None -> ());
  if t.cfg.stdio then begin
    let reply = locked_writer Unix.stdout in
    inputs :=
      Thread.create
        (fun () -> read_lines t Unix.stdin ~on_line:(admit t ~reply))
        ()
      :: !inputs
  end;
  (* Admission ends when every input thread is done — stdin EOF, or the
     stop flag unwinding the accept loop.  Closing the queue is what lets
     the worker pool finish: it drains everything already admitted first. *)
  let closer =
    Thread.create
      (fun () ->
        List.iter Thread.join !inputs;
        stop t;
        close_queue t)
      ()
  in
  Backend.run ~jobs:t.cfg.workers
    (Array.init t.cfg.workers (fun _ -> worker_loop t));
  Thread.join closer;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !conn_fds;
  (match listener with
  | Some lfd -> (
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      match t.cfg.socket with
      | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
      | None -> ())
  | None -> ());
  (match t.cfg.store with
  | Some st ->
      Store.flush st;
      let s = Store.stats st in
      Printf.eprintf
        "rta serve: store %s: %d entries (%d B), %d hits, %d misses, %d \
         evicted, %d corrupt\n%!"
        (Store.dir st) s.Store.entries s.Store.bytes s.Store.hits
        s.Store.misses s.Store.evictions s.Store.corrupt
  | None -> ());
  Printf.eprintf "rta serve: drained; %d responses written\n%!"
    (requests_served t)
