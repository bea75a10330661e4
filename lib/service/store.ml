(* Disk-backed LRU result store.  See store.mli for the contract; the
   implementation notes here cover what the interface leaves open.

   The in-memory index maps keys to (size, recency stamp) where stamps come
   from a logical clock bumped on every touch.  Eviction scans for the
   minimum stamp — O(entries), which is fine at the store's intended scale
   (thousands of entries, eviction amortized over writes); a heap would be
   noise here.

   Recency must survive restarts, so a hit also touches the entry file's
   mtime (best-effort) and [open_] seeds stamps from mtimes sorted
   ascending: oldest file gets the lowest stamp. *)

let m_hits = Rta_obs.counter "service.store.hits"
let m_misses = Rta_obs.counter "service.store.misses"
let m_evictions = Rta_obs.counter "service.store.evictions"
let m_corrupt = Rta_obs.counter "service.store.corrupt"

type stats = {
  entries : int;
  bytes : int;
  hits : int;
  misses : int;
  evictions : int;
  corrupt : int;
}

type entry = { mutable size : int; mutable stamp : int }

type t = {
  dir : string;
  max_bytes : int;
  mutex : Mutex.t;
  index : (string, entry) Hashtbl.t;
  mutable bytes : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable corrupt : int;
}

let key_ok key =
  String.length key = 32
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       key

let path t key = Filename.concat t.dir (key ^ ".json")

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Entry filename -> key, or None for anything else in the directory. *)
let key_of_filename name =
  if Filename.check_suffix name ".json" then
    let key = Filename.chop_suffix name ".json" in
    if key_ok key then Some key else None
  else None

let open_ ?(max_bytes = 64 * 1024 * 1024) dir =
  mkdir_p dir;
  let t =
    {
      dir;
      max_bytes;
      mutex = Mutex.create ();
      index = Hashtbl.create 256;
      bytes = 0;
      clock = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      corrupt = 0;
    }
  in
  let names = try Sys.readdir dir with Sys_error _ -> [||] in
  let found = ref [] in
  Array.iter
    (fun name ->
      if String.length name > 0 && name.[0] = '.' then begin
        (* Leftover temporary from a crashed publish: sweep it. *)
        if String.length name > 4 && String.sub name 0 4 = ".tmp" then
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ()
      end
      else
        match key_of_filename name with
        | None -> ()
        | Some key -> (
            match Unix.stat (Filename.concat dir name) with
            | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                found := (key, st_size, st_mtime) :: !found
            | _ | (exception Unix.Unix_error _) -> ()))
    names;
  List.sort (fun (_, _, a) (_, _, b) -> compare a b) !found
  |> List.iter (fun (key, size, _) ->
         t.clock <- t.clock + 1;
         Hashtbl.replace t.index key { size; stamp = t.clock };
         t.bytes <- t.bytes + size);
  t

let touch t key entry =
  t.clock <- t.clock + 1;
  entry.stamp <- t.clock;
  (* Persist recency so the LRU order survives a restart. *)
  try
    let now = Unix.gettimeofday () in
    Unix.utimes (path t key) now now
  with Unix.Unix_error _ -> ()

let drop t key entry =
  Hashtbl.remove t.index key;
  t.bytes <- t.bytes - entry.size;
  try Sys.remove (path t key) with Sys_error _ -> ()

let evict_corrupt t key entry =
  t.corrupt <- t.corrupt + 1;
  Rta_obs.incr m_corrupt;
  drop t key entry

(* Evict least-recently-used entries until the payload total fits. *)
let make_room t =
  while t.bytes > t.max_bytes && Hashtbl.length t.index > 0 do
    let victim =
      Hashtbl.fold
        (fun key entry acc ->
          match acc with
          | Some (_, best) when best.stamp <= entry.stamp -> acc
          | _ -> Some (key, entry))
        t.index None
    in
    match victim with
    | None -> ()
    | Some (key, entry) ->
        t.evictions <- t.evictions + 1;
        Rta_obs.incr m_evictions;
        drop t key entry
  done

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let find t ~key ~decode =
  locked t (fun () ->
      let miss () =
        t.misses <- t.misses + 1;
        Rta_obs.incr m_misses;
        None
      in
      if not (key_ok key) then miss ()
      else
        match Hashtbl.find_opt t.index key with
        | None -> miss ()
        | Some entry -> (
            match read_file (path t key) with
            | exception (Sys_error _ | End_of_file) ->
                evict_corrupt t key entry;
                miss ()
            | payload -> (
                match decode payload with
                | Ok v ->
                    t.hits <- t.hits + 1;
                    Rta_obs.incr m_hits;
                    touch t key entry;
                    Some v
                | Error _ ->
                    evict_corrupt t key entry;
                    miss ())))

let put t ~key payload =
  locked t (fun () ->
      let size = String.length payload in
      if key_ok key && size <= t.max_bytes then begin
        try
          let tmp =
            Filename.concat t.dir
              (Printf.sprintf ".tmp.%s.%d" key (Unix.getpid ()))
          in
          let oc = open_out_bin tmp in
          (try
             output_string oc payload;
             close_out oc
           with e ->
             close_out_noerr oc;
             (try Sys.remove tmp with Sys_error _ -> ());
             raise e);
          Sys.rename tmp (path t key);
          (match Hashtbl.find_opt t.index key with
          | Some entry ->
              t.bytes <- t.bytes - entry.size + size;
              entry.size <- size;
              t.clock <- t.clock + 1;
              entry.stamp <- t.clock
          | None ->
              t.clock <- t.clock + 1;
              Hashtbl.replace t.index key { size; stamp = t.clock };
              t.bytes <- t.bytes + size);
          make_room t
        with Sys_error _ | Unix.Unix_error _ ->
          (* Disk full, permissions, ... — the store is an accelerator:
             failing to persist must not fail the request. *)
          ()
      end)

let flush t =
  locked t (fun () ->
      try
        let fd = Unix.openfile t.dir [ Unix.O_RDONLY ] 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> Unix.fsync fd)
      with Unix.Unix_error _ -> ())

let stats t : stats =
  locked t (fun () ->
      {
        entries = Hashtbl.length t.index;
        bytes = t.bytes;
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        corrupt = t.corrupt;
      })

let dir t = t.dir
