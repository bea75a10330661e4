(* A real `rta serve` process on a Unix-domain socket, for serve-hot.

   Paths are relative to the working directory (the socket path limit is
   about 100 bytes; a checkout can live deeper than that). *)

type t = { pid : int; socket : string; store : string }

let spawn ~rta ~dir ?metrics tag =
  let socket = Filename.concat dir (tag ^ ".sock") in
  let store = Filename.concat dir (tag ^ "-store") in
  let args =
    [ rta; "serve"; "--socket"; socket; "--no-stdio"; "-j"; "1"; "--store"; store ]
    @ match metrics with Some m -> [ "--metrics"; m ] | None -> []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close devnull) @@ fun () ->
    Unix.create_process rta (Array.of_list args) devnull devnull Unix.stderr
  in
  { pid; socket; store }

(* Graceful shutdown (SIGTERM drains, flushes the store, writes the
   metrics snapshot) and wait for the process to be gone. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec wait () =
    match Unix.waitpid [] t.pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  match wait () with
  | Unix.WEXITED 0 -> Ok ()
  | Unix.WEXITED n -> Error (Printf.sprintf "rta serve exited with %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Error (Printf.sprintf "rta serve killed by signal %d" n)

let peak_rss_mb t = Machine.peak_rss_mb ~pid:(string_of_int t.pid) ()

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
