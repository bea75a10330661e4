(* The machine a result was measured on, and the process-level readings
   the harness takes from /proc. *)

(* Online CPUs available to this process, as nproc(1) reports them. *)
let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | ic -> (
      let line = try Some (input_line ic) with End_of_file -> None in
      match (Unix.close_process_in ic, Option.bind line int_of_string_opt) with
      | Unix.WEXITED 0, Some n -> n
      | _ -> Domain.recommended_domain_count ())
  | exception Unix.Unix_error _ -> Domain.recommended_domain_count ()

(* A "Vm...:   1234 kB" field of /proc/<pid>/status, in kB. *)
let status_kb ~pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let prefix = field ^ ":" in
      let rec go () =
        match input_line ic with
        | exception End_of_file -> None
        | l when String.starts_with ~prefix l ->
            Scanf.sscanf_opt
              (String.sub l (String.length prefix)
                 (String.length l - String.length prefix))
              " %d" Fun.id
        | _ -> go ()
      in
      go ()

(* Peak resident set (VmHWM) of a process, in MB (2^20 bytes). *)
let peak_rss_mb ?(pid = "self") () =
  match status_kb ~pid "VmHWM" with
  | Some kb -> float kb /. 1024.
  | None -> nan

type context = {
  nproc : int;
  recommended_domains : int;
  ocaml : string;
  workers : int;
  clients : int;
}

let context ~workers ~clients =
  {
    nproc = nproc ();
    recommended_domains = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    workers;
    clients;
  }

(* Workers and client connections each want a core of their own; more of
   them than cores makes the figures measure the OS scheduler. *)
let admissible c = c.workers + c.clients <= c.nproc

let context_json c =
  Rta_obs.Json.Obj
    [
      ("nproc", Rta_obs.Json.Int c.nproc);
      ("recommended_domain_count", Rta_obs.Json.Int c.recommended_domains);
      ("ocaml_version", Rta_obs.Json.String c.ocaml);
      ("workers", Rta_obs.Json.Int c.workers);
      ("client_connections", Rta_obs.Json.Int c.clients);
    ]
