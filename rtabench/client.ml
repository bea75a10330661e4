(* Closed-loop NDJSON client over a Unix-domain socket: one request is
   written, its response read, and only then is the next one sent.  The
   in-flight count is kept so the benchmark (and its tests) can prove the
   loop never pipelines. *)

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  mutable in_flight : int;
  mutable max_in_flight : int;
  mutable round_trips : int;
}

let connect ?(timeout_s = 60.) path =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
        Unix.close fd;
        ignore (Unix.select [] [] [] 0.02);
        go ()
  in
  let fd = go () in
  {
    fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    in_flight = 0;
    max_in_flight = 0;
    round_trips = 0;
  }

(* One round trip; raises [End_of_file] if the daemon hangs up. *)
let request t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc;
  t.in_flight <- t.in_flight + 1;
  if t.in_flight > t.max_in_flight then t.max_in_flight <- t.in_flight;
  let reply = input_line t.ic in
  t.in_flight <- t.in_flight - 1;
  t.round_trips <- t.round_trips + 1;
  reply

let max_in_flight t = t.max_in_flight
let round_trips t = t.round_trips
let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
