module Rng = Rta_workload.Rng
module Obs = Rta_obs

let c_cases = Obs.counter "fuzz.cases"
let c_passed = Obs.counter "fuzz.passed"
let c_violations = Obs.counter "fuzz.violations"

type counterexample = {
  seed : int;
  index : int;
  case : Gen.case;
  shrunk : Gen.case;
  violations : Oracle.violation list;
  file : string option;
}

type outcome = {
  tested : int;
  passed : int;
  counterexamples : counterexample list;
  elapsed_s : float;
}

let render cex =
  let b = Buffer.create 512 in
  Printf.bprintf b "#! rta-fuzz seed=%d index=%d release_horizon=%d horizon=%d\n"
    cex.seed cex.index cex.shrunk.Gen.release_horizon cex.shrunk.Gen.horizon;
  List.iter
    (fun v -> Printf.bprintf b "# violation: %s\n" (Format.asprintf "%a" Oracle.pp_violation v))
    cex.violations;
  Buffer.add_string b (Rta_model.Parser.print cex.shrunk.Gen.system);
  Buffer.contents b

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_report dir name text =
  mkdir_p dir;
  let path = Filename.concat dir name in
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  path

let trials ~budget_s ~count trial =
  let started = Unix.gettimeofday () in
  let deadline = Option.map (fun s -> started +. s) budget_s in
  let in_budget () =
    match deadline with None -> true | Some d -> Unix.gettimeofday () < d
  in
  let index = ref 0 in
  while !index < count && in_budget () do
    trial !index;
    incr index
  done;
  (!index, Unix.gettimeofday () -. started)

let run ?fault ?out_dir ?budget_s ~seed ~count () =
  let sp = if Obs.enabled () then Obs.span_begin "fuzz.run" else Obs.no_span in
  let passed = ref 0 in
  let cexs = ref [] in
  let tested, elapsed_s =
    trials ~budget_s ~count @@ fun i ->
    let case = Gen.generate (Rng.make (seed + i)) in
    Obs.incr c_cases;
    let check (s : Rta_model.System.t) =
      Oracle.check ?fault ~release_horizon:case.Gen.release_horizon
        ~horizon:case.Gen.horizon s
    in
    match check case.Gen.system with
    | Oracle.Passed ->
        incr passed;
        Obs.incr c_passed
    | Oracle.Failed _ ->
        Obs.incr c_violations;
        let still_fails s =
          match check s with Oracle.Failed _ -> true | _ -> false
        in
        let shrunk_system = Shrink.shrink still_fails case.Gen.system in
        let violations =
          match check shrunk_system with Oracle.Failed vs -> vs | _ -> []
        in
        let cex =
          {
            seed;
            index = i;
            case;
            shrunk = { case with Gen.system = shrunk_system };
            violations;
            file = None;
          }
        in
        let cex =
          match out_dir with
          | None -> cex
          | Some dir ->
              let name = Printf.sprintf "counterexample-%d-%d.rta" seed i in
              { cex with file = Some (write_report dir name (render cex)) }
        in
        cexs := cex :: !cexs
  in
  Obs.span_int sp "tested" tested;
  Obs.span_int sp "violations" (List.length !cexs);
  Obs.span_end sp;
  {
    tested;
    passed = !passed;
    counterexamples = List.rev !cexs;
    elapsed_s;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let replay ?fault path =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | contents -> (
      match Rta_model.Parser.parse contents with
      | Error msg -> Error msg
      | Ok system ->
          let directive =
            match String.split_on_char '\n' contents with
            | first :: _ when String.length first >= 2 && String.sub first 0 2 = "#!"
              -> (
                try
                  Scanf.sscanf first
                    "#! rta-fuzz seed=%d index=%d release_horizon=%d horizon=%d"
                    (fun _ _ rh h -> Some (rh, h))
                with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
            | _ -> None
          in
          let release_horizon, horizon =
            match directive with
            | Some hs -> hs
            | None -> Rta_model.System.suggested_horizons system
          in
          Ok (Oracle.check ?fault ~release_horizon ~horizon system))
