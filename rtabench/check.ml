(* The correctness gate: every verdict against the simulator.

   A bounded per-job verdict must be at least the simulated worst
   end-to-end response at the same horizons, and equal to it when the
   analysis claims [exact] (Theorems 1-3: SPP with exact inputs). *)

module Batch = Rta_service.Batch
module Json = Rta_obs.Json

let field line name =
  match Json.of_string line with
  | Ok (Json.Obj f) -> List.assoc_opt name f
  | _ -> None

let spec_of_request line =
  match field line "spec" with Some (Json.String s) -> s | _ -> ""

(* The analysis a response line carries, or why it carries none.  Only
   status "ok" (schedulable or not) is an answer; "degraded", "timeout",
   "invalid" and "failed" are failures of the request. *)
let analysis_of_response line =
  match Json.of_string line with
  | Ok (Json.Obj f as j) -> (
      match List.assoc_opt "status" f with
      | Some (Json.String "ok") -> Batch.analysis_of_json j
      | Some (Json.String s) -> Error ("status " ^ s)
      | _ -> Error "response without a status")
  | Ok _ -> Error "response is not an object"
  | Error e -> Error e

let method_of (a : Batch.analysis) =
  match a.Batch.method_used with
  | `Exact -> "exact"
  | `Approximate -> "approximate"
  | `Fixpoint -> "fixpoint"

(* One message per violated per-job relation; [] when the answer holds. *)
let violations system (a : Batch.analysis) =
  let sim =
    Rta_sim.Sim.run ~release_horizon:a.Batch.release_horizon system
      ~horizon:a.Batch.horizon
  in
  let exact = a.Batch.method_used = `Exact in
  Array.to_list a.Batch.verdicts
  |> List.mapi (fun j (v : Batch.verdict) ->
         match (v.Batch.bound, Rta_sim.Sim.worst_response sim j) with
         | None, _ -> []
         | Some b, Some w when w > b ->
             [ Printf.sprintf "%s: bound %d below simulated %d" v.Batch.job_name b w ]
         | Some b, Some w when exact && w <> b ->
             [ Printf.sprintf "%s: exact bound %d but simulated %d" v.Batch.job_name b w ]
         | Some b, None when exact ->
             [ Printf.sprintf "%s: exact bound %d but no simulated completion" v.Batch.job_name b ]
         | Some _, _ -> [])
  |> List.concat

(* Check one request/response pair end to end: the request's spec is
   re-parsed here, independently of the program under test. *)
let request_response ~request ~response =
  match analysis_of_response response with
  | Error e -> Error e
  | Ok a -> (
      match Rta_model.Parser.parse (spec_of_request request) with
      | Error e -> Error ("spec: " ^ e)
      | Ok system -> (
          match violations system a with
          | [] -> Ok a
          | v -> Error (String.concat "; " v)))

(* First index of [sub] in [s] at or after [from]. *)
let find_sub ?(from = 0) s sub =
  let n = String.length s and k = String.length sub in
  let rec at i j = j = k || (s.[i + j] = sub.[j] && at i (j + 1)) in
  let rec go i = if i + k > n then None else if at i 0 then Some i else go (i + 1) in
  go from

(* The part of an "ok" response that is the analysis itself: everything
   from the method on, past the per-request index, id and cache label. *)
let verdict_part line =
  Option.map
    (fun i -> String.sub line i (String.length line - i))
    (find_sub line "\"method\":")

(* The cache label of a response, read without a full JSON parse so the
   closed loop can check every reply. *)
let cache_label line =
  List.find_opt
    (fun l -> find_sub line (Printf.sprintf "\"cache\":\"%s\"" l) <> None)
    [ "hit"; "miss"; "none" ]
  |> Option.value ~default:"none"
