(* Contract tests for [Engine.entry_csv]: the CSV is a stable external
   surface (plot scripts and notebooks consume it), so its header, column
   layout and change-point discipline are pinned down here. *)

open Rta_model
module Step = Rta_curve.Step
module Engine = Rta_core.Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A 2-stage, 2-job SPP shop: small enough to reason about, big enough
   that departures differ from arrivals. *)
let engine () =
  let system =
    System.make_exn
      ~schedulers:[| Sched.Spp; Sched.Spp |]
      ~jobs:
        [|
          {
            System.name = "A";
            arrival = Arrival.Periodic { period = 10; offset = 0 };
            deadline = 40;
            steps =
              [|
                { System.proc = 0; exec = 2; prio = 1 };
                { System.proc = 1; exec = 3; prio = 1 };
              |];
          };
          {
            System.name = "B";
            arrival = Arrival.Periodic { period = 15; offset = 1 };
            deadline = 60;
            steps =
              [|
                { System.proc = 0; exec = 4; prio = 2 };
                { System.proc = 1; exec = 2; prio = 2 };
              |];
          };
        |]
  in
  match Engine.run ~horizon:120 system with
  | Ok e -> e
  | Error (`Cyclic _) -> Alcotest.fail "test system should be acyclic"

let lines_of s =
  String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let row_of_line l =
  match String.split_on_char ',' l |> List.map int_of_string_opt with
  | [ Some t; Some a; Some b; Some c; Some d ] -> (t, a, b, c, d)
  | _ -> Alcotest.fail (Printf.sprintf "malformed CSV row: %S" l)

let test_header_and_shape () =
  let e = engine () in
  let csv = Engine.entry_csv e { System.job = 0; step = 0 } in
  match lines_of csv with
  | [] -> Alcotest.fail "empty CSV"
  | header :: rows ->
      Alcotest.(check string)
        "header names the five columns" "t,arr_lo,arr_hi,dep_lo,dep_hi" header;
      check_bool "at least one data row" true (rows <> []);
      List.iter (fun l -> ignore (row_of_line l)) rows

let test_change_points () =
  let e = engine () in
  let id = { System.job = 1; step = 1 } in
  let entry = Engine.entry e id in
  let csv = Engine.entry_csv e id in
  let rows = List.tl (lines_of csv) |> List.map row_of_line in
  let times = List.map (fun (t, _, _, _, _) -> t) rows in
  (* Times start at 0 and are strictly increasing, i.e. the union of jump
     points is sorted and deduplicated. *)
  (match times with
  | 0 :: _ -> ()
  | _ -> Alcotest.fail "first change point must be t=0");
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | [ _ ] | [] -> true
  in
  check_bool "times strictly increasing" true (strictly_increasing times);
  (* Every jump point of every curve appears. *)
  let jump_times f = Array.to_list (Step.jumps f) |> List.map fst in
  List.iter
    (fun jt ->
      check_bool
        (Printf.sprintf "jump time %d appears in the CSV" jt)
        true (List.mem jt times))
    (jump_times entry.Engine.arr_lo
    @ jump_times entry.Engine.arr_hi
    @ jump_times entry.Engine.dep_lo
    @ jump_times (Lazy.force entry.Engine.dep_hi))

let test_values_match_entry () =
  let e = engine () in
  List.iter
    (fun id ->
      let entry = Engine.entry e id in
      let rows =
        List.tl (lines_of (Engine.entry_csv e id)) |> List.map row_of_line
      in
      List.iter
        (fun (t, arr_lo, arr_hi, dep_lo, dep_hi) ->
          check_int "arr_lo column" (Step.eval entry.Engine.arr_lo t) arr_lo;
          check_int "arr_hi column" (Step.eval entry.Engine.arr_hi t) arr_hi;
          check_int "dep_lo column" (Step.eval entry.Engine.dep_lo t) dep_lo;
          check_int "dep_hi column" (Step.eval (Lazy.force entry.Engine.dep_hi) t) dep_hi;
          (* Counting functions: lower bounds never exceed upper bounds. *)
          check_bool "arr_lo <= arr_hi" true (arr_lo <= arr_hi);
          check_bool "dep_lo <= dep_hi" true (dep_lo <= dep_hi);
          (* Departures cannot precede arrivals. *)
          check_bool "dep_hi <= arr_hi" true (dep_hi <= arr_hi))
        rows)
    [
      { System.job = 0; step = 0 };
      { System.job = 0; step = 1 };
      { System.job = 1; step = 0 };
      { System.job = 1; step = 1 };
    ]

let test_columns_monotone () =
  let e = engine () in
  let rows =
    List.tl (lines_of (Engine.entry_csv e { System.job = 0; step = 1 }))
    |> List.map row_of_line
  in
  let rec pairwise = function
    | (_, a, b, c, d) :: ((_, a', b', c', d') :: _ as rest) ->
        check_bool "arr_lo non-decreasing" true (a <= a');
        check_bool "arr_hi non-decreasing" true (b <= b');
        check_bool "dep_lo non-decreasing" true (c <= c');
        check_bool "dep_hi non-decreasing" true (d <= d');
        pairwise rest
    | [ _ ] | [] -> ()
  in
  pairwise rows

let () =
  Alcotest.run "engine_csv"
    [
      ( "entry_csv",
        [
          Alcotest.test_case "header and shape" `Quick test_header_and_shape;
          Alcotest.test_case "change points sorted+deduped" `Quick
            test_change_points;
          Alcotest.test_case "values match entry curves" `Quick
            test_values_match_entry;
          Alcotest.test_case "columns monotone" `Quick test_columns_monotone;
        ] );
    ]
