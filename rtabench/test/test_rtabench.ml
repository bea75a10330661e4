(* The benchmark harness's own tests: seeded inputs, the percentile
   helper, the closed-loop client, the workload design. *)

open Rtabench
module Batch = Rta_service.Batch
module Server = Rta_service.Server

let lines workload seed =
  Array.map (fun (i : Gen.item) -> i.line) (Gen.inputs ~workload seed)

let test_seeded_inputs () =
  List.iter
    (fun w ->
      Alcotest.(check (array string)) (w ^ ": same seed, same bytes") (lines w 7) (lines w 7);
      Alcotest.(check bool) (w ^ ": other seed, other inputs") false (lines w 7 = lines w 8))
    Gen.workloads

let test_percentile () =
  let xs = Array.init 10 (fun i -> float (10 - i)) in
  let p = Stats.percentile xs in
  Alcotest.(check (float 0.)) "p50 of 1..10" 5. (p 0.5);
  Alcotest.(check (float 0.)) "p99 of 1..10" 10. (p 0.99);
  Alcotest.(check (float 0.)) "p10 of 1..10" 1. (p 0.1);
  Alcotest.(check (float 0.)) "p0 is the minimum" 1. (p 0.);
  Alcotest.(check (float 0.)) "p100 is the maximum" 10. (p 1.);
  Alcotest.(check (float 0.)) "median of three" 2. (Stats.median [| 3.; 1.; 2. |]);
  Alcotest.(check (float 0.)) "single sample" 4. (Stats.percentile [| 4. |] 0.99);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.median [||]));
  Alcotest.(check (array (float 0.))) "input left unsorted" (Array.init 10 (fun i -> float (10 - i))) xs

let test_batch_mix_design () =
  let items = Gen.inputs ~workload:"batch-mix" 1 in
  let n = Array.length items in
  let repeats = Array.to_list items |> List.filter (fun (i : Gen.item) -> i.repeat) in
  Alcotest.(check int) "one request in five repeats" (n / 5) (List.length repeats);
  let keys =
    Array.to_list items
    |> List.filter (fun (i : Gen.item) -> not i.repeat)
    |> List.map (fun (i : Gen.item) ->
           match Batch.prepare (Batch.request_of_line i.line) with
           | Batch.P_ready { key; _ } -> Rta_service.Key.to_hex key
           | Batch.P_invalid e -> Alcotest.fail e)
  in
  Alcotest.(check int) "originals are pairwise distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_bidirectional_fixpoint () =
  let bidi =
    Gen.inputs ~workload:"batch-mix" 1
    |> Array.to_list
    |> List.filter (fun (i : Gen.item) -> i.bidirectional && not i.repeat)
  in
  Alcotest.(check bool) "batch-mix has bidirectional shops" true (List.length bidi >= 3);
  List.iteri
    (fun k (i : Gen.item) ->
      if k < 3 then
        let r = Batch.run ~jobs:1 [| Batch.request_of_line i.line |] in
        match Check.analysis_of_response (Batch.response_line r.(0)) with
        | Ok a -> Alcotest.(check string) "method" "fixpoint" (Check.method_of a)
        | Error e -> Alcotest.fail e)
    bidi

let socket_path () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "rtabench-test-%d.sock" (Unix.getpid ()))

let test_closed_loop_client () =
  let path = socket_path () in
  let t = Server.create (Server.config ~workers:1 ~max_queue:4 ~socket:path ~stdio:false ()) in
  let thread = Thread.create Server.serve t in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Thread.join thread)
  @@ fun () ->
  let items = Array.sub (Gen.inputs ~workload:"serve-hot" 3) 0 3 in
  let c = Client.connect path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let warm = Array.map (fun (i : Gen.item) -> Client.request c i.line) items in
  Array.iter (fun r -> Alcotest.(check string) "warm pass misses" "miss" (Check.cache_label r)) warm;
  for pass = 1 to 5 do
    Array.iteri
      (fun k (i : Gen.item) ->
        let r = Client.request c i.line in
        Alcotest.(check string) (Printf.sprintf "pass %d hits" pass) "hit" (Check.cache_label r);
        Alcotest.(check (option string)) "same verdict as the warm pass"
          (Check.verdict_part warm.(k)) (Check.verdict_part r))
      items
  done;
  Alcotest.(check int) "never more than one request in flight" 1 (Client.max_in_flight c);
  Alcotest.(check int) "round trips" 18 (Client.round_trips c)

let test_admissible () =
  let ctx = { (Machine.context ~workers:1 ~clients:1) with Machine.nproc = 1 } in
  Alcotest.(check bool) "1 worker + 1 client on 1 core refused" false (Machine.admissible ctx);
  Alcotest.(check bool) "1 worker + 1 client on 2 cores runs" true
    (Machine.admissible { ctx with Machine.nproc = 2 })

let () =
  Alcotest.run "rtabench"
    [
      ( "inputs",
        [
          Alcotest.test_case "seeded and reproducible" `Quick test_seeded_inputs;
          Alcotest.test_case "batch-mix repeats and distinct originals" `Quick test_batch_mix_design;
          Alcotest.test_case "bidirectional shops take the fixpoint" `Quick test_bidirectional_fixpoint;
        ] );
      ("stats", [ Alcotest.test_case "nearest-rank percentile" `Quick test_percentile ]);
      ( "serve-hot",
        [
          Alcotest.test_case "closed loop, hits only" `Quick test_closed_loop_client;
          Alcotest.test_case "oversubscription refused" `Quick test_admissible;
        ] );
    ]
