(* Experiment harness: table rendering, admission sweep invariants, and
   small-scale smoke runs of every figure driver (the qualitative claims of
   Section 5.2 are asserted on reduced set counts). *)

module Adm = Rta_experiments.Admission
module Fig = Rta_experiments.Figures
module Tab = Rta_experiments.Tabular

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Tabular                                                             *)
(* ------------------------------------------------------------------ *)

let test_tabular () =
  let s = Tab.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "four lines" 4 (List.length lines);
  List.iter
    (fun l ->
      check_bool "no ragged right edge beyond max width" true
        (String.length l <= String.length (List.nth lines 3) + 2))
    lines;
  Alcotest.(check string) "float format" "0.125" (Tab.render_float 0.125)

(* ------------------------------------------------------------------ *)
(* Admission sweep                                                     *)
(* ------------------------------------------------------------------ *)

let config_of ~utilization ~sched =
  Rta_workload.Jobshop.default ~stages:2 ~jobs:4 ~utilization
    ~arrival:Rta_workload.Jobshop.Periodic_eq25
    ~deadline:(Rta_workload.Jobshop.Multiple_of_period 2.0) ~sched

let sweep methods utilizations sets =
  Adm.sweep ~methods ~config_of ~utilizations ~sets ~seed:7 ()

let test_probabilities_in_range () =
  let points = sweep [ Adm.Spp_exact; Adm.Spnp_app ] [ 0.2; 0.6 ] 20 in
  List.iter
    (fun p ->
      List.iter
        (fun (_, prob) -> check_bool "in [0,1]" true (prob >= 0. && prob <= 1.))
        p.Adm.admitted)
    points

let test_low_utilization_admits () =
  (* At 5% load with 2x-period deadlines, the exact analysis must admit
     essentially everything. *)
  let points = sweep [ Adm.Spp_exact ] [ 0.05 ] 30 in
  match points with
  | [ p ] ->
      check_bool "nearly all admitted" true
        (List.assoc Adm.Spp_exact p.Adm.admitted >= 0.95)
  | _ -> Alcotest.fail "one point expected"

let test_exact_dominates_sl () =
  (* Section 5.2's central claim: SPP/Exact admits at least as much as
     SPP/S&L, pointwise (same job sets, same scheduler). *)
  let points = sweep [ Adm.Spp_exact; Adm.Spp_sl ] [ 0.3; 0.5; 0.7 ] 40 in
  List.iter
    (fun p ->
      let exact = List.assoc Adm.Spp_exact p.Adm.admitted in
      let sl = List.assoc Adm.Spp_sl p.Adm.admitted in
      check_bool
        (Printf.sprintf "U=%.1f exact %.2f >= S&L %.2f" p.Adm.utilization exact sl)
        true (exact >= sl))
    points

let test_monotone_in_utilization () =
  (* Higher load can only hurt, up to sampling noise; with the same seeds
     per point this should hold almost exactly for the exact method. *)
  let points = sweep [ Adm.Spp_exact ] [ 0.2; 0.5; 0.8 ] 40 in
  let probs = List.map (fun p -> List.assoc Adm.Spp_exact p.Adm.admitted) points in
  match probs with
  | [ a; b; c ] ->
      check_bool "0.2 >= 0.5 (tolerance)" true (a >= b -. 0.1);
      check_bool "0.5 >= 0.8 (tolerance)" true (b >= c -. 0.1)
  | _ -> Alcotest.fail "three points"

let test_domains_deterministic () =
  (* Chunking sets across domains must not change any probability. *)
  let run domains =
    Adm.sweep ~domains ~methods:[ Adm.Spp_exact; Adm.Spnp_app ] ~config_of
      ~utilizations:[ 0.4; 0.7 ] ~sets:21 ~seed:5 ()
  in
  let one = run 1 and three = run 3 in
  List.iter2
    (fun a b ->
      List.iter2
        (fun (_, p1) (_, p2) ->
          Alcotest.(check (float 1e-12)) "same probability" p1 p2)
        a.Adm.admitted b.Adm.admitted)
    one three

let test_single_stage_exact_equals_sl () =
  (* Figure 3(a)/(d): on one stage the two SPP analyses coincide. *)
  let config_of ~utilization ~sched =
    Rta_workload.Jobshop.default ~stages:1 ~jobs:4 ~utilization
      ~arrival:Rta_workload.Jobshop.Periodic_eq25
      ~deadline:(Rta_workload.Jobshop.Multiple_of_period 1.0) ~sched
  in
  let points =
    Adm.sweep ~methods:[ Adm.Spp_exact; Adm.Spp_sl ] ~config_of
      ~utilizations:[ 0.4; 0.7; 0.9 ] ~sets:40 ~seed:11 ()
  in
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "U=%.1f equal" p.Adm.utilization)
        (List.assoc Adm.Spp_exact p.Adm.admitted)
        (List.assoc Adm.Spp_sl p.Adm.admitted))
    points

(* ------------------------------------------------------------------ *)
(* CSV                                                                 *)
(* ------------------------------------------------------------------ *)

let test_csv_escaping () =
  let module C = Rta_experiments.Csv in
  Alcotest.(check string) "plain" "abc" (C.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (C.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (C.escape "a\"b");
  Alcotest.(check string) "rows" "x,y\n1,\"a,b\"\n"
    (C.of_rows ~header:[ "x"; "y" ] [ [ "1"; "a,b" ] ])

let test_csv_sweep () =
  let points = sweep [ Adm.Spp_exact ] [ 0.2 ] 5 in
  let csv = Rta_experiments.Csv.of_sweep points in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "header + one record" 2 (List.length lines);
  Alcotest.(check string) "header" "utilization,method,admission_probability"
    (List.hd lines)

let test_fig3_csv () =
  let csv = Fig.fig3_csv ~sets:2 ~jobs:3 ~seed:1 () in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  (* 6 panels x 9 utilizations x 4 methods + header. *)
  Alcotest.(check int) "record count" (1 + (6 * 9 * 4)) (List.length lines)

(* ------------------------------------------------------------------ *)
(* Figure drivers (smoke)                                              *)
(* ------------------------------------------------------------------ *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_fig1 () =
  let s = Fig.fig1 () in
  check_bool "mentions Eq. 27" true (contains ~needle:"Eq. 27" s);
  check_bool "has rows" true (List.length (String.split_on_char '\n' s) > 10)

let test_fig2 () = check_bool "topology" true (contains ~needle:"P7" (Fig.fig2 ()))

let test_fig3_smoke () =
  let s = Fig.fig3 ~sets:3 ~jobs:3 ~seed:1 () in
  List.iter
    (fun panel -> check_bool panel true (contains ~needle:panel s))
    [ "Figure 3(a)"; "Figure 3(f)"; "SPP/Exact"; "SPP/S&L"; "SPNP/App"; "FCFS/App" ]

let test_fig4_smoke () =
  let s = Fig.fig4 ~sets:3 ~jobs:3 ~seed:1 () in
  List.iter
    (fun needle -> check_bool needle true (contains ~needle s))
    [ "Figure 4(a)"; "Figure 4(f)"; "bursty" ]

let test_tightness_smoke () =
  let s = Fig.tightness ~sets:5 ~seed:1 () in
  check_bool "has scheduler rows" true (contains ~needle:"spnp" s);
  (* Soundness: the violation column must be all zeros. *)
  let lines = String.split_on_char '\n' s in
  List.iter
    (fun l ->
      if contains ~needle:"spp" l || contains ~needle:"spnp" l || contains ~needle:"fcfs" l
      then
        let words = String.split_on_char ' ' l |> List.filter (fun w -> w <> "") in
        match List.rev words with
        | last :: _ -> Alcotest.(check string) "no violations" "0" last
        | [] -> ())
    lines

let test_ablation_smoke () =
  let s = Fig.ablation ~sets:5 ~seed:1 () in
  List.iter
    (fun needle -> check_bool needle true (contains ~needle s))
    [ "T-2a"; "T-2b"; "T-2c"; "T-2d"; "as printed"; "sound" ]

(* T-2b's rows, measured when the as-printed recursion still ran inside
   the engine: moving it must not move a verdict. *)
let test_ablation_t2b_pinned () =
  let s = Fig.ablation ~sets:20 ~seed:1 () in
  let row label =
    String.split_on_char '\n' s
    |> List.find (fun l -> String.starts_with ~prefix:label l)
    |> String.split_on_char ' ' |> List.filter (( <> ) "") |> String.concat " "
  in
  Alcotest.(check string) "as printed" "as printed 10/20 33 of 80 job bounds"
    (row "as printed  ");
  Alcotest.(check string) "sound" "sound 6/20 0 (by T-1)" (row "sound  ")

let test_robustness_smoke () =
  let s = Fig.robustness ~sets:3 ~seed:1 () in
  List.iter
    (fun needle -> check_bool needle true (contains ~needle s))
    [ "T-3"; "procs/stage"; "SPP/Exact" ]

let test_envelope_admission_smoke () =
  let s = Fig.envelope_admission ~sets:3 ~seed:1 () in
  List.iter
    (fun needle -> check_bool needle true (contains ~needle s))
    [ "T-5"; "trace exact"; "envelope" ]

let test_perf_scaling_smoke () =
  let s = Fig.perf_scaling () in
  check_bool "T-4" true (contains ~needle:"T-4" s);
  check_bool "has 16-job row" true (contains ~needle:"16" s)

let () =
  Alcotest.run "rta_experiments"
    [
      ("tabular", [ Alcotest.test_case "render" `Quick test_tabular ]);
      ( "admission",
        [
          Alcotest.test_case "probabilities in range" `Quick test_probabilities_in_range;
          Alcotest.test_case "low utilization admits" `Quick test_low_utilization_admits;
          Alcotest.test_case "exact dominates S&L" `Quick test_exact_dominates_sl;
          Alcotest.test_case "monotone in utilization" `Quick test_monotone_in_utilization;
          Alcotest.test_case "single stage: exact = S&L" `Quick
            test_single_stage_exact_equals_sl;
          Alcotest.test_case "domain chunking deterministic" `Quick
            test_domains_deterministic;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escaping" `Quick test_csv_escaping;
          Alcotest.test_case "sweep" `Quick test_csv_sweep;
          Alcotest.test_case "fig3 csv" `Slow test_fig3_csv;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig1" `Quick test_fig1;
          Alcotest.test_case "fig2" `Quick test_fig2;
          Alcotest.test_case "fig3 smoke" `Slow test_fig3_smoke;
          Alcotest.test_case "fig4 smoke" `Slow test_fig4_smoke;
          Alcotest.test_case "tightness smoke" `Slow test_tightness_smoke;
          Alcotest.test_case "ablation smoke" `Slow test_ablation_smoke;
          Alcotest.test_case "ablation T-2b pinned" `Slow test_ablation_t2b_pinned;
          Alcotest.test_case "robustness smoke" `Slow test_robustness_smoke;
          Alcotest.test_case "envelope admission smoke" `Slow
            test_envelope_admission_smoke;
          Alcotest.test_case "perf scaling smoke" `Slow test_perf_scaling_smoke;
        ] );
    ]
