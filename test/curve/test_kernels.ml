(* Differential tests for the optimized curve kernels against the frozen
   baselines in [Reference]: randomized parity on general operands and on
   one-tick segments, the pointwise kernels, the walks (with the departure
   read also on plateau service), and the builder/cursor contracts. *)

open Rta_curve
module Reference = Rta_check.Reference
module G = Rta_testsupport.Gen

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Generators: adversarial curve shapes                                *)
(* ------------------------------------------------------------------ *)

(* Every segment one tick long: maximal knot density per unit time. *)
let pl_one_tick_gen : Pl.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 1 10 in
  let* slopes = list_repeat (n + 1) (int_range (-3) 4) in
  let* y0 = int_range (-5) 10 in
  return (G.pl_of_segments ~y0 (List.init n (fun _ -> 1)) slopes)

let qpair name gen1 gen2 prop =
  G.qtest2 name gen1 G.print_pl gen2 G.print_pl prop

(* ------------------------------------------------------------------ *)
(* Pointwise kernels                                                   *)
(* ------------------------------------------------------------------ *)

let pointwise_agrees (f, g) =
  List.for_all
    (fun (fast, slow) -> Pl.equal (fast f g) (slow f g))
    [
      (Pl.max2, Reference.max2);
      (Pl.add, Reference.add);
      (Pl.sub, Reference.sub);
    ]

let prop_pointwise =
  qpair "pointwise max2/add/sub: fast = reference" G.pl_gen G.pl_gen
    pointwise_agrees

let prop_pointwise_one_tick =
  qpair "pointwise kernels on one-tick segments" pl_one_tick_gen
    pl_one_tick_gen pointwise_agrees

(* ------------------------------------------------------------------ *)
(* Cursors                                                             *)
(* ------------------------------------------------------------------ *)

let times_gen : int array QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 1 20 in
  let* ts = list_repeat n (int_range 0 G.horizon) in
  return (Array.of_list (List.sort compare ts))

let prop_pl_cursor =
  G.qtest2 "Pl.Cursor.eval = Pl.eval on ascending times" G.pl_gen G.print_pl
    times_gen
    (fun a -> Fmt.str "%a" Fmt.(Dump.array int) a)
    (fun (f, ts) ->
      let c = Pl.Cursor.make f in
      Array.for_all (fun t -> Pl.Cursor.eval c t = Pl.eval f t) ts)

let prop_step_cursor =
  G.qtest2 "Step.Cursor eval/eval_left = Step.eval/eval_left" G.step_gen
    G.print_step times_gen
    (fun a -> Fmt.str "%a" Fmt.(Dump.array int) a)
    (fun (s, ts) ->
      let c = Step.Cursor.make s and cl = Step.Cursor.make s in
      Array.for_all
        (fun t ->
          Step.Cursor.eval c t = Step.eval s t
          && Step.Cursor.eval_left cl t = Step.eval_left s t)
        ts)

(* The merged reader against the built sum: value, slope and next knot at
   every member knot and the ticks either side of it, on one reader; and
   the value at ascending random times on another, which skips knots.
   Members include the zero curve, one-knot curves with rising tails and
   one-tick segments. *)
let members_gen =
  let open QCheck2.Gen in
  let one_knot =
    let* y0 = int_range 0 10 and* tail = int_range 0 3 in
    return (Pl.linear ~slope:tail ~offset:y0)
  in
  list_size (int_range 0 8)
    (oneof [ return Pl.zero; one_knot; G.pl_gen; G.pl_mono_gen; pl_one_tick_gen ])

let merged_matches_sum (members, ts) =
  let sum = Pl.sum members in
  let next_after t =
    List.fold_left
      (fun acc f ->
        Array.fold_left
          (fun acc (x, _) -> if x > t && x < acc then x else acc)
          acc (Pl.knots f))
      max_int members
  in
  let points =
    List.concat_map (fun f -> Array.to_list (Pl.knots f)) members
    |> List.concat_map (fun (x, _) -> [ x - 1; x; x + 1 ])
    |> List.filter (fun t -> t >= 0)
    |> List.sort_uniq Int.compare
  in
  let r = Pl.Merged.make members and c = Pl.Cursor.make sum in
  let skipping = Pl.Merged.make members in
  List.for_all
    (fun t ->
      Pl.Merged.eval r t = Pl.eval sum t
      && Pl.Merged.slope r t = Pl.Cursor.slope c t
      && Pl.Merged.next_knot r t = next_after t)
    points
  && Array.for_all (fun t -> Pl.Merged.eval skipping t = Pl.eval sum t) ts

let prop_merged =
  G.qtest ~count:1000 "Pl.Merged = Pl.sum at member knots and +-1"
    (QCheck2.Gen.pair members_gen times_gen)
    (fun (members, ts) ->
      Fmt.str "[%s] at %a"
        (String.concat "; " (List.map G.print_pl members))
        Fmt.(Dump.array int) ts)
    merged_matches_sum

let test_cursor_backwards_raises () =
  let f = Pl.of_knots ~tail:1 [ (0, 0); (4, 8) ] in
  let c = Pl.Cursor.make f in
  ignore (Pl.Cursor.eval c 5);
  Alcotest.check_raises "backwards query rejected"
    (Invalid_argument "Pl.Cursor: query times must be non-decreasing")
    (fun () -> ignore (Pl.Cursor.eval c 3))

(* ------------------------------------------------------------------ *)
(* Utilization walk and departure read                                 *)
(* ------------------------------------------------------------------ *)

(* Steps with big jumps and jumps at 0 stress the busy-period walk's
   effect times and the [`Right] mode's time-0 level. *)
let prop_utilization =
  G.qtest ~count:1000 "utilization (both modes) = identity + prefix_min"
    G.step_gen G.print_step (fun w ->
      List.for_all
        (fun mode ->
          Pl.equal (Minplus.utilization ~mode w) (Reference.utilization ~mode w))
        [ `Left; `Right ])

let departures_case_on service_gen =
  let open QCheck2.Gen in
  let* service = service_gen in
  let* tau = int_range 1 5 in
  let* arrivals = G.step_gen in
  let* horizon = int_range 0 (G.horizon + 16) in
  return (service, tau, arrivals, horizon)

let departures_case_gen = departures_case_on G.pl_mono_gen

let print_departures_case (service, tau, arrivals, horizon) =
  Printf.sprintf "service=%s tau=%d arrivals=%s horizon=%d" (G.print_pl service) tau
    (G.print_step arrivals) horizon

let departures_agree (service, tau, arrivals, horizon) =
  Step.equal
    (Minplus.departures ~horizon ~tau ~service ~arrivals)
    (Reference.departures ~horizon ~tau ~service ~arrivals)

let prop_departures =
  G.qtest ~count:1000 "departures: inverse read = Theorem 2 chain" departures_case_gen
    print_departures_case departures_agree

(* Mostly-flat service: long plateaus make the inverse read skip whole
   stretches in which no instance completes, and land on knots exactly. *)
let prop_departures_plateau =
  G.qtest ~count:1000 "inverse read on plateau service = Theorem 2 chain"
    (departures_case_on
       (G.pl_with ~y0_gen:(QCheck2.Gen.int_range 0 5)
          ~slope_gen:QCheck2.Gen.(oneofl [ 0; 0; 0; 0; 1; 2 ])))
    print_departures_case departures_agree

let prop_inverse_seek =
  G.qtest2 "Inverse.seek = geq on rising targets" G.pl_mono_gen G.print_pl times_gen
    (fun a -> Fmt.str "%a" Fmt.(Dump.array int) a)
    (fun (f, targets) ->
      let inv = Pl.Inverse.make f in
      let c = Pl.Inverse.cursor inv in
      Array.for_all (fun v -> Pl.Inverse.seek c v = Pl.Inverse.geq inv v) targets)

let test_step_builder () =
  let b = Step.Builder.create ~init:1 1 in
  List.iter
    (fun (t, v) -> Step.Builder.push b t v)
    [ (0, 1); (0, 2); (3, 4); (3, 5); (6, 5); (9, 7) ];
  check_bool "same rules as of_samples" true
    (Step.equal (Step.Builder.to_step b)
       (Step.of_samples ~init:1 [ (0, 2); (3, 5); (9, 7) ]));
  Alcotest.check_raises "backwards push rejected"
    (Invalid_argument "Step.Builder.push: time went backwards")
    (fun () -> Step.Builder.push b 8 9)

(* ------------------------------------------------------------------ *)
(* Builder contract                                                    *)
(* ------------------------------------------------------------------ *)

let test_builder_dedup_and_raise () =
  let b = Pl.Builder.create 2 in
  Pl.Builder.push b 0 0;
  Pl.Builder.push b 2 4;
  (* Same-time push overwrites the previous value. *)
  Pl.Builder.push b 2 6;
  check_bool "overwrite wins" true
    (Pl.equal (Pl.Builder.to_pl ~tail:1 b) (Pl.of_knots ~tail:1 [ (0, 0); (2, 6) ]));
  Alcotest.check_raises "backwards push rejected"
    (Invalid_argument "Pl.Builder.push: time went backwards")
    (fun () -> Pl.Builder.push b 1 3)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "rta_curve_kernels"
    [
      ("pointwise", [ prop_pointwise; prop_pointwise_one_tick ]);
      ( "walks",
        [
          prop_utilization;
          prop_departures;
          prop_inverse_seek;
          Alcotest.test_case "step builder" `Quick test_step_builder;
        ] );
      ("departures", [ prop_departures_plateau ]);
      ( "cursors",
        [
          prop_pl_cursor;
          prop_step_cursor;
          prop_merged;
          Alcotest.test_case "backwards query raises" `Quick
            test_cursor_backwards_raises;
          Alcotest.test_case "builder dedup + raise" `Quick
            test_builder_dedup_and_raise;
        ] );
    ]
