(* Differential tests for the optimized curve kernels against the frozen
   baselines in [Reference]: randomized parity on general operands,
   adversarial shapes (plateaus, one-tick segments, negative-slope
   availability), the pointwise kernels, and the builder/cursor
   contracts. *)

open Rta_curve
module Reference = Rta_check.Reference
module G = Rta_testsupport.Gen

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Generators: adversarial curve shapes                                *)
(* ------------------------------------------------------------------ *)

(* Mostly-flat curves: plateaus stress the same-time dedup in the builder
   and the zero-slope branches of the prefix scan. *)
let pl_plateau_gen =
  G.pl_with ~y0_gen:(QCheck2.Gen.int_range 0 5)
    ~slope_gen:QCheck2.Gen.(oneofl [ 0; 0; 0; 0; 1; -1 ])

(* Every segment one tick long: maximal knot density per unit time. *)
let pl_one_tick_gen : Pl.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 1 10 in
  let* slopes = list_repeat (n + 1) (int_range (-3) 4) in
  let* y0 = int_range (-5) 10 in
  return (G.pl_of_segments ~y0 (List.init n (fun _ -> 1)) slopes)

(* Availability curves with negative-slope stretches (the analysis only
   produces non-decreasing ones; the kernels must not depend on that). *)
let pl_neg_avail_gen =
  G.pl_with ~y0_gen:(QCheck2.Gen.return 0)
    ~slope_gen:(QCheck2.Gen.int_range (-2) 2)

let qpair name gen1 gen2 prop =
  G.qtest2 name gen1 G.print_pl gen2 G.print_pl prop

(* ------------------------------------------------------------------ *)
(* Prefix minimum                                                      *)
(* ------------------------------------------------------------------ *)

let prefix_agrees mode (avail, work) =
  Pl.equal
    (Minplus.prefix_min ~mode ~avail ~work)
    (Reference.prefix_min ~mode ~avail ~work)

let qprefix name mode avail_gen =
  G.qtest2 name avail_gen G.print_pl G.step_gen G.print_step
    (prefix_agrees mode)

let prop_prefix_left =
  qprefix "prefix_min `Left: optimized = reference" `Left G.avail_gen

let prop_prefix_right =
  qprefix "prefix_min `Right: optimized = reference" `Right G.avail_gen

let prop_prefix_neg_avail =
  qprefix "prefix_min `Left: negative-slope avail" `Left pl_neg_avail_gen

let prop_prefix_plateau =
  qprefix "prefix_min `Right: plateau avail" `Right pl_plateau_gen

(* ------------------------------------------------------------------ *)
(* Pointwise kernels                                                   *)
(* ------------------------------------------------------------------ *)

let pointwise_agrees (f, g) =
  List.for_all
    (fun (fast, slow) -> Pl.equal (fast f g) (slow f g))
    [
      (Pl.min2, Reference.min2);
      (Pl.max2, Reference.max2);
      (Pl.add, Reference.add);
      (Pl.sub, Reference.sub);
    ]

let prop_pointwise =
  qpair "pointwise min2/max2/add/sub: fast = reference" G.pl_gen G.pl_gen
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

let test_cursor_backwards_raises () =
  let f = Pl.of_knots ~tail:1 [ (0, 0); (4, 8) ] in
  let c = Pl.Cursor.make f in
  ignore (Pl.Cursor.eval c 5);
  Alcotest.check_raises "backwards query rejected"
    (Invalid_argument "Pl.Cursor: query times must be non-decreasing")
    (fun () -> ignore (Pl.Cursor.eval c 3))

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
      ( "prefix_min",
        [
          prop_prefix_left;
          prop_prefix_right;
          prop_prefix_neg_avail;
          prop_prefix_plateau;
        ] );
      ("pointwise", [ prop_pointwise; prop_pointwise_one_tick ]);
      ( "cursors",
        [
          prop_pl_cursor;
          prop_step_cursor;
          Alcotest.test_case "backwards query raises" `Quick
            test_cursor_backwards_raises;
          Alcotest.test_case "builder dedup + raise" `Quick
            test_builder_dedup_and_raise;
        ] );
    ]
