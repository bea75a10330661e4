(* Tests for the exact curve algebra: unit tests for each operation plus
   property tests comparing every sparse operation against the dense-array
   oracle. *)

open Rta_curve
module Dense = Rta_check.Dense
module Reference = Rta_check.Reference
module G = Rta_testsupport.Gen

let h = G.horizon

(* ------------------------------------------------------------------ *)
(* Step: unit tests                                                    *)
(* ------------------------------------------------------------------ *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_step_basics () =
  let f = Step.of_arrival_times [| 2; 2; 5; 9 |] in
  check_int "before first" 0 (Step.eval f 0);
  check_int "at double jump" 2 (Step.eval f 2);
  check_int "between" 2 (Step.eval f 4);
  check_int "at 5" 3 (Step.eval f 5);
  check_int "after last" 4 (Step.eval f 100);
  check_int "left limit at 2" 0 (Step.eval_left f 2);
  check_int "left limit at 6" 3 (Step.eval_left f 6);
  check_int "left limit at 0" 0 (Step.eval_left f 0);
  check_int "final" 4 (Step.final_value f);
  check_int "jumps" 3 (Step.jump_count f)

let test_step_inverse () =
  let f = Step.of_arrival_times [| 2; 2; 5; 9 |] in
  Alcotest.(check (option int)) "1st instance" (Some 2) (Step.inverse f 1);
  Alcotest.(check (option int)) "2nd instance" (Some 2) (Step.inverse f 2);
  Alcotest.(check (option int)) "3rd instance" (Some 5) (Step.inverse f 3);
  Alcotest.(check (option int)) "4th instance" (Some 9) (Step.inverse f 4);
  Alcotest.(check (option int)) "missing 5th" None (Step.inverse f 5);
  Alcotest.(check (option int)) "0th is 0" (Some 0) (Step.inverse f 0)

let test_step_arith () =
  let f = Step.of_arrival_times [| 1; 4 |] in
  let g = Step.scale f 3 in
  check_int "scaled" 3 (Step.eval g 1);
  check_int "scaled 2" 6 (Step.eval g 4);
  let s = Step.add f g in
  check_int "add" 4 (Step.eval s 1);
  check_int "add final" 8 (Step.final_value s)

let test_step_shift () =
  let f = Step.of_arrival_times [| 1; 4 |] in
  let r = Step.shift_right f 3 in
  check_int "shifted right at 3" 0 (Step.eval r 3);
  check_int "shifted right at 4" 1 (Step.eval r 4);
  check_int "shifted right at 7" 2 (Step.eval r 7);
  let l = Step.shift_left f 2 in
  check_int "shifted left at 0" 1 (Step.eval l 0);
  check_int "shifted left at 2" 2 (Step.eval l 2)

let test_step_zero_const () =
  check_int "zero" 0 (Step.eval Step.zero 17);
  check_int "const" 5 (Step.eval (Step.const 5) 0);
  check_bool "const dominates zero" true (Step.dominates (Step.const 5) Step.zero);
  check_bool "zero not dominates const" false
    (Step.dominates Step.zero (Step.const 5))

let test_step_truncate () =
  let f = Step.of_arrival_times [| 1; 4; 9 |] in
  let g = Step.truncate_after f 4 in
  check_int "kept" 2 (Step.eval g 4);
  check_int "dropped" 2 (Step.eval g 100);
  check_bool "same up to 4" true
    (Step.equal g (Step.of_arrival_times [| 1; 4 |]))

let test_step_eval_left_jumps () =
  (* A double release at t = 0: the left limit there is still the
     pre-release value, not f(0). *)
  let f = Step.of_arrival_times [| 0; 0; 5 |] in
  check_int "f(0) sees the jump" 2 (Step.eval f 0);
  check_int "left limit at 0 does not" 0 (Step.eval_left f 0);
  check_int "left limit just after the jump" 2 (Step.eval_left f 1);
  check_int "left limit at a later jump" 2 (Step.eval_left f 5);
  check_int "and just after it" 3 (Step.eval_left f 6);
  (* No jumps at all: both limits coincide everywhere. *)
  check_int "constant left limit" 4 (Step.eval_left (Step.const 4) 0);
  check_int "constant left limit later" 4 (Step.eval_left (Step.const 4) 9)

(* ------------------------------------------------------------------ *)
(* Step: properties against the dense oracle                           *)
(* ------------------------------------------------------------------ *)

let dense_eq_step name op dense_op =
  G.qtest2 name G.step_gen G.print_step G.step_gen G.print_step (fun (f, g) ->
      let r = op f g in
      (* The result is in normal form (raises otherwise). *)
      Step.invariant r;
      let sparse = Dense.of_step ~horizon:h r in
      let dense =
        dense_op (Dense.of_step ~horizon:h f) (Dense.of_step ~horizon:h g)
      in
      Dense.equal_on sparse dense)

let prop_step_add = dense_eq_step "step add = dense add" Step.add (Dense.pointwise ( + ))
let prop_step_min = dense_eq_step "step min2 = dense min" Step.min2 (Dense.pointwise min)
let prop_step_max = dense_eq_step "step max2 = dense max" Step.max2 (Dense.pointwise max)

let prop_step_sum =
  (* The pairwise rounds of [Step.sum] regroup the additions; exact
     integer sums and normal forms make the regrouping invisible. *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"sum = left fold of add"
       ~print:(fun l -> String.concat "; " (List.map G.print_step l))
       QCheck2.Gen.(list_size (int_range 0 9) G.step_gen)
       (fun l ->
         Step.equal (Step.sum l) (List.fold_left Step.add Step.zero l)))

let prop_pl_sum =
  (* As for [Step.sum]: the pairwise rounds regroup exact additions. *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"sum = left fold of add"
       ~print:(fun l -> String.concat "; " (List.map G.print_pl l))
       QCheck2.Gen.(list_size (int_range 0 9) G.pl_gen)
       (fun l -> Pl.equal (Pl.sum l) (List.fold_left Pl.add Pl.zero l)))

let prop_step_counting =
  G.qtest "of_arrival_times counts releases" G.arrivals_gen
    (fun a -> Fmt.str "%a" Fmt.(Dump.array int) a)
    (fun times ->
      let f = Step.of_arrival_times times in
      let count_le t =
        Array.fold_left (fun acc x -> if x <= t then acc + 1 else acc) 0 times
      in
      let ok = ref true in
      for t = 0 to h do
        if Step.eval f t <> count_le t then ok := false
      done;
      !ok)

let prop_step_inverse_galois =
  G.qtest "inverse is the pseudo-inverse (Def. 5)" G.step_gen G.print_step
    (fun f ->
      (* inverse f v = min { s | f(s) >= v } for all v up to final value. *)
      let ok = ref true in
      for v = 0 to Step.final_value f + 1 do
        let expected =
          let rec scan s = if s > h then None else if Step.eval f s >= v then Some s else scan (s + 1) in
          scan 0
        in
        let got = Step.inverse f v in
        (* Beyond the horizon the scan can miss; only compare when the scan
           found something or the function tops out below v. *)
        match (expected, got) with
        | Some e, Some g' -> if e <> g' then ok := false
        | None, None -> ()
        | None, Some g' -> if g' <= h then ok := false
        | Some _, None -> ok := false
      done;
      !ok)

let prop_step_shift_roundtrip =
  G.qtest "shift_left after shift_right is identity" G.step_gen G.print_step
    (fun f -> Step.equal (Step.shift_left (Step.shift_right f 11) 11) f)

let prop_step_eval_left =
  G.qtest "eval_left is eval at t-1" G.step_gen G.print_step (fun f ->
      let ok = ref (Step.eval_left f 0 = Step.init_value f) in
      for t = 1 to h do
        if Step.eval_left f t <> Step.eval f (t - 1) then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Pl: unit tests                                                      *)
(* ------------------------------------------------------------------ *)

let test_pl_basics () =
  let f = Pl.of_knots ~tail:1 [ (0, 0); (3, 3); (6, 3) ] in
  check_int "slope 1 part" 2 (Pl.eval f 2);
  check_int "flat part" 3 (Pl.eval f 5);
  check_int "tail" 7 (Pl.eval f 10);
  check_int "min slope" 0 (Pl.min_slope f);
  check_int "max slope" 1 (Pl.max_slope f);
  check_bool "nondecreasing" true (Pl.is_nondecreasing f)

let test_pl_identity () =
  check_int "identity" 42 (Pl.eval Pl.identity 42);
  check_int "linear" 17 (Pl.eval (Pl.linear ~slope:2 ~offset:3) 7)

let test_pl_normal_form () =
  (* Redundant interior knots must vanish so equal functions are equal. *)
  let f = Pl.of_knots ~tail:1 [ (0, 0); (3, 3); (6, 6) ] in
  check_bool "normalizes to identity" true (Pl.equal f Pl.identity);
  check_int "single knot" 1 (Pl.knot_count f)

(* One query on a fresh handle; the tests below also reuse one handle. *)
let inverse_geq f v = Pl.Inverse.geq (Pl.Inverse.make f) v

let test_pl_inverse () =
  let f = Pl.of_knots ~tail:0 [ (0, 0); (4, 4); (10, 4) ] in
  Alcotest.(check (option int)) "within ramp" (Some 3) (inverse_geq f 3);
  Alcotest.(check (option int)) "at top" (Some 4) (inverse_geq f 4);
  Alcotest.(check (option int)) "unreachable" None (inverse_geq f 5);
  let g = Pl.of_knots ~tail:2 [ (0, 0) ] in
  Alcotest.(check (option int)) "tail, exact" (Some 3) (inverse_geq g 6);
  Alcotest.(check (option int)) "tail, rounded up" (Some 4) (inverse_geq g 7)

let test_pl_splice () =
  let f = Pl.splice ~at:5 Pl.zero Pl.identity in
  check_int "before" 0 (Pl.eval f 5);
  check_int "after" 6 (Pl.eval f 6);
  check_int "later" 20 (Pl.eval f 20);
  let g = Pl.splice ~at:0 (Pl.const 9) Pl.identity in
  check_int "at 0" 9 (Pl.eval g 0);
  check_int "from 1" 1 (Pl.eval g 1)

let test_pl_inverse_edges () =
  (* Ramp, flat plateau, then a second ramp: the pseudo-inverse must pick
     the plateau's left edge, not anywhere inside it. *)
  let f = Pl.of_knots ~tail:0 [ (0, 0); (2, 2); (8, 2); (10, 4) ] in
  Alcotest.(check (option int)) "plateau left edge" (Some 2) (inverse_geq f 2);
  Alcotest.(check (option int)) "resumes on second ramp" (Some 9)
    (inverse_geq f 3);
  Alcotest.(check (option int)) "top of second ramp" (Some 10)
    (inverse_geq f 4);
  Alcotest.(check (option int)) "flat tail never reaches" None
    (inverse_geq f 5);
  (* Targets at or below f(0) are met immediately. *)
  Alcotest.(check (option int)) "v = 0 at t = 0" (Some 0) (inverse_geq f 0);
  Alcotest.(check (option int)) "below initial value" (Some 0)
    (inverse_geq (Pl.const 5) 3);
  Alcotest.(check (option int)) "const never grows" None
    (inverse_geq (Pl.const 5) 6);
  (* Steep tail: integer grid rounds up to the next tick. *)
  let g = Pl.of_knots ~tail:3 [ (0, 0) ] in
  Alcotest.(check (option int)) "slope-3 tail, exact" (Some 3)
    (inverse_geq g 9);
  Alcotest.(check (option int)) "slope-3 tail, rounded up" (Some 3)
    (inverse_geq g 7);
  (* One handle answers any number of queries, in any order. *)
  let inv = Pl.Inverse.make f in
  Alcotest.(check (list (option int))) "queries on one handle"
    [ None; Some 10; Some 2; Some 0; Some 9 ]
    (List.map (Pl.Inverse.geq inv) [ 5; 4; 2; -1; 3 ]);
  (* The monotonicity check happens once, at construction. *)
  Alcotest.check_raises "make rejects a decreasing curve"
    (Invalid_argument "Pl.Inverse.make: function is not non-decreasing")
    (fun () ->
      ignore (Pl.Inverse.make (Pl.of_knots ~tail:1 [ (0, 3); (2, 1) ])));
  Alcotest.check_raises "make rejects a decreasing tail"
    (Invalid_argument "Pl.Inverse.make: function is not non-decreasing")
    (fun () -> ignore (Pl.Inverse.make (Pl.linear ~slope:(-1) ~offset:9)))

let test_pl_splice_edges () =
  (* Splicing at 0 keeps exactly one point of [before]. *)
  let f = Pl.splice ~at:0 Pl.identity (Pl.const 2) in
  check_int "before at 0" 0 (Pl.eval f 0);
  check_int "after from 1" 2 (Pl.eval f 1);
  (* Splice of a function with itself is that function. *)
  let g = Pl.of_knots ~tail:2 [ (0, 1); (4, 5) ] in
  check_bool "self-splice is identity" true (Pl.equal (Pl.splice ~at:4 g g) g);
  (* Splice point beyond both functions' knots: the tails govern. *)
  let s = Pl.splice ~at:100 Pl.zero Pl.identity in
  check_int "deep before" 0 (Pl.eval s 100);
  check_int "deep after" 101 (Pl.eval s 101)

let test_pl_truncate_edges () =
  (* Truncating at 0 freezes the whole curve at f(0). *)
  let f = Pl.of_knots ~tail:2 [ (0, 3); (5, 8) ] in
  let t0 = Pl.truncate_at f 0 in
  check_int "frozen at f(0)" 3 (Pl.eval t0 0);
  check_int "still frozen later" 3 (Pl.eval t0 50);
  check_bool "truncation is constant" true (Pl.equal t0 (Pl.const 3));
  (* Truncating exactly at the last knot only kills the tail. *)
  let t5 = Pl.truncate_at f 5 in
  check_int "agrees at cut" 8 (Pl.eval t5 5);
  check_int "tail removed" 8 (Pl.eval t5 100);
  check_int "interior intact" 4 (Pl.eval t5 1);
  (* Truncating past all knots changes only the tail slope. *)
  let t9 = Pl.truncate_at f 9 in
  check_int "tail kept up to cut" 16 (Pl.eval t9 9);
  check_int "flat beyond cut" 16 (Pl.eval t9 1000);
  (* Idempotence. *)
  check_bool "idempotent" true (Pl.equal (Pl.truncate_at t5 5) t5)

let test_pl_floor_div () =
  (* S(t) ramps 0..10 over [0,10]; tau = 3: departures at 3, 6, 9. *)
  let s = Pl.truncate_at Pl.identity 10 in
  let dep = Pl.to_step_floor_div s 3 in
  check_int "dep at 2" 0 (Step.eval dep 2);
  check_int "dep at 3" 1 (Step.eval dep 3);
  check_int "dep at 8" 2 (Step.eval dep 8);
  check_int "dep at 9" 3 (Step.eval dep 9);
  check_int "dep at 100" 3 (Step.eval dep 100)

let test_pl_of_step () =
  let st = Step.of_arrival_times [| 0; 3; 3; 7 |] in
  let f = Pl.of_step st in
  let ok = ref true in
  for t = 0 to 20 do
    if Pl.eval f t <> Step.eval st t then ok := false
  done;
  check_bool "of_step agrees on grid" true !ok

(* ------------------------------------------------------------------ *)
(* Pl: properties against the dense oracle                             *)
(* ------------------------------------------------------------------ *)

let dense_eq_pl name op dense_op =
  G.qtest2 name G.pl_gen G.print_pl G.pl_gen G.print_pl (fun (f, g) ->
      let sparse = Dense.of_pl ~horizon:h (op f g) in
      let dense = dense_op (Dense.of_pl ~horizon:h f) (Dense.of_pl ~horizon:h g) in
      Dense.equal_on sparse dense)

let prop_pl_add = dense_eq_pl "pl add = dense add" Pl.add (Dense.pointwise ( + ))
let prop_pl_sub = dense_eq_pl "pl sub = dense sub" Pl.sub (Dense.pointwise ( - ))
(* The pointwise minimum only the static-priority bound oracle uses. *)
let prop_reference_min2 =
  dense_eq_pl "reference min2 = dense min" Rta_check.Reference.min2 (Dense.pointwise min)
let prop_pl_max2 = dense_eq_pl "pl max2 = dense max" Pl.max2 (Dense.pointwise max)

let prop_pl_pos =
  G.qtest "pos clamps at zero (grid-exact)" G.pl_gen G.print_pl (fun f ->
      let sparse = Dense.of_pl ~horizon:h (Pl.pos f) in
      let dense = Dense.map (max 0) (Dense.of_pl ~horizon:h f) in
      Dense.equal_on sparse dense)

let prop_pl_prefix_max =
  G.qtest "prefix_max = dense running max" G.pl_gen G.print_pl (fun f ->
      let sparse = Dense.of_pl ~horizon:h (Pl.prefix_max f) in
      let d = Dense.of_pl ~horizon:h f in
      let expect =
        Dense.of_fun ~horizon:h (fun t ->
            let m = ref (Dense.eval d 0) in
            for s = 1 to t do
              if Dense.eval d s > !m then m := Dense.eval d s
            done;
            !m)
      in
      Dense.equal_on sparse expect)

let prop_pl_splice =
  G.qtest2 "splice agrees with by-cases evaluation" G.pl_gen G.print_pl G.pl_gen
    G.print_pl
    (fun (f, g) ->
      let at = 13 in
      let spliced = Pl.splice ~at f g in
      let ok = ref true in
      for t = 0 to h do
        let expect = if t <= at then Pl.eval f t else Pl.eval g t in
        if Pl.eval spliced t <> expect then ok := false
      done;
      !ok)

let prop_pl_inverse =
  G.qtest "inverse_geq = dense scan" G.pl_mono_gen G.print_pl (fun f ->
      let d = Dense.of_pl ~horizon:h f in
      let inv = Pl.Inverse.make f in
      let ok = ref true in
      for v = Pl.eval f 0 - 1 to Pl.eval f h + 2 do
        match (Pl.Inverse.geq inv v, Dense.inverse_geq d v) with
        | Some a, Some b -> if a <> b then ok := false
        | None, None -> ()
        | Some a, None -> if a <= h then ok := false
        | None, Some _ -> ok := false
      done;
      !ok)

let prop_pl_floor_div =
  G.qtest "to_step_floor_div = dense floor_div" G.pl_mono_gen G.print_pl
    (fun f ->
      let f = Pl.truncate_at f h in
      let tau = 3 in
      let sparse = Dense.of_step ~horizon:h (Pl.to_step_floor_div f tau) in
      let dense = Dense.floor_div (Dense.of_pl ~horizon:h f) tau in
      Dense.equal_on sparse dense)

let prop_pl_of_step =
  G.qtest "of_step = dense step, flat tail" G.step_gen G.print_step (fun s ->
      let horizon = Step.support_end s + 2 in
      let f = Pl.of_step s in
      Dense.equal_on (Dense.of_pl ~horizon f) (Dense.of_step ~horizon s)
      && Pl.tail_slope f = 0)

let prop_pl_truncate =
  G.qtest "truncate_at freezes the tail" G.pl_gen G.print_pl (fun f ->
      let g = Pl.truncate_at f 20 in
      let ok = ref true in
      for t = 0 to 20 do
        if Pl.eval g t <> Pl.eval f t then ok := false
      done;
      Pl.tail_slope g = 0 && !ok && Pl.eval g 50 = Pl.eval f 20)

let prop_pl_shift =
  G.qtest "shift_right delays by d" G.pl_gen G.print_pl (fun f ->
      let d = 9 in
      let g = Pl.shift_right f d in
      let ok = ref (Pl.eval g 0 = Pl.eval f 0) in
      for t = d to h do
        if Pl.eval g t <> Pl.eval f (t - d) then ok := false
      done;
      !ok)

let prop_pl_dominates =
  G.qtest2 "dominates = dense dominates" G.pl_gen G.print_pl G.pl_gen G.print_pl
    (fun (f, g) ->
      (* Compare only over the horizon: tails are checked analytically by
         the sparse version, so restrict the dense check accordingly and
         only require agreement when the sparse answer is positive. *)
      let sparse = Pl.dominates f g in
      let dense = Dense.dominates (Dense.of_pl ~horizon:h f) (Dense.of_pl ~horizon:h g) in
      if sparse then dense else true)

(* ------------------------------------------------------------------ *)
(* The min-plus transform (Reference): unit tests                     *)
(* ------------------------------------------------------------------ *)

let test_minplus_single_instance () =
  (* One instance, execution 5, arriving at 10, alone on the processor:
     S(t) = 0 until 10, then ramps to 5. *)
  let work = Step.scale (Step.of_arrival_times [| 10 |]) 5 in
  let s = Reference.transform ~mode:`Left ~avail:Pl.identity ~work in
  check_int "before arrival" 0 (Pl.eval s 10);
  check_int "mid service" 3 (Pl.eval s 13);
  check_int "complete" 5 (Pl.eval s 15);
  check_int "stays" 5 (Pl.eval s 40)

let test_minplus_arrival_at_zero () =
  (* The `Left mode must not grant instantaneous service to work arriving at
     time 0 (the right-continuous reading would). *)
  let work = Step.scale (Step.of_arrival_times [| 0 |]) 4 in
  let s = Reference.transform ~mode:`Left ~avail:Pl.identity ~work in
  check_int "no service at 0" 0 (Pl.eval s 0);
  check_int "done at 4" 4 (Pl.eval s 4);
  let s' = Reference.transform ~mode:`Right ~avail:Pl.identity ~work in
  check_int "right-mode over-approximates" 4 (Pl.eval s' 0)

let test_minplus_blocked () =
  (* Theorem 5, highest priority: one instance of execution 4 released at 0,
     blocking 3.  B(t) = (t - 3)^+ per Eq. 17.  The resulting bound is 0
     while blocked and reaches 4 exactly at t = 7 = b + tau, the true worst
     case.  (Past the departure the formula keeps growing by up to b; that
     slack never advances the floor-divided departure count for instances
     that exist — see Spnp_approx.) *)
  let work = Step.scale (Step.of_arrival_times [| 0 |]) 4 in
  let b = 3 in
  let avail = Pl.splice ~at:b Pl.zero (Pl.linear ~slope:1 ~offset:(-b)) in
  let s = Reference.transform_blocked ~mode:`Left ~avail ~work ~blocking:b in
  check_int "zero while blocked" 0 (Pl.eval s b);
  check_int "one unit served at 4" 1 (Pl.eval s 4);
  check_int "done at b + tau" 4 (Pl.eval s 7);
  check_int "not done before" 3 (Pl.eval s 6);
  check_int "post-departure overshoot is bounded by b" (4 + b) (Pl.eval s 40)

(* ------------------------------------------------------------------ *)
(* The transform: properties against the dense oracle                *)
(* ------------------------------------------------------------------ *)

let prop_minplus mode name =
  G.qtest2 name G.avail_gen G.print_pl G.step_gen G.print_step
    (fun (avail, work) ->
      let sparse = Dense.of_pl ~horizon:h (Reference.transform ~mode ~avail ~work) in
      let dense =
        Dense.transform ~mode ~avail:(Dense.of_pl ~horizon:h avail) ~work_step:work
      in
      Dense.equal_on sparse dense)

let prop_minplus_left = prop_minplus `Left "transform `Left = dense"
let prop_minplus_right = prop_minplus `Right "transform `Right = dense"

let prop_transform_on mode name avail_gen =
  G.qtest2 name avail_gen G.print_pl G.step_gen G.print_step (fun (avail, work) ->
      Dense.equal_on
        (Dense.of_pl ~horizon:h (Reference.transform ~mode ~avail ~work))
        (Dense.transform ~mode ~avail:(Dense.of_pl ~horizon:h avail) ~work_step:work))

(* Mostly-flat availability: plateaus stress the same-time dedup and the
   zero-slope branches of the prefix scan. *)
let prop_transform_plateau =
  prop_transform_on `Right "transform `Right on plateau avail = dense"
    (G.pl_with ~y0_gen:(QCheck2.Gen.int_range 0 5)
       ~slope_gen:QCheck2.Gen.(oneofl [ 0; 0; 0; 0; 1; -1 ]))

(* Availability with negative-slope stretches from 0 (the analysis only
   produces non-decreasing ones; the scan must not depend on that). *)
let prop_transform_neg_avail =
  prop_transform_on `Left "transform `Left on negative-slope avail = dense"
    (G.pl_with ~y0_gen:(QCheck2.Gen.return 0) ~slope_gen:(QCheck2.Gen.int_range (-2) 2))

(* General availability functions (negative slopes) exercise the scan's
   crossing logic much harder. *)
let prop_minplus_general =
  G.qtest2 "transform on general avail = dense" G.pl_gen G.print_pl G.step_gen
    G.print_step
    (fun (avail, work) ->
      let sparse = Dense.of_pl ~horizon:h (Reference.transform ~mode:`Left ~avail ~work) in
      let dense =
        Dense.transform ~mode:`Left ~avail:(Dense.of_pl ~horizon:h avail)
          ~work_step:work
      in
      Dense.equal_on sparse dense)

let prop_minplus_blocked =
  G.qtest2 "transform_blocked = dense" G.avail_gen G.print_pl G.step_gen
    G.print_step
    (fun (avail, work) ->
      let blocking = 5 in
      let sparse =
        Dense.of_pl ~horizon:h
          (Reference.transform_blocked ~mode:`Left ~avail ~work ~blocking)
      in
      let dense =
        Dense.transform_blocked ~mode:`Left ~avail:(Dense.of_pl ~horizon:h avail)
          ~work_step:work ~blocking
      in
      Dense.equal_on sparse dense)

let prop_minplus_monotone_service =
  G.qtest2 "service is non-decreasing and bounded by workload" G.avail_gen
    G.print_pl G.step_gen G.print_step
    (fun (avail, work) ->
      let s = Reference.transform ~mode:`Left ~avail ~work in
      let ok = ref true in
      for t = 1 to h do
        if Pl.eval s t < Pl.eval s (t - 1) then ok := false;
        if Pl.eval s t > Step.eval work t then ok := false;
        if Pl.eval s t < 0 then ok := false
      done;
      !ok)

let test_pl_sum () =
  let f = Pl.of_knots ~tail:1 [ (0, 2); (4, 6) ] in
  check_int "sum" 12 (Pl.eval (Pl.sum [ f; f ]) 4);
  check_int "sum empty is zero" 0 (Pl.eval (Pl.sum []) 10)

let test_step_observers () =
  let f = Step.of_arrival_times [| 2; 5; 5 |] in
  check_int "support_end" 5 (Step.support_end f);
  check_int "init" 0 (Step.init_value f);
  Alcotest.(check (array (pair int int))) "jumps" [| (2, 1); (5, 3) |] (Step.jumps f);
  check_int "sum" 6 (Step.eval (Step.sum [ f; f ]) 10)

(* ------------------------------------------------------------------ *)
(* Horizontal deviation                                                *)
(* ------------------------------------------------------------------ *)

let prop_horizontal_deviation =
  (* Lower curves are unit-rate (the operator's contract: processor service
     curves).  Two checks: the bound is valid (g catches up within d
     everywhere) and tight on the horizon (the dense scan cannot beat it). *)
  G.qtest2 ~count:200 "horizontal deviation: valid and horizon-tight"
    G.pl_mono_gen G.print_pl G.avail_gen G.print_pl (fun (f, g) ->
      match Minplus.horizontal_deviation ~upper:f ~lower:g with
      | None -> true (* unbounded or never caught up; nothing to compare *)
      | Some d ->
          let valid = ref true in
          for t = 0 to h do
            if Pl.eval g (t + d) < Pl.eval f t then valid := false
          done;
          let dense_max = ref 0 in
          for t = 0 to h do
            let rec catch u =
              if u > (4 * h) + d then None
              else if Pl.eval g (t + u) >= Pl.eval f t then Some u
              else catch (u + 1)
            in
            match catch 0 with
            | Some u -> if u > !dense_max then dense_max := u
            | None -> ()
          done;
          !valid && d >= !dense_max)

let test_horizontal_deviation_values () =
  (* Demand: 3 units at t=0 (one-tick ramp); service: rate 1 after latency
     4: catch-up for the initial burst is at t : g(t) >= 3 -> t = 7. *)
  let upper = Pl.of_step (Step.scale (Step.of_arrival_times [| 0 |]) 3) in
  let lower =
    Pl.splice ~at:4 Pl.zero (Pl.linear ~slope:1 ~offset:(-4))
  in
  Alcotest.(check (option int)) "burst delay" (Some 7)
    (Minplus.horizontal_deviation ~upper ~lower);
  (* Service never reaches the demand: unbounded. *)
  Alcotest.(check (option int)) "starved" None
    (Minplus.horizontal_deviation ~upper ~lower:(Pl.const 1))

(* ------------------------------------------------------------------ *)
(* Envelope                                                            *)
(* ------------------------------------------------------------------ *)

let test_envelope_periodic () =
  let e = Envelope.periodic ~period:10 () in
  check_int "window 0" 1 (Envelope.eval e 0);
  check_int "window 9" 1 (Envelope.eval e 9);
  check_int "window 10" 2 (Envelope.eval e 10);
  check_int "window 35" 4 (Envelope.eval e 35);
  let j = Envelope.periodic ~jitter:13 ~period:10 () in
  (* 1 + floor((d + 13) / 10): d=0 -> 2, d=7 -> 3, d=17 -> 4. *)
  check_int "jittered 0" 2 (Envelope.eval j 0);
  check_int "jittered 7" 3 (Envelope.eval j 7);
  check_int "jittered 17" 4 (Envelope.eval j 17)

let test_envelope_leaky () =
  let e = Envelope.leaky_bucket ~burst:3 ~period:5 in
  check_int "burst at 0" 3 (Envelope.eval e 0);
  check_int "one refill" 4 (Envelope.eval e 5);
  check_bool "dominates plain periodic" true
    (Envelope.dominates e (Envelope.periodic ~period:5 ()))

let test_envelope_worst_trace () =
  let e = Envelope.leaky_bucket ~burst:2 ~period:4 in
  let trace = Envelope.worst_trace e ~horizon:12 in
  Alcotest.(check (array int)) "burst then rate" [| 0; 0; 4; 8; 12 |] trace;
  check_bool "conforms" true (Envelope.conforms e trace)

let prop_envelope_of_trace_conforms =
  G.qtest ~count:200 "of_trace produces a conforming envelope" G.arrivals_gen
    (fun a -> Fmt.str "%a" Fmt.(Dump.array int) a)
    (fun times -> Envelope.conforms (Envelope.of_trace times) times)

let prop_envelope_of_trace_tight =
  G.qtest ~count:200 "of_trace worst trace dominates the original counts"
    G.arrivals_gen
    (fun a -> Fmt.str "%a" Fmt.(Dump.array int) a)
    (fun times ->
      let e = Envelope.of_trace times in
      let worst = Envelope.worst_arrival_function e ~horizon:G.horizon in
      let original = Step.of_arrival_times times in
      (* The critical-instant trace packs at least as many releases in every
         prefix as the original trace (prefixes are windows anchored at the
         first release). *)
      let ok = ref true in
      let n = Array.length times in
      if n > 0 then begin
        let t0 = times.(0) in
        for t = t0 to G.horizon do
          if Step.eval worst (t - t0) < Step.eval original t then ok := false
        done
      end;
      !ok)

let test_envelope_widen () =
  let e = Envelope.periodic ~period:10 () in
  let w = Envelope.widen e ~jitter:13 in
  (* widen must equal the jittered constructor pointwise. *)
  let j = Envelope.periodic ~jitter:13 ~period:10 () in
  for d = 0 to 60 do
    check_int (Printf.sprintf "widen at %d" d) (Envelope.eval j d) (Envelope.eval w d)
  done;
  check_bool "widened dominates" true (Envelope.dominates w e)

let prop_envelope_widen_shift =
  G.qtest ~count:200 "widen evaluates the shifted envelope" G.arrivals_gen
    (fun a -> Fmt.str "%a" Fmt.(Dump.array int) a)
    (fun times ->
      let e = Envelope.of_trace times in
      let jitter = 7 in
      let w = Envelope.widen e ~jitter in
      let ok = ref true in
      for d = 0 to G.horizon do
        if Envelope.eval w d <> Envelope.eval e (d + jitter) then ok := false
      done;
      !ok)

let prop_envelope_worst_conforms =
  let gen =
    let open QCheck2.Gen in
    let* burst = int_range 1 4 in
    let* period = int_range 1 12 in
    let* jitter = int_range 0 20 in
    oneofl
      [
        Envelope.leaky_bucket ~burst ~period;
        Envelope.periodic ~jitter ~burst ~period ();
      ]
  in
  G.qtest ~count:200 "worst_trace conforms to its own envelope" gen
    (Format.asprintf "%a" Envelope.pp)
    (fun e -> Envelope.conforms e (Envelope.worst_trace e ~horizon:60))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "rta_curve"
    [
      ( "step.unit",
        [
          Alcotest.test_case "basics" `Quick test_step_basics;
          Alcotest.test_case "inverse" `Quick test_step_inverse;
          Alcotest.test_case "arithmetic" `Quick test_step_arith;
          Alcotest.test_case "shift" `Quick test_step_shift;
          Alcotest.test_case "zero/const" `Quick test_step_zero_const;
          Alcotest.test_case "truncate" `Quick test_step_truncate;
          Alcotest.test_case "eval_left at jumps" `Quick test_step_eval_left_jumps;
        ] );
      ( "step.props",
        [
          prop_step_add;
          prop_step_min;
          prop_step_max;
          prop_step_sum;
          prop_step_counting;
          prop_step_inverse_galois;
          prop_step_shift_roundtrip;
          prop_step_eval_left;
        ] );
      ( "pl.unit",
        [
          Alcotest.test_case "basics" `Quick test_pl_basics;
          Alcotest.test_case "identity" `Quick test_pl_identity;
          Alcotest.test_case "normal form" `Quick test_pl_normal_form;
          Alcotest.test_case "inverse" `Quick test_pl_inverse;
          Alcotest.test_case "inverse edge cases" `Quick test_pl_inverse_edges;
          Alcotest.test_case "splice" `Quick test_pl_splice;
          Alcotest.test_case "splice edge cases" `Quick test_pl_splice_edges;
          Alcotest.test_case "truncate edge cases" `Quick test_pl_truncate_edges;
          Alcotest.test_case "floor_div" `Quick test_pl_floor_div;
          Alcotest.test_case "of_step" `Quick test_pl_of_step;
          Alcotest.test_case "sum" `Quick test_pl_sum;
          Alcotest.test_case "step observers" `Quick test_step_observers;
        ] );
      ( "pl.props",
        [
          prop_pl_add;
          prop_pl_sub;
          prop_reference_min2;
          prop_pl_max2;
          prop_pl_pos;
          prop_pl_prefix_max;
          prop_pl_splice;
          prop_pl_inverse;
          prop_pl_floor_div;
          prop_pl_of_step;
          prop_pl_truncate;
          prop_pl_shift;
          prop_pl_dominates;
          prop_pl_sum;
        ] );
      ( "minplus.unit",
        [
          Alcotest.test_case "single instance" `Quick test_minplus_single_instance;
          Alcotest.test_case "arrival at zero" `Quick test_minplus_arrival_at_zero;
          Alcotest.test_case "blocking" `Quick test_minplus_blocked;
        ] );
      ( "minplus.props",
        [
          prop_minplus_left;
          prop_minplus_right;
          prop_minplus_general;
          prop_transform_plateau;
          prop_transform_neg_avail;
          prop_minplus_blocked;
          prop_minplus_monotone_service;
        ] );
      ( "netcalc",
        [
          prop_horizontal_deviation;
          Alcotest.test_case "horizontal deviation values" `Quick
            test_horizontal_deviation_values;
        ] );
      ( "envelope",
        [
          Alcotest.test_case "periodic" `Quick test_envelope_periodic;
          Alcotest.test_case "leaky bucket" `Quick test_envelope_leaky;
          Alcotest.test_case "worst trace" `Quick test_envelope_worst_trace;
          prop_envelope_of_trace_conforms;
          prop_envelope_of_trace_tight;
          prop_envelope_worst_conforms;
          Alcotest.test_case "widen" `Quick test_envelope_widen;
          prop_envelope_widen_shift;
        ] );
    ]
