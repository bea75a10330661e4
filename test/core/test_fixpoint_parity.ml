(* Dirty-set / full-sweep parity for the fixpoint engine.

   [Fixpoint.analyze] skips subjobs whose read set (chain predecessors of
   self and of scheduling-relevant co-residents) did not change in the
   previous round.  Recomputing a subjob from unchanged inputs reproduces
   its value, so it must walk the SAME iterate sequence as the textbook
   full sweep on the reference kernels ([Rta_testsupport.Jacobi]):
   identical per-job verdicts, identical per-stage verdicts, and the same
   iteration count — not just the same fixed point.  Any divergence means
   the dirty propagation missed a dependency edge or an optimized kernel
   disagrees with its baseline. *)

open Rta_model
module Fixpoint = Rta_core.Fixpoint
module Sg = Rta_testsupport.Sysgen

let horizon = 400
let release_horizon = 200

let verdict = Alcotest.testable
    (fun ppf -> function
      | Fixpoint.Bounded b -> Format.fprintf ppf "Bounded %d" b
      | Fixpoint.Unbounded -> Format.fprintf ppf "Unbounded")
    ( = )

let same_result (a : Fixpoint.result) (b : Fixpoint.result) =
  a.per_job = b.per_job && a.per_stage = b.per_stage
  && a.iterations = b.iterations

let dirty system = Fixpoint.analyze ~release_horizon ~horizon system
let full system = Rta_testsupport.Jacobi.analyze ~release_horizon ~horizon system
let parity_prop system = same_result (dirty system) (full system)

let qparity name sched_gen =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:120 ~name ~print:Sg.print_system
       (Sg.system_gen ?sched_gen ~release_horizon ())
       parity_prop)

let prop_parity_mixed = qparity "dirty = full (mixed schedulers)" None
let prop_parity_spp =
  qparity "dirty = full (SPP)" (Some (QCheck2.Gen.return Sched.Spp))
let prop_parity_fcfs =
  qparity "dirty = full (FCFS)" (Some (QCheck2.Gen.return Sched.Fcfs))

(* A fixed system exercising the interesting path — multiple jobs sharing
   stages so the dirty set actually shrinks — with the exact equality spelt
   out field by field for a readable failure. *)
let test_parity_fixed () =
  let system =
    QCheck2.Gen.generate1 ~rand:(Random.State.make [| 11 |])
      (Sg.system_gen ~release_horizon ())
  in
  let d = dirty system and f = full system in
  Alcotest.(check (array verdict)) "per_job" f.per_job d.per_job;
  Alcotest.(check (array (array verdict)))
    "per_stage" f.per_stage d.per_stage;
  Alcotest.(check int) "iterations" f.iterations d.iterations

let () =
  Alcotest.run "rta_fixpoint_parity"
    [
      ( "parity",
        [
          Alcotest.test_case "fixed system, field by field" `Quick
            test_parity_fixed;
          prop_parity_mixed;
          prop_parity_spp;
          prop_parity_fcfs;
        ] );
    ]
