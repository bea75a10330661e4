(* Machine-speed calibration.

   On a shared machine the same work runs up to 1.5x slower for tens of
   seconds at a time while other tenants contend for the memory system;
   no statistic taken inside one run can remove a slow phase that lasts
   the whole run.  So every timed round is interleaved with probes of a
   fixed kernel that belongs to the harness (its code does not depend on
   the program under test), and the round's times are scaled by
   [reference / mean probe]: they are reported at the speed the reference
   machine has when undisturbed.  The probes run in the measuring process
   itself, so they see the same core and the same cache state as the work
   they calibrate; the kernel only allocates small short-lived blocks, so
   the program's own heap barely touches its cost.

   The raw (unscaled) figures are printed next to the result. *)

(* Fast-state probe time on the reference machine (2-core Xeon VM,
   OCaml 5.1.1), in seconds.  Changing it rescales every reported time. *)
let reference_s = 0.0055

(* Two halves of about equal time, chosen because together their time
   tracks the analyzer's over slow and fast phases (correlation 0.9,
   elasticity 0.96 over 7 s windows on the reference machine): sorting
   lists of pairs (short-lived small blocks, like the curve code's) and
   building and querying a balanced map (pointer chasing through a tree of
   small nodes). *)
module M = Map.Make (Int)

let kernel () =
  let acc = ref 0 in
  for r = 1 to 16 do
    let l = List.init 2000 (fun i -> (((i * 7919) + r) land 4095, i)) in
    let l = List.sort (fun (a, _) (b, _) -> Int.compare a b) l in
    acc := !acc + fst (List.hd l)
  done;
  let m = ref M.empty in
  for i = 1 to 10000 do
    m := M.add ((i * 7919) land 65535) i !m
  done;
  for i = 1 to 10000 do
    acc := !acc + Option.value ~default:0 (M.find_opt i !m)
  done;
  !acc

(* One probe: the kernel's time in seconds. *)
let probe () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  Unix.gettimeofday () -. t0

(* Probes taken during one stretch of work. *)
type tally = { mutable total : float; mutable count : int }

let tally () = { total = 0.; count = 0 }

let record tally =
  tally.total <- tally.total +. probe ();
  tally.count <- tally.count + 1

(* Multiply a raw time by this to get it at reference speed. *)
let factor tally =
  if tally.count = 0 then 1. else reference_s /. (tally.total /. float tally.count)
