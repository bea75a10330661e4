(* Full-sweep references for one cyclic component: the Section 6
   iteration over a loop's members ([Rta_core.Fixpoint.loop]'s contract,
   same boundaries and same per-processor step), recomputing every member
   from scratch every round — no dirty set, no version stamps, no cache
   across members or rounds, and Eq. 12 extracted by one binary search
   per instance ([Rta_check.Reference.max_lag]).

   - [`Symmetric] is the loop's own order: a Gauss-Seidel sweep by
     processor, ascending on odd rounds and descending on even ones, each
     rise written in place.  [Fixpoint.loop] must walk its iterates.
   - [`Jacobi] is the textbook sweep: every member reads only the previous
     round's X. *)

open Rta_model
module Step = Rta_curve.Step
module Local = Rta_core.Local
module Fixpoint = Rta_core.Fixpoint

type order = [ `Symmetric | `Jacobi ]

type result = {
  loop : Fixpoint.loop;
  residuals : int list;  (** the largest rise of a member, per round *)
}

let run ?(max_iterations = 64) ~order ~release_horizon ~horizon ~input ~above
    system members =
  let sentinel = Fixpoint.unbounded_sentinel horizon in
  let is_member id = List.mem id members in
  let release j =
    Arrival.arrival_function (System.job system j).System.arrival
      ~horizon:release_horizon
  in
  let ends (id : System.subjob_id) =
    let steps = (System.job system id.job).System.steps in
    let acc = ref 0 in
    for st = 0 to id.step do
      acc := !acc + steps.(st).System.exec
    done;
    !acc
  in
  let x = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace x id (ends id)) members;
  let arrival x (id : System.subjob_id) =
    let tau = (System.step system id).System.exec in
    let p = { id with System.step = id.step - 1 } in
    if id.step = 0 then
      let f = release id.job in
      Local.input ~tau ~arr_lo:f ~arr_hi:f ~exact:false
    else if is_member p then
      let shifted d = Step.shift_right (release id.job) d in
      Local.input ~tau
        ~arr_lo:(shifted (min (Hashtbl.find x p) sentinel))
        ~arr_hi:(shifted (ends p)) ~exact:false
    else input id
  in
  (* A member's bounds under [x]: its processor's FCFS context, or the
     aggregate of [above] and every member ranked above it, rebuilt. *)
  let rec bounds x (id : System.subjob_id) =
    let p = (System.step system id).System.proc in
    let fcfs () =
      Local.fcfs ~exact:false ~horizon
        (List.map (arrival x) (System.subjobs_on system p))
    in
    let hp () =
      let rec above_id hp = function
        | h :: rest when h <> id ->
            let hp =
              if is_member h then Local.push hp (arrival x h) (bounds x h) else hp
            in
            above_id hp rest
        | _ -> hp
      in
      above_id (above p) (System.by_priority system p)
    in
    Local.step ~horizon (Local.policy system id ~hp ~fcfs) (arrival x id)
  in
  let worst x (id : System.subjob_id) =
    let rel = release id.job in
    let count = Step.final_value rel in
    match Rta_check.Reference.max_lag ~count rel (bounds x id).Local.dep_lo with
    | Some r -> min r sentinel
    | None -> sentinel
  in
  let procs =
    List.sort_uniq compare
      (List.map (fun id -> (System.step system id).System.proc) members)
  in
  let block p = List.filter is_member (System.subjobs_on system p) in
  let rounds = ref 0 and changed = ref true and residuals = ref [] in
  while !changed && !rounds < max_iterations do
    incr rounds;
    changed := false;
    let residual = ref 0 in
    let rise target id r =
      let prev = Hashtbl.find x id in
      if r > prev then begin
        Hashtbl.replace target id r;
        residual := max !residual (r - prev);
        changed := true
      end
    in
    (match order with
    | `Symmetric ->
        let walk = if !rounds land 1 = 1 then procs else List.rev procs in
        List.iter (fun p -> List.iter (fun id -> rise x id (worst x id)) (block p)) walk
    | `Jacobi ->
        let x' = Hashtbl.copy x in
        List.iter (fun id -> rise x' id (worst x id)) members;
        Hashtbl.reset x;
        Hashtbl.iter (Hashtbl.replace x) x');
    residuals := !residual :: !residuals
  done;
  if !changed then List.iter (fun id -> Hashtbl.replace x id sentinel) members;
  {
    loop =
      {
        Fixpoint.rounds = !rounds;
        settled = not !changed;
        final = (fun id -> (arrival x id, bounds x id));
      };
    residuals = List.rev !residuals;
  }

(* Boundaries for a component read off a finished analysis: a member or
   FCFS co-resident's outside input is its recorded arrival bracket, and
   the aggregate above a component on a static-priority processor pushes
   the recorded bounds of every resident ranked above its members.  Any
   boundary will do for comparing two iterations fed the same one; these
   keep the comparison on the brackets the analysis really met. *)
let boundaries (e : Rta_core.Engine.t) members =
  let system = e.Rta_core.Engine.system in
  let as_input id =
    let en = Rta_core.Engine.entry e id in
    Local.input ~tau:en.tau ~arr_lo:en.arr_lo ~arr_hi:en.arr_hi ~exact:false
  in
  let above p =
    let rec go hp = function
      | id :: rest when not (List.mem id members) ->
          let en = Rta_core.Engine.entry e id in
          let o =
            {
              Local.svc_lo = en.svc_lo;
              svc_hi = en.svc_hi;
              dep_lo = en.dep_lo;
              dep_hi = en.dep_hi;
              exact = false;
              handoff = Local.Sums;
            }
          in
          go (Local.push hp (as_input id) o) rest
      | _ -> hp
    in
    go Local.empty (System.by_priority system p)
  in
  (as_input, above)
