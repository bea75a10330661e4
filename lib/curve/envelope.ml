(* Arrival envelopes; see envelope.mli. *)

(* Ints only: the polymorphic versions call the runtime's generic compare. *)
open struct [@@@warning "-32"] let min = Int.min let max = Int.max let compare = Int.compare external ( < ) : int -> int -> bool = "%lessthan" external ( <= ) : int -> int -> bool = "%lessequal" external ( > ) : int -> int -> bool = "%greaterthan" external ( >= ) : int -> int -> bool = "%greaterequal" end

type t =
  | Explicit of Step.t
      (* finite jump list; constant beyond the last jump *)
  | Staircase of { start : int; step_height : int; period : int; phase : int }
      (* start + step_height * floor((d + phase) / period), 0 <= phase <
         period: the general affine staircase; phase 0 is the pure
         (sigma, rho)-style curve *)

let periodic ?(jitter = 0) ?(burst = 1) ~period () =
  if period < 1 then invalid_arg "Envelope.periodic: period must be >= 1";
  if burst < 1 then invalid_arg "Envelope.periodic: burst must be >= 1";
  if jitter < 0 then invalid_arg "Envelope.periodic: negative jitter";
  (* burst * (1 + floor((d + jitter) / period)); splitting
     jitter = q * period + r gives the exact affine staircase below. *)
  let q = jitter / period and r = jitter mod period in
  Staircase
    { start = burst * (1 + q); step_height = burst; period; phase = r }

let leaky_bucket ~burst ~period =
  if period < 1 then invalid_arg "Envelope.leaky_bucket: period must be >= 1";
  if burst < 1 then invalid_arg "Envelope.leaky_bucket: burst must be >= 1";
  Staircase { start = burst; step_height = 1; period; phase = 0 }

let of_trace times =
  let n = Array.length times in
  if n = 0 then Explicit (Step.const 1)
  else begin
    (* alpha(d) = max over anchor i of #releases in [t_i, t_i + d]; the
       candidate window lengths are the pairwise gaps. *)
    let best = Hashtbl.create 64 in
    for i = 0 to n - 1 do
      for j = i to n - 1 do
        let d = times.(j) - times.(i) in
        let count = j - i + 1 in
        match Hashtbl.find_opt best d with
        | Some c when c >= count -> ()
        | Some _ | None -> Hashtbl.replace best d count
      done
    done;
    let ds = Hashtbl.fold (fun d _ acc -> d :: acc) best [] |> List.sort compare in
    let _, samples =
      List.fold_left
        (fun (cur, acc) d ->
          let c = max cur (Hashtbl.find best d) in
          (c, (d, c) :: acc))
        (0, []) ds
    in
    Explicit (Step.of_samples ~init:1 (List.rev samples))
  end

let eval alpha d =
  if d < 0 then invalid_arg "Envelope.eval: negative window";
  match alpha with
  | Explicit f -> Step.eval f d
  | Staircase { start; step_height; period; phase } ->
      start + (step_height * ((d + phase) / period))

let conforms alpha times =
  let n = Array.length times in
  let rec anchors i =
    if i >= n then true
    else
      let rec window j =
        j >= n
        || (j - i + 1 <= eval alpha (times.(j) - times.(i)) && window (j + 1))
      in
      window i && anchors (i + 1)
  in
  anchors 0

(* Window lengths worth checking when comparing envelopes: all explicit
   jumps, plus a few periods of staircase structure. *)
let probe_limit = function
  | Explicit f -> Step.support_end f + 1
  | Staircase { period; _ } -> 4 * period

let dominates a b =
  let upto = max (probe_limit a) (probe_limit b) in
  let rec go d = d > upto || (eval a d >= eval b d && go (d + 1)) in
  (* Beyond the probe window: compare asymptotic rates. *)
  let rate = function
    | Explicit _ -> 0.
    | Staircase { step_height; period; _ } ->
        float_of_int step_height /. float_of_int period
  in
  go 0 && Float.compare (rate a) (rate b) >= 0

let widen alpha ~jitter =
  if jitter < 0 then invalid_arg "Envelope.widen: negative jitter";
  if jitter = 0 then alpha
  else
    match alpha with
    | Explicit f -> Explicit (Step.shift_left f jitter)
    | Staircase { start; step_height; period; phase } ->
        (* alpha(d + jitter): fold the shift into the phase. *)
        let total = phase + jitter in
        Staircase
          {
            start = start + (step_height * (total / period));
            step_height;
            period;
            phase = total mod period;
          }

let inverse alpha m =
  (* min { d >= 0 | alpha(d) >= m } *)
  match alpha with
  | Explicit f -> Step.inverse f m
  | Staircase { start; step_height; period; phase } ->
      if m <= start then Some 0
      else
        let steps_needed = (m - start + step_height - 1) / step_height in
        Some (max 0 ((steps_needed * period) - phase))

let worst_trace alpha ~horizon =
  let rec releases m acc =
    match inverse alpha m with
    | Some t when t <= horizon -> releases (m + 1) (t :: acc)
    | Some _ | None -> Array.of_list (List.rev acc)
  in
  releases 1 []

let worst_arrival_function alpha ~horizon =
  Step.of_arrival_times (worst_trace alpha ~horizon)

let pp ppf = function
  | Staircase { start; step_height; period; phase } ->
      Format.fprintf ppf "envelope(%d + %d per %d, phase %d)" start step_height
        period phase
  | Explicit f -> Format.fprintf ppf "envelope(%a)" Step.pp f
