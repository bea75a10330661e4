(* Dense-array oracle; see dense.mli. *)

module Step = Rta_curve.Step
module Pl = Rta_curve.Pl

type t = { horizon : int; values : int array }

let of_fun ~horizon f =
  if horizon < 0 then invalid_arg "Dense.of_fun: negative horizon";
  { horizon; values = Array.init (horizon + 1) f }

let of_step ~horizon s = of_fun ~horizon (Step.eval s)
let of_pl ~horizon f = of_fun ~horizon (Pl.eval f)

let eval d t =
  if t < 0 || t > d.horizon then invalid_arg "Dense.eval: out of horizon";
  d.values.(t)

let equal_on a b =
  let h = min a.horizon b.horizon in
  let rec go t = t > h || (a.values.(t) = b.values.(t) && go (t + 1)) in
  go 0

let pointwise op a b =
  let h = min a.horizon b.horizon in
  of_fun ~horizon:h (fun t -> op a.values.(t) b.values.(t))

let map f a = { a with values = Array.map f a.values }

let work_value ~mode work_step s =
  match mode with
  | `Left -> Step.eval_left work_step s
  | `Right -> Step.eval work_step s

let prefix_min ~mode ~avail ~work_step =
  let candidate s = work_value ~mode work_step s - avail.values.(s) in
  of_fun ~horizon:avail.horizon (fun t ->
      let m = ref (candidate 0) in
      for s = 1 to t do
        if candidate s < !m then m := candidate s
      done;
      !m)

let transform ~mode ~avail ~work_step =
  let m = prefix_min ~mode ~avail ~work_step in
  pointwise ( + ) avail m

let transform_blocked ~mode ~avail ~work_step ~blocking =
  let candidate s = work_value ~mode work_step s - avail.values.(s) in
  of_fun ~horizon:avail.horizon (fun t ->
      if t <= blocking then 0
      else begin
        let m = ref (candidate 0) in
        for s = 1 to t - blocking do
          if candidate s < !m then m := candidate s
        done;
        avail.values.(t) + !m
      end)

let floor_div a k =
  if k < 1 then invalid_arg "Dense.floor_div: divisor must be >= 1";
  map (fun v -> v / k) a

let inverse_geq a v =
  let rec go t =
    if t > a.horizon then None
    else if a.values.(t) >= v then Some t
    else go (t + 1)
  in
  go 0

let dominates a b =
  let h = min a.horizon b.horizon in
  let rec go t = t > h || (a.values.(t) >= b.values.(t) && go (t + 1)) in
  go 0

let pp ppf d =
  Format.fprintf ppf "@[<hov 2>dense[0..%d]{" d.horizon;
  Array.iteri
    (fun i v -> if i <= 20 then Format.fprintf ppf "%s%d" (if i = 0 then "" else ";") v)
    d.values;
  if d.horizon > 20 then Format.fprintf ppf ";...";
  Format.fprintf ppf "}@]"
