(* Order statistics for latency samples.  Nearest-rank: the [p]-quantile
   of [n] samples is the [ceil (p * n)]-th smallest, so every reported
   value is one that was actually measured. *)

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let rank = int_of_float (Float.ceil (p *. float n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile xs 0.5

let sum xs = Array.fold_left ( +. ) 0. xs
