type t = string

let estimator_tag = function `Direct -> "direct" | `Sum -> "sum"

let of_system ~config system =
  (* Everything the analysis result depends on, NUL-separated so no field
     can run into the next: a format version, the tick granularity, the
     analysis parameters with horizons RESOLVED (an explicit horizon equal
     to the derived default hashes identically), and the canonicalized
     system (parse + re-print normalizes whitespace, comments, key order
     and number formatting). *)
  let release_horizon, horizon =
    Rta_core.Analysis.resolve_horizons config system
  in
  let canonical =
    String.concat "\x00"
      [
        "rta-key/2";
        string_of_int Rta_model.Time.ticks_per_unit;
        estimator_tag config.Rta_core.Analysis.estimator;
        string_of_int release_horizon;
        string_of_int horizon;
        Rta_model.Parser.print system;
      ]
  in
  Digest.to_hex (Digest.string canonical)

let to_hex k = k
let equal = String.equal
