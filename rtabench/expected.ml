(* MD5 of the rendered response lines of each workload's first round at
   the default seed (serve-hot: the warm pass), joined by newlines: the
   byte-identical-output check.  A change to the generator or to any byte
   of the wire format changes these on purpose; refresh them from the
   digest the harness prints on stderr. *)

let digests =
  [
    ("shop-large", "57312799f010aa1fc62fbba1f9131f1c");
    ("batch-mix", "c00acd2aeccc50a024f91ae963a8f91a");
    ("serve-hot", "09f04b4318516168a7c4f3e150e52d32");
  ]
