(* The hot curve and analysis modules named on the command line shadow
   [min], [max] and [compare] with the [Int] versions, and the orderings
   [( < )], [( <= )], [( > )] and [( >= )] with the integer primitives, so
   the type checker rejects any other use of them: without flambda a
   polymorphic Stdlib comparison calls the runtime's generic one on every
   use, and an ordering in a generic function (a search over ['a array])
   is polymorphic wherever it is used.  This test fails when a module
   lacks the shadow or reaches past it through [Stdlib]. *)

let shadow =
  {|open struct [@@@warning "-32"] let min = Int.min let max = Int.max let compare = Int.compare external ( < ) : int -> int -> bool = "%lessthan" external ( <= ) : int -> int -> bool = "%lessequal" external ( > ) : int -> int -> bool = "%greaterthan" external ( >= ) : int -> int -> bool = "%greaterequal" end|}

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let check path () =
  let src = In_channel.with_open_bin path In_channel.input_all in
  if not (contains src shadow) then
    Alcotest.failf "%s: no line %s" path shadow;
  List.iter
    (fun bypass ->
      if contains src bypass then Alcotest.failf "%s: uses %s (use Int.*)" path bypass)
    [ "Stdlib.min"; "Stdlib.max"; "Stdlib.compare"; "Stdlib.(" ]

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  (* Alcotest reads the command line too: hand it none of the paths. *)
  Alcotest.run ~argv:[| Sys.argv.(0) |] "int_compare"
    [
      ( "sources",
        List.map
          (fun path -> Alcotest.test_case (Filename.basename path) `Quick (check path))
          files );
    ]
