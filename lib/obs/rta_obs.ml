(* Observability registry.  See rta_obs.mli for the cost-model contract:
   with the registry disabled every hook is one ref read + branch and must
   not allocate, so the disabled branches below return before touching
   anything that could box or grow.

   Thread/domain safety: counters and gauges are lock-free [Atomic]s;
   histogram observations, the span store and the registration tables are
   protected by the stdlib's mutexes.  The disabled path takes no lock,
   and the hooks are safe to call from any domain. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let float_repr f =
    if not (Float.is_finite f) then "null"
    else
      let s = Printf.sprintf "%.12g" f in
      (* "%g" may print "3" for 3.0 (valid JSON) but never "3." — safe. *)
      s

  let rec emit buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> escape buf s
    | List l ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            emit buf v)
          l;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            escape buf k;
            Buffer.add_char buf ':';
            emit buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    emit buf v;
    Buffer.contents buf

  let to_channel oc v = output_string oc (to_string v)

  (* ---------------------------------------------------------------- *)
  (* Parser (recursive descent).  Strict JSON: one value per string,   *)
  (* no trailing garbage.  Numbers without '.', 'e' or 'E' that fit in *)
  (* an OCaml int parse as [Int], everything else as [Float].          *)
  (* ---------------------------------------------------------------- *)

  exception Fail of int * string

  let fail pos fmt = Printf.ksprintf (fun m -> raise (Fail (pos, m))) fmt

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | Some c' -> fail !pos "expected %C, found %C" c c'
      | None -> fail !pos "expected %C, found end of input" c
    in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        value
      end
      else fail !pos "invalid literal"
    in
    let hex4 () =
      if !pos + 4 > n then fail !pos "truncated \\u escape";
      let v = ref 0 in
      for _ = 1 to 4 do
        let d =
          match s.[!pos] with
          | '0' .. '9' as c -> Char.code c - Char.code '0'
          | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
          | c -> fail !pos "invalid hex digit %C" c
        in
        v := (!v * 16) + d;
        advance ()
      done;
      !v
    in
    let add_utf8 buf cp =
      if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else if cp < 0x10000 then begin
        Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
    in
    (* A run of plain characters: up to the next quote, backslash or
       control character (or the end of input). *)
    let skip_plain () =
      let rec go i =
        if
          i < n
          &&
          let c = String.unsafe_get s i in
          c <> '"' && c <> '\\' && Char.code c >= 0x20
        then go (i + 1)
        else i
      in
      pos := go !pos
    in
    (* Runs of plain characters are copied whole, escapes decoded between
       them. *)
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go run =
        skip_plain ();
        Buffer.add_substring buf s run (!pos - run);
        if !pos >= n then fail !pos "unterminated string";
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail !pos "unterminated escape";
             match s.[!pos] with
             | '"' -> Buffer.add_char buf '"'; advance ()
             | '\\' -> Buffer.add_char buf '\\'; advance ()
             | '/' -> Buffer.add_char buf '/'; advance ()
             | 'b' -> Buffer.add_char buf '\b'; advance ()
             | 'f' -> Buffer.add_char buf '\012'; advance ()
             | 'n' -> Buffer.add_char buf '\n'; advance ()
             | 'r' -> Buffer.add_char buf '\r'; advance ()
             | 't' -> Buffer.add_char buf '\t'; advance ()
             | 'u' ->
                 advance ();
                 let cp = hex4 () in
                 (* Surrogate handling is exhaustive by construction: a low
                    surrogate must never lead, a high surrogate must be
                    immediately followed by a [\uDC00..\uDFFF] escape —
                    including at end of input, where the old pair check
                    would not even look.  Malformed input is rejected, never
                    replaced: snapshots round-trip through this parser, so
                    garbage must surface at ingest, not corrupt a store. *)
                 let cp =
                   if cp >= 0xDC00 && cp <= 0xDFFF then
                     fail (!pos - 4) "unpaired low surrogate"
                   else if cp >= 0xD800 && cp <= 0xDBFF then
                     if !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                     then begin
                       pos := !pos + 2;
                       let lo = hex4 () in
                       if lo >= 0xDC00 && lo <= 0xDFFF then
                         0x10000 + (((cp - 0xD800) lsl 10) lor (lo - 0xDC00))
                       else
                         fail (!pos - 4)
                           "high surrogate not followed by a low surrogate"
                     end
                     else fail !pos "lone high surrogate"
                   else cp
                 in
                 add_utf8 buf cp
             | c -> fail !pos "invalid escape \\%C" c);
            go !pos
        | _ -> fail !pos "unescaped control character"
      in
      go !pos;
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      if peek () = Some '-' then advance ();
      while
        !pos < n
        &&
        match s.[!pos] with
        | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
        | _ -> false
      do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      let is_int =
        (not (String.contains text '.'))
        && (not (String.contains text 'e'))
        && not (String.contains text 'E')
      in
      if is_int then
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> (
            match float_of_string_opt text with
            | Some f -> Float f
            | None -> fail start "invalid number %S" text)
      else
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail start "invalid number %S" text
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail !pos "unexpected end of input"
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> String (parse_string ())
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else begin
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail !pos "expected ',' or ']'"
            in
            List (items [])
          end
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let member () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              (k, v)
            in
            let rec members acc =
              let kv = member () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members (kv :: acc)
              | Some '}' ->
                  advance ();
                  List.rev (kv :: acc)
              | _ -> fail !pos "expected ',' or '}'"
            in
            Obj (members [])
          end
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail !pos "unexpected character %C" c
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail !pos "trailing garbage after JSON value";
      v
    with
    | v -> Ok v
    | exception Fail (p, msg) ->
        Error (Printf.sprintf "JSON parse error at offset %d: %s" p msg)
end

(* ------------------------------------------------------------------ *)
(* Global state                                                        *)
(* ------------------------------------------------------------------ *)

let enabled_flag = ref false
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

let now = Unix.gettimeofday

(* Registration tables and mutable stores share one lock.  Hooks on the
   enabled path hold it only for short, bounded sections (a table lookup,
   an array push); the disabled path never touches it. *)
let state_mutex = Mutex.create ()

let locked f =
  Mutex.lock state_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock state_mutex) f

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

type counter = { c_name : string; c_value : int Atomic.t }

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
          let c = { c_name = name; c_value = Atomic.make 0 } in
          Hashtbl.add counters name c;
          c)

let incr c = if !enabled_flag then ignore (Atomic.fetch_and_add c.c_value 1)
let add c n = if !enabled_flag then ignore (Atomic.fetch_and_add c.c_value n)
let counter_value c = Atomic.get c.c_value

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)
(* ------------------------------------------------------------------ *)

(* A gauge is one atomic cell; [gauge_unset] marks "never set since the
   last reset".  (Setting a gauge to [min_int] itself is indistinguishable
   from unset; tick counts and sizes are never near that.) *)
let gauge_unset = min_int

type gauge = { g_name : string; g_cell : int Atomic.t }

let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 64

let gauge name =
  locked (fun () ->
      match Hashtbl.find_opt gauges name with
      | Some g -> g
      | None ->
          let g = { g_name = name; g_cell = Atomic.make gauge_unset } in
          Hashtbl.add gauges name g;
          g)

let set_gauge g v = if !enabled_flag then Atomic.set g.g_cell v

let rec max_gauge_loop cell v =
  let cur = Atomic.get cell in
  if cur = gauge_unset || v > cur then
    if not (Atomic.compare_and_set cell cur v) then max_gauge_loop cell v

let max_gauge g v = if !enabled_flag then max_gauge_loop g.g_cell v

let gauge_value g =
  let v = Atomic.get g.g_cell in
  if v = gauge_unset then None else Some v

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

type histogram = {
  h_name : string;
  mutable h_data : float array;  (* flat float array; stores do not box *)
  mutable h_len : int;
}

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 64

let histogram name =
  locked (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
          let h = { h_name = name; h_data = [||]; h_len = 0 } in
          Hashtbl.add histograms name h;
          h)

let observe_unsafe h v =
  if h.h_len >= Array.length h.h_data then begin
    let cap = max 64 (2 * Array.length h.h_data) in
    let data = Array.make cap 0. in
    Array.blit h.h_data 0 data 0 h.h_len;
    h.h_data <- data
  end;
  h.h_data.(h.h_len) <- v;
  h.h_len <- h.h_len + 1

let observe_locked h v =
  Mutex.lock state_mutex;
  observe_unsafe h v;
  Mutex.unlock state_mutex

let observe h v = if !enabled_flag then observe_locked h v
let observe_int h n = if !enabled_flag then observe_locked h (float_of_int n)
let histogram_count h = h.h_len

let sorted_copy h =
  let a = locked (fun () -> Array.sub h.h_data 0 h.h_len) in
  Array.sort compare a;
  a

let quantile h q =
  let a = sorted_copy h in
  let len = Array.length a in
  if len = 0 then nan
  else begin
    (* Nearest-rank: the ceil(q*n)-th smallest observation. *)
    let rank = int_of_float (Float.ceil (q *. float_of_int len)) in
    a.(min (len - 1) (max 0 (rank - 1)))
  end

let histogram_max h =
  let a = sorted_copy h in
  let len = Array.length a in
  if len = 0 then nan else a.(len - 1)

let histogram_mean h =
  let a = locked (fun () -> Array.sub h.h_data 0 h.h_len) in
  let len = Array.length a in
  if len = 0 then nan
  else begin
    let s = ref 0. in
    for i = 0 to len - 1 do
      s := !s +. a.(i)
    done;
    !s /. float_of_int len
  end

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = int

let no_span = -1

type attr = Int of int | Str of string

type span_rec = {
  s_name : string;
  s_parent : int;
  s_depth : int;
  s_start : float;
  mutable s_stop : float;  (* negative while still open *)
  mutable s_attrs : (string * attr) list;  (* reversed *)
}

let span_store = ref ([||] : span_rec array)
let span_len = ref 0

(* The innermost open span.  With several domains recording concurrently
   this is a single global: parent links are exact in sequential use and a
   "most recently opened" heuristic under parallelism (see the .mli). *)
let span_cur = ref (-1)
let trace_oc : out_channel option ref = ref None
let set_trace_channel oc = trace_oc := oc

let span_push r =
  if !span_len >= Array.length !span_store then begin
    let cap = max 64 (2 * Array.length !span_store) in
    let store = Array.make cap r in
    Array.blit !span_store 0 store 0 !span_len;
    span_store := store
  end;
  !span_store.(!span_len) <- r;
  Stdlib.incr span_len

let span_begin name =
  if not !enabled_flag then no_span
  else begin
    let start = now () in
    Mutex.lock state_mutex;
    let parent = !span_cur in
    let depth = if parent < 0 then 0 else !span_store.(parent).s_depth + 1 in
    let r =
      {
        s_name = name;
        s_parent = parent;
        s_depth = depth;
        s_start = start;
        s_stop = -1.;
        s_attrs = [];
      }
    in
    let idx = !span_len in
    span_push r;
    span_cur := idx;
    Mutex.unlock state_mutex;
    idx
  end

let attrs_json attrs =
  Json.Obj
    (List.rev_map
       (fun (k, v) ->
         (k, match v with Int i -> Json.Int i | Str s -> Json.String s))
       attrs)

(* Separate lock so a slow trace sink never blocks metric hooks, while
   concurrent span_ends still emit whole lines. *)
let trace_mutex = Mutex.create ()

let emit_trace r =
  match !trace_oc with
  | None -> ()
  | Some oc ->
      let line =
        Json.to_string
          (Json.Obj
             [
               ("type", Json.String "span");
               ("name", Json.String r.s_name);
               ("start_s", Json.Float r.s_start);
               ("dur_s", Json.Float (r.s_stop -. r.s_start));
               ("depth", Json.Int r.s_depth);
               ("parent", Json.Int r.s_parent);
               ("attrs", attrs_json r.s_attrs);
             ])
      in
      Mutex.lock trace_mutex;
      output_string oc line;
      output_char oc '\n';
      Mutex.unlock trace_mutex

let span_end t =
  if t >= 0 then begin
    let stop = now () in
    let closed =
      locked (fun () ->
          if t < !span_len then begin
            let r = !span_store.(t) in
            if r.s_stop < 0. then begin
              r.s_stop <- stop;
              span_cur := r.s_parent;
              Some r
            end
            else None
          end
          else None)
    in
    match closed with Some r -> emit_trace r | None -> ()
  end

let span_int t k v =
  if t >= 0 then
    locked (fun () ->
        if t < !span_len then begin
          let r = !span_store.(t) in
          r.s_attrs <- (k, Int v) :: r.s_attrs
        end)

let span_str t k v =
  if t >= 0 then
    locked (fun () ->
        if t < !span_len then begin
          let r = !span_store.(t) in
          r.s_attrs <- (k, Str v) :: r.s_attrs
        end)

type span_info = {
  si_name : string;
  si_parent : int;
  si_depth : int;
  si_start : float;
  si_duration : float;
  si_attrs : (string * attr) list;
}

let spans () =
  locked (fun () ->
      Array.init !span_len (fun i ->
          let r = !span_store.(i) in
          {
            si_name = r.s_name;
            si_parent = r.s_parent;
            si_depth = r.s_depth;
            si_start = r.s_start;
            si_duration = (if r.s_stop < 0. then nan else r.s_stop -. r.s_start);
            si_attrs = List.rev r.s_attrs;
          }))

(* ------------------------------------------------------------------ *)
(* Reset                                                               *)
(* ------------------------------------------------------------------ *)

let reset () =
  locked (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.c_value 0) counters;
      Hashtbl.iter (fun _ g -> Atomic.set g.g_cell gauge_unset) gauges;
      Hashtbl.iter (fun _ h -> h.h_len <- 0) histograms;
      span_len := 0;
      span_cur := -1)

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

let sorted_of_tbl tbl name_of =
  locked (fun () -> Hashtbl.fold (fun _ v acc -> v :: acc) tbl [])
  |> List.sort (fun a b -> compare (name_of a) (name_of b))

let pp_duration ppf seconds =
  if Float.is_nan seconds then Format.fprintf ppf "   (open)"
  else if seconds >= 1. then Format.fprintf ppf "%8.3fs" seconds
  else if seconds >= 1e-3 then Format.fprintf ppf "%7.2fms" (seconds *. 1e3)
  else Format.fprintf ppf "%7.1fus" (seconds *. 1e6)

let max_report_spans = 2000

let report ppf () =
  let all = spans () in
  if Array.length all > 0 then begin
    Format.fprintf ppf "@[<v>== spans ==@,";
    let shown = min (Array.length all) max_report_spans in
    for i = 0 to shown - 1 do
      let s = all.(i) in
      Format.fprintf ppf "%a  %s%s" pp_duration s.si_duration
        (String.make (2 * s.si_depth) ' ')
        s.si_name;
      List.iter
        (fun (k, v) ->
          match v with
          | Int n -> Format.fprintf ppf " %s=%d" k n
          | Str str -> Format.fprintf ppf " %s=%s" k str)
        s.si_attrs;
      Format.fprintf ppf "@,"
    done;
    if Array.length all > shown then
      Format.fprintf ppf "  ... (%d more spans)@," (Array.length all - shown);
    Format.fprintf ppf "@]"
  end;
  let live_counters =
    sorted_of_tbl counters (fun c -> c.c_name)
    |> List.filter (fun c -> counter_value c <> 0)
  in
  if live_counters <> [] then begin
    Format.fprintf ppf "@[<v>== counters ==@,";
    List.iter
      (fun c ->
        Format.fprintf ppf "  %-44s %12d@," c.c_name (counter_value c))
      live_counters;
    Format.fprintf ppf "@]"
  end;
  let live_gauges =
    sorted_of_tbl gauges (fun g -> g.g_name)
    |> List.filter (fun g -> gauge_value g <> None)
  in
  if live_gauges <> [] then begin
    Format.fprintf ppf "@[<v>== gauges ==@,";
    List.iter
      (fun g ->
        Format.fprintf ppf "  %-44s %12d@," g.g_name
          (Option.value ~default:0 (gauge_value g)))
      live_gauges;
    Format.fprintf ppf "@]"
  end;
  let live_hists =
    sorted_of_tbl histograms (fun h -> h.h_name)
    |> List.filter (fun h -> h.h_len > 0)
  in
  if live_hists <> [] then begin
    Format.fprintf ppf
      "@[<v>== histograms ==@,  %-44s %8s %10s %10s %10s@," "name" "count"
      "p50" "p95" "max";
    List.iter
      (fun h ->
        Format.fprintf ppf "  %-44s %8d %10.4g %10.4g %10.4g@," h.h_name
          h.h_len (quantile h 0.5) (quantile h 0.95) (histogram_max h))
      live_hists;
    Format.fprintf ppf "@]"
  end;
  Format.pp_print_flush ppf ()

let histogram_summary_json h =
  Json.Obj
    [
      ("count", Json.Int h.h_len);
      ("mean", Json.Float (histogram_mean h));
      ("p50", Json.Float (quantile h 0.5));
      ("p95", Json.Float (quantile h 0.95));
      ("max", Json.Float (histogram_max h));
    ]

let metrics_json () =
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (sorted_of_tbl counters (fun c -> c.c_name)
          |> List.filter (fun c -> counter_value c <> 0)
          |> List.map (fun c -> (c.c_name, Json.Int (counter_value c)))) );
      ( "gauges",
        Json.Obj
          (sorted_of_tbl gauges (fun g -> g.g_name)
          |> List.filter_map (fun g ->
                 match gauge_value g with
                 | Some v -> Some (g.g_name, Json.Int v)
                 | None -> None)) );
      ( "histograms",
        Json.Obj
          (sorted_of_tbl histograms (fun h -> h.h_name)
          |> List.filter (fun h -> h.h_len > 0)
          |> List.map (fun h -> (h.h_name, histogram_summary_json h))) );
    ]

let snapshot_json () =
  let span_json s =
    Json.Obj
      [
        ("name", Json.String s.si_name);
        ("parent", Json.Int s.si_parent);
        ("depth", Json.Int s.si_depth);
        ("start_s", Json.Float s.si_start);
        ("dur_s", Json.Float s.si_duration);
        ( "attrs",
          Json.Obj
            (List.map
               (fun (k, v) ->
                 (k, match v with Int i -> Json.Int i | Str v -> Json.String v))
               s.si_attrs) );
      ]
  in
  match metrics_json () with
  | Json.Obj fields ->
      Json.Obj
        (("schema", Json.String "rta-obs-snapshot/1")
        :: fields
        @ [ ("spans", Json.List (Array.to_list (spans ()) |> List.map span_json)) ])
  | other -> other

let write_snapshot path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel oc (snapshot_json ());
      output_char oc '\n')
