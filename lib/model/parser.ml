(* Line-oriented system description parser; see parser.mli for the
   grammar.  One pass over the text: lines are found by index, the words of
   a line are offsets into the text, [key=value] words are matched in
   place, and plain decimals are read straight to ticks. *)

exception Parse_error of string

let fail line fmt =
  Format.kasprintf
    (fun s -> raise (Parse_error (Printf.sprintf "line %d: %s" line s)))
    fmt

(* The current line's words: word [i] is [text.[starts.(i)] ..
   text.[stops.(i) - 1]], and [eqs.(i)] is the offset of its first '='
   (-1 if none).  Words are separated by spaces only; a tab inside a line
   belongs to its word. *)
type words = {
  text : string;
  mutable line : int;
  mutable count : int;
  mutable starts : int array;
  mutable stops : int array;
  mutable eqs : int array;
}

let push w start stop eq =
  if w.count = Array.length w.starts then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    w.starts <- grow w.starts;
    w.stops <- grow w.stops;
    w.eqs <- grow w.eqs
  end;
  w.starts.(w.count) <- start;
  w.stops.(w.count) <- stop;
  w.eqs.(w.count) <- eq;
  w.count <- w.count + 1

(* [String.trim]'s whitespace, less the space (which separates words) and
   the newline (which ends the line). *)
let is_blank = function '\t' | '\r' | '\012' -> true | _ -> false

(* Drop the word at index [i]. *)
let remove w i =
  let move a = Array.blit a (i + 1) a i (w.count - i - 1) in
  move w.starts;
  move w.stops;
  move w.eqs;
  w.count <- w.count - 1

(* Cut the line's leading and trailing [String.trim] whitespace: the
   spaces are already gone, so strip blanks from the outer ends of the
   first and last words, dropping words that were all blanks. *)
let rec trim_front w =
  if w.count > 0 then begin
    let a = ref w.starts.(0) in
    while !a < w.stops.(0) && is_blank (String.unsafe_get w.text !a) do
      incr a
    done;
    if !a = w.stops.(0) then begin
      remove w 0;
      trim_front w
    end
    else w.starts.(0) <- !a
  end

let rec trim_back w =
  if w.count > 0 then begin
    let last = w.count - 1 in
    let b = ref w.stops.(last) in
    while !b > w.starts.(last) && is_blank (String.unsafe_get w.text (!b - 1)) do
      decr b
    done;
    if !b = w.starts.(last) then begin
      w.count <- last;
      trim_back w
    end
    else w.stops.(last) <- !b
  end

(* Split the line that starts at [pos] into its words, at spaces, and
   return where it ends (its '\n' or the end of the text).  One pass. *)
let scan_line w pos =
  let text = w.text in
  let n = String.length text in
  let rec gap i =
    if i >= n then i
    else
      match String.unsafe_get text i with
      | ' ' -> gap (i + 1)
      | '\n' -> i
      | _ -> word i (i + 1) (if String.unsafe_get text i = '=' then i else -1)
  and word start i eq =
    if i >= n then begin
      push w start i eq;
      i
    end
    else
      match String.unsafe_get text i with
      | ' ' ->
          push w start i eq;
          gap (i + 1)
      | '\n' ->
          push w start i eq;
          i
      | '=' when eq < 0 -> word start (i + 1) i
      | _ -> word start (i + 1) eq
  in
  w.count <- 0;
  let eol = gap pos in
  trim_front w;
  trim_back w;
  eol

let rec range_eq text a lit k =
  k = String.length lit
  || (String.unsafe_get text (a + k) = String.unsafe_get lit k
     && range_eq text a lit (k + 1))

let range_is text a b lit = b - a = String.length lit && range_eq text a lit 0

let is w i lit = range_is w.text w.starts.(i) w.stops.(i) lit
let sub_range w a b = String.sub w.text a (b - a)
let word w i = sub_range w w.starts.(i) w.stops.(i)

(* The first word at index [from] or later whose key (the text before
   its first '=') is [key], or -1. *)
let find_key w from key =
  let rec go i =
    if i >= w.count then -1
    else if w.eqs.(i) >= 0 && range_is w.text w.starts.(i) w.eqs.(i) key then i
    else go (i + 1)
  in
  go from

let lookup w from key =
  match find_key w from key with
  | -1 -> fail w.line "missing %s=..." key
  | i -> i

(* ------------------------------------------------------------------ *)
(* Numbers                                                             *)
(* ------------------------------------------------------------------ *)

let digit c = Char.code c - Char.code '0'

(* Exact ticks of a plain decimal [digits[.d{1,3}]], or -1 for every other
   form and for an integer part above [max_whole], whose ticks would not
   fit an int.  The float path ([float_of_string] then [Time.of_units] or
   [Time.of_units_ceil]) lands on the same tick while the tick count is
   below about 4.5 x 10^9, where the parsed double times 1000 is within
   the rounding and the 1e-6 snap of the ceiling; beyond it the snap can
   add a tick, which reading the digits never does.  A tick is the third
   decimal place of a unit ([Time.ticks_per_unit] = 1000). *)
let max_whole = (max_int - 999) / 1000

let plain_ticks text a b =
  let rec int_part i v =
    if i = b then (if i = a then -1 else v * 1000)
    else
      match String.unsafe_get text i with
      | '0' .. '9' as c ->
          let v = (v * 10) + digit c in
          if v > max_whole then -1 else int_part (i + 1) v
      | '.' when i > a -> frac (i + 1) v 0 0
      | _ -> -1
  and frac i v f k =
    if i = b then
      match k with
      | 1 -> (v * 1000) + (f * 100)
      | 2 -> (v * 1000) + (f * 10)
      | 3 -> (v * 1000) + f
      | _ -> -1
    else
      match String.unsafe_get text i with
      | '0' .. '9' as c when k < 3 -> frac (i + 1) v ((f * 10) + digit c) (k + 1)
      | _ -> -1
  in
  int_part a 0

let units w a b =
  let t = plain_ticks w.text a b in
  if t >= 0 then t
  else
    let s = sub_range w a b in
    match float_of_string_opt s with
    | Some f when f >= 0. -> Time.of_units f
    | Some _ | None -> fail w.line "expected a non-negative number, got %S" s

let units_exec w a b =
  let t = plain_ticks w.text a b in
  if t > 0 then t
  else
    let s = sub_range w a b in
    match float_of_string_opt s with
    | Some f when f > 0. -> max 1 (Time.of_units_ceil f)
    | Some _ | None -> fail w.line "expected a positive number, got %S" s

(* [int_of_string_opt] of the range, with plain short digit runs read in
   place. *)
let int_of w a b =
  let rec go i v =
    if i = b then Some v
    else
      match String.unsafe_get w.text i with
      | '0' .. '9' as c -> go (i + 1) ((v * 10) + digit c)
      | _ -> None
  in
  if b > a && b - a <= 18 then
    match go a 0 with Some _ as r -> r | None -> int_of_string_opt (sub_range w a b)
  else int_of_string_opt (sub_range w a b)

(* The value of the [key=value] word [i]. *)
let value_units w i = units w (w.eqs.(i) + 1) w.stops.(i)
let value_units_exec w i = units_exec w (w.eqs.(i) + 1) w.stops.(i)
let value_int w i = int_of w (w.eqs.(i) + 1) w.stops.(i)

(* ------------------------------------------------------------------ *)
(* Directives                                                          *)
(* ------------------------------------------------------------------ *)

type partial_job = {
  name : string;
  arrival : Arrival.pattern;
  deadline : int;
  steps_rev : System.step list;
}

let parse_trace w i =
  let a = w.starts.(i) and b = w.stops.(i) in
  let parts = ref 1 in
  for k = a to b - 1 do
    if w.text.[k] = ',' then incr parts
  done;
  let times = Array.make !parts 0 in
  let start = ref a and n = ref 0 in
  for k = a to b do
    if k = b || w.text.[k] = ',' then begin
      times.(!n) <- units w !start k;
      incr n;
      start := k + 1
    end
  done;
  Arrival.Trace times

(* Words: [job NAME arrival KIND ...]; the kind's [key=value] words are
   looked up among all the words after it. *)
let parse_arrival w =
  if w.count <= 3 then fail w.line "missing arrival kind";
  let kv = 4 in
  let offset () =
    match find_key w kv "offset" with -1 -> 0 | o -> value_units w o
  in
  if is w 3 "periodic" then begin
    let p = lookup w kv "period" in
    let period = value_units_exec w p in
    let offset = offset () in
    Arrival.Periodic { period; offset }
  end
  else if is w 3 "bursty" then
    Arrival.Bursty { period = value_units_exec w (lookup w kv "period") }
  else if is w 3 "burst_periodic" then begin
    let b = lookup w kv "burst" in
    let p = lookup w kv "period" in
    let period = value_units_exec w p in
    let offset = offset () in
    match value_int w b with
    | Some burst when burst >= 1 -> Arrival.Burst_periodic { burst; period; offset }
    | Some _ | None -> fail w.line "burst must be a positive integer"
  end
  else if is w 3 "sporadic" then begin
    let g = lookup w kv "min_gap" in
    let min_gap = value_units_exec w g in
    let c = lookup w kv "count" in
    match value_int w c with
    | Some count when count >= 0 -> Arrival.Sporadic_worst { min_gap; count }
    | Some _ | None -> fail w.line "count must be a non-negative integer"
  end
  else if is w 3 "trace" && w.count > 4 then
    if is w 4 "none" then Arrival.Trace [||] else parse_trace w 4
  else fail w.line "unknown arrival kind %S" (word w 3)

(* Words: [job NAME arrival KIND ... deadline D ...]; the deadline is the
   word after the first ["deadline"] among those after [job]. *)
let parse_job_header w =
  if w.count < 3 || not (is w 2 "arrival") then
    fail w.line "expected: job NAME arrival KIND ... deadline D";
  let name = word w 1 in
  let arrival = parse_arrival w in
  let rec find_deadline i =
    if i + 1 >= w.count then fail w.line "missing deadline"
    else if is w i "deadline" then units_exec w w.starts.(i + 1) w.stops.(i + 1)
    else find_deadline (i + 1)
  in
  let deadline = find_deadline 1 in
  { name; arrival; deadline; steps_rev = [] }

(* Words: [step proc=P exec=E [prio=R]]. *)
let parse_step w =
  let p = lookup w 1 "proc" in
  let e = lookup w 1 "exec" in
  match value_int w p with
  | None -> fail w.line "proc must be an integer"
  | Some proc ->
      let exec = value_units_exec w e in
      let prio =
        match find_key w 1 "prio" with
        | -1 -> 1
        | r -> Option.value ~default:1 (value_int w r)
      in
      { System.proc; exec; prio }

let parse text =
  let n = String.length text in
  let w =
    {
      text;
      line = 0;
      count = 0;
      starts = Array.make 16 0;
      stops = Array.make 16 0;
      eqs = Array.make 16 0;
    }
  in
  let schedulers = ref None and jobs = ref [] and current = ref None in
  let push_current () =
    match !current with None -> () | Some j -> jobs := j :: !jobs
  in
  let directive () =
    if is w 0 "step" then begin
      match !current with
      | None -> fail w.line "step before any job"
      | Some j ->
          let s = parse_step w in
          current := Some { j with steps_rev = s :: j.steps_rev }
    end
    else if is w 0 "job" then begin
      push_current ();
      current := Some (parse_job_header w)
    end
    else if is w 0 "processors" then
      schedulers :=
        Some
          (Array.init (w.count - 1) (fun k ->
               match Sched.of_string (word w (k + 1)) with
               | Ok s -> s
               | Error e -> fail w.line "%s" e))
    else fail w.line "unknown directive %S" (word w 0)
  in
  (* Blank and '#' lines are skipped. *)
  let rec lines pos line =
    w.line <- line;
    let eol = scan_line w pos in
    if w.count > 0 && w.text.[w.starts.(0)] <> '#' then directive ();
    if eol < n then lines (eol + 1) (line + 1)
  in
  match lines 0 1 with
  | exception Parse_error e -> Error e
  | () -> (
      push_current ();
      let finalize j =
        {
          System.name = j.name;
          arrival = j.arrival;
          deadline = j.deadline;
          steps = Array.of_list (List.rev j.steps_rev);
        }
      in
      match !schedulers with
      | None -> Error "missing 'processors ...' line"
      | Some scheds ->
          System.make ~schedulers:scheds
            ~jobs:(Array.of_list (List.rev_map finalize !jobs)))

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error e -> Error e

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* Units as the integer part plus the tick fraction without trailing
   zeros: exact for every tick count, and the same bytes the former
   ["%g"] gave wherever its six significant digits were exact. *)
let add_units buf t =
  if t < 0 then Buffer.add_char buf '-';
  Buffer.add_string buf (string_of_int (abs (t / 1000)));
  let frac = abs (t mod 1000) in
  if frac <> 0 then begin
    let add_digit d = Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + d)) in
    Buffer.add_char buf '.';
    add_digit (frac / 100);
    if frac mod 100 <> 0 then add_digit (frac / 10 mod 10);
    if frac mod 10 <> 0 then add_digit (frac mod 10)
  end

let add_int buf i = Buffer.add_string buf (string_of_int i)

let add_offset buf offset =
  if offset <> 0 then begin
    Buffer.add_string buf " offset=";
    add_units buf offset
  end

let print_arrival buf = function
  | Arrival.Periodic { period; offset } ->
      Buffer.add_string buf "periodic period=";
      add_units buf period;
      add_offset buf offset
  | Arrival.Bursty { period } ->
      Buffer.add_string buf "bursty period=";
      add_units buf period
  | Arrival.Burst_periodic { burst; period; offset } ->
      Buffer.add_string buf "burst_periodic burst=";
      add_int buf burst;
      Buffer.add_string buf " period=";
      add_units buf period;
      add_offset buf offset
  | Arrival.Sporadic_worst { min_gap; count } ->
      Buffer.add_string buf "sporadic min_gap=";
      add_units buf min_gap;
      Buffer.add_string buf " count=";
      add_int buf count
  | Arrival.Trace [||] -> Buffer.add_string buf "trace none"
  | Arrival.Trace times ->
      Buffer.add_string buf "trace ";
      Array.iteri
        (fun i t ->
          if i > 0 then Buffer.add_char buf ',';
          add_units buf t)
        times

let print system =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "processors";
  for p = 0 to System.processor_count system - 1 do
    Buffer.add_char buf ' ';
    Buffer.add_string buf (Sched.to_string (System.scheduler_of system p))
  done;
  Buffer.add_char buf '\n';
  for j = 0 to System.job_count system - 1 do
    let job = System.job system j in
    Buffer.add_string buf "\njob ";
    Buffer.add_string buf job.System.name;
    Buffer.add_string buf " arrival ";
    print_arrival buf job.System.arrival;
    Buffer.add_string buf " deadline ";
    add_units buf job.System.deadline;
    Buffer.add_char buf '\n';
    Array.iter
      (fun (s : System.step) ->
        Buffer.add_string buf "  step proc=";
        add_int buf s.System.proc;
        Buffer.add_string buf " exec=";
        add_units buf s.System.exec;
        Buffer.add_string buf " prio=";
        add_int buf s.System.prio;
        Buffer.add_char buf '\n')
      job.System.steps
  done;
  Buffer.contents buf
