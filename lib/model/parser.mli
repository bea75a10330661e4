(** Textual system descriptions.

    A small line-oriented format so systems can be analyzed from files with
    the [rta] command-line tool:

    {v
    # comment; blank lines ignored; times are in units (1 unit = 1000 ticks)
    processors spp spp fcfs

    job T1 arrival periodic period=5.0 deadline 12.5
      step proc=0 exec=0.5 prio=1
      step proc=2 exec=0.4

    job T2 arrival bursty period=3.0 deadline 9.0
      step proc=1 exec=0.25 prio=2

    job T3 arrival trace 0.0,1.5,1.5,9.25 deadline 4.0
      step proc=1 exec=0.5 prio=1
    v}

    Arrival forms: [periodic period=P [offset=O]], [bursty period=P],
    [burst_periodic burst=N period=P [offset=O]],
    [sporadic min_gap=G count=N], [trace t1,t2,...], and [trace none] for
    a job that is never released.
    [prio] defaults to 1 (FCFS processors ignore it).

    Priorities may be omitted everywhere and assigned afterwards with
    {!Priority.deadline_monotonic} (the [rta] tool's [--auto-prio]). *)

val parse : string -> (System.t, string) result
(** Parse a description from a string.  Errors carry the line number.
    Words are separated by spaces (a tab inside a line belongs to its
    word); whitespace at either end of a line is ignored.  A time written
    as a plain decimal [digits[.d{1,3}]] is read straight to ticks,
    exactly at any size whose ticks fit an int; every other form ([1e3],
    [.5], [0x10], ...) goes through [float_of_string] and
    {!Time.of_units} (or {!Time.of_units_ceil} for execution times,
    periods, gaps and deadlines), which gives the same tick below about
    4.5 x 10{^9} ticks. *)

val parse_file : string -> (System.t, string) result

val print : System.t -> string
(** Render a system back into the textual format.  Times are written as
    their integer part plus the tick fraction without trailing zeros
    (1234567 ticks print as [1234.567]) and an empty trace as
    [trace none], so the text is exact: [parse] of the result yields an
    equal system. *)
