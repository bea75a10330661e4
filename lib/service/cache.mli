(** Concurrent memo cache with in-flight request deduplication.

    Maps string keys (see {!Key}) to computed values.  Safe to share
    between domains: lookups and insertions are mutex-protected, and a
    key being computed is marked in-flight so concurrent requests for the
    same key block on a condition variable and reuse the single result
    instead of recomputing.  A computation that raises does not poison
    the cache — the marker is removed, waiters are woken and retry.  The
    cleanup is exception-safe ([Fun.protect]): even an asynchronous
    exception or a mid-flight cancellation ({!Cancel.Cancelled}) unwinding
    through the computation leaves no stale marker behind, which matters in
    a long-running daemon where a leaked marker would wedge every future
    request for that key.

    There is no eviction: the intended lifetime is one batch run (or one
    service process), and entries are a few hundred bytes each. *)

type 'a t

val create : unit -> 'a t

val find_or_compute : 'a t -> key:string -> (unit -> 'a) -> [ `Hit of 'a | `Miss of 'a ]
(** Return the cached value ([`Hit]) or run the computation, cache and
    return it ([`Miss]).  Exactly one caller computes each key at a time;
    the others wait.  Re-raises the computation's exception (uncached). *)

val find : 'a t -> string -> 'a option
(** Completed entry for this key, if any (never blocks on in-flight). *)

val mem : 'a t -> string -> bool
(** Whether a {e completed} entry exists (in-flight does not count). *)

val length : 'a t -> int
(** Number of completed entries. *)

val stats : 'a t -> int * int
(** [(hits, misses)] accumulated by {!find_or_compute} since creation. *)
