(** Disk-backed persistent result store: the daemon's warm start.

    Maps {!Key} hashes to serialized analysis results so a restarted
    [rta serve] process keeps its hot set without re-running the engine.
    The layout is deliberately boring — one flat directory, one file per
    entry named [<32-hex-key>.json], contents exactly the stored payload —
    so entries can be inspected, copied or deleted with ordinary shell
    tools while the daemon is down.

    {b Crash safety.}  Writes go to a dot-prefixed temporary file in the
    same directory and are published with [rename], which is atomic on
    POSIX filesystems: a reader (or a crash) never observes a half-written
    entry under its final name.  Stale temporaries from a previous crash
    are swept on {!open_}.

    {b Corruption tolerance.}  A store directory is user-writable state
    and must never take the daemon down.  On {!open_}, unparseable
    filenames are ignored.  On {!find}, an entry that cannot be read or
    whose payload the caller's [decode] rejects (truncated write on a
    non-atomic filesystem, manual editing, bit rot, schema drift) is
    {e evicted} — deleted and counted in [stats.corrupt] — and the lookup
    reports a miss so the caller recomputes and overwrites it.

    {b Eviction.}  The store is size-capped ([max_bytes]).  When a put
    would exceed the cap, least-recently-used entries are deleted first;
    recency survives restarts because hits touch the file's mtime and
    {!open_} rebuilds the LRU order from mtimes.  A payload larger than
    the cap itself is simply not stored.

    All operations are mutex-protected; the store is safe to share across
    the server's worker threads.  Failures of individual syscalls
    (permission changes, disk full) degrade the operation to a miss or a
    no-op rather than raising: the store is an accelerator, not a
    dependency. *)

type t

type stats = {
  entries : int;  (** live entries on disk *)
  bytes : int;  (** total payload bytes on disk *)
  hits : int;
  misses : int;
  evictions : int;  (** entries deleted to stay under [max_bytes] *)
  corrupt : int;  (** entries evicted because they could not be decoded *)
}

val open_ : ?max_bytes:int -> string -> t
(** [open_ dir] creates [dir] (and parents) if needed, sweeps leftover
    temporaries, and indexes existing entries by mtime.  [max_bytes]
    defaults to 64 MiB.  Counters start at zero — they describe this
    process's lifetime, not the directory's. *)

val find : t -> key:string -> decode:(string -> ('a, 'e) result) -> 'a option
(** The stored payload decoded by [decode], refreshing the entry's
    recency, or [None] on a miss.  An unreadable entry or one [decode]
    rejects is evicted and counted as corrupt and as a miss, so the
    counters do not depend on who opened the store.  Keys that are not 32
    lowercase hex digits (see {!Key.of_system}) never touch the filesystem
    and count as misses. *)

val put : t -> key:string -> string -> unit
(** Store (or overwrite) the payload atomically, evicting LRU entries as
    needed.  Malformed keys and oversized payloads are ignored. *)

val flush : t -> unit
(** Best-effort [fsync] of the store directory, making published renames
    durable.  Called by the server on graceful shutdown. *)

val stats : t -> stats

val dir : t -> string
