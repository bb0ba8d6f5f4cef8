(** Sim-time telemetry series.

    A [Timeseries.t] holds named sources — thunks reading a gauge, a
    counter, a queue depth — and snapshots all of them each time
    [sample] is called.  The module is passive: it never touches the
    engine, so cadence is owned by whoever drives it (the engine's
    sampler hook in practice, or an experiment's own sampling loop).
    Samples land in an in-memory store, a bounded ring, or a JSONL
    file. *)

type t

type sink =
  | Memory  (** keep every sample in memory *)
  | Ring of int  (** keep only the last [n] samples *)
  | Jsonl of string  (** append rows to a file, opened on first sample *)

val create : ?sink:sink -> unit -> t
(** Default sink is [Memory]. *)

val register : t -> string -> (unit -> float) -> unit
(** Add a named source.  Re-registering a name replaces its reader;
    sources are sampled in first-registration order. *)

val register_gauge : t -> string -> Metrics.gauge -> unit

val register_counter : t -> string -> Metrics.counter -> unit

val sources : t -> string list

val sample : t -> time:float -> unit
(** Read every source once and record one row at [time]. *)

val samples : t -> int
(** Rows recorded so far (including rows a ring has evicted). *)

val rows : t -> (float * (string * float) list) list
(** In-memory rows, oldest first.  Empty for a [Jsonl] sink. *)

val merge_into : into:t -> t -> unit
(** Replay [src]'s in-memory rows into [into]'s store, oldest first —
    the join-point merge for shard-local [Memory] sinks collected by
    parallel tasks.  Rows pass through unchanged (the source's
    registered readers are not re-run); merging shards in a
    deterministic order keeps the destination byte-deterministic.
    No-op for a [Jsonl] source (it retains no rows). *)

val close : t -> unit
(** Flush and close a [Jsonl] sink; no-op otherwise. *)

(** {1 Loading and shaping} *)

type point = { at : float; series : string; value : float }

val load_jsonl : string -> point list * int
(** Parse a file written by the [Jsonl] sink: points plus the count of
    malformed non-blank lines skipped. *)

val series_of : point list -> (string * (float * float) array) list
(** Group points into per-series (time, value) arrays, series in
    first-appearance order, points in file order. *)
