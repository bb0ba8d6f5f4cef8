(** Hierarchical scoped profiler.

    [span "spf.dijkstra" f] times [f ()] (wall clock and GC-allocated
    bytes) and charges it to the node ["spf.dijkstra"] under whatever
    span is currently open, building a call tree per domain.  The
    profiler is off by default: when disabled, [span] is a single flag
    test plus a tail call — no clock reads, no allocation, no table
    lookups — so instrumented hot paths stay byte-identical in
    behaviour and near-identical in cost.

    The tree under construction is domain-local, so worker domains can
    profile concurrently.  A [Par] task wraps its work in {!capture};
    the detached subtree is grafted back into the submitting domain's
    tree with {!merge} at the join point, in task order, so the merged
    tree's structure, counts and sibling order are identical at any
    [--jobs] (wall-clock totals are per-shard CPU sums).  The on/off
    flag is shared: flip it from the main domain while no workers run.

    All output goes through the caller's formatter or an explicit file,
    never stdout, so seeded runs stay byte-identical on stdout. *)

val is_enabled : unit -> bool

val enable : unit -> unit
(** Also resets any previously collected tree. *)

val disable : unit -> unit
(** Stops collection; the tree collected so far remains readable. *)

val reset : unit -> unit

val span : string -> (unit -> 'a) -> 'a
(** Run the thunk under a named section.  Sections nest: the same name
    under different parents is a different node.  Exceptions propagate;
    the section is closed and charged either way. *)

(** {1 Shard capture and merge} *)

type tree
(** A detached span forest, as captured by one shard. *)

val capture : (unit -> 'a) -> 'a * tree
(** Run the thunk with spans charged to a fresh detached tree on this
    domain instead of the live one.  When the profiler is disabled the
    thunk runs untouched and the tree is empty. *)

val merge : tree -> unit
(** Graft a captured tree's sections under this domain's currently open
    span, accumulating counts, wall-clock and allocation into
    same-named children (recursively, preserving first-entered sibling
    order).  No-op when the profiler is disabled. *)

val merge_tree : into:tree -> tree -> unit
(** [merge_tree ~into t] accumulates [t] into another detached tree —
    the associative tree sum {!merge} applies to the live tree. *)

(** {1 Reporting} *)

type row = {
  path : string list;  (** root-to-node section names *)
  count : int;  (** times the section was entered *)
  total_s : float;  (** wall-clock including children *)
  self_s : float;  (** wall-clock minus children *)
  total_bytes : float;  (** GC-allocated bytes including children *)
  self_bytes : float;  (** GC-allocated bytes minus children *)
}

val rows : unit -> row list
(** Depth-first pre-order, children in first-entered order. *)

val tree_rows : tree -> row list
(** Rows of a detached tree, like {!rows}. *)

val pp_rows : Format.formatter -> row list -> unit
(** Indented table: count, total/self wall-clock, total/self allocation. *)

val pp : Format.formatter -> unit -> unit
(** [pp_rows] of the live tree. *)

val row_to_json : row -> string
(** One JSON object, path joined with [';']. *)

val row_of_json : string -> row option

val to_jsonl : unit -> string

val write_jsonl : string -> unit
(** Write the live tree to [file], one row per line. *)

val load_jsonl : string -> row list * int
(** Parse a file written by [write_jsonl]: rows plus the count of
    malformed non-blank lines skipped. *)

val folded : row list -> string
(** Flamegraph folded-stacks: one ["a;b;c <self-microseconds>"] line per
    row with non-zero self time. *)

val find : row list -> string list -> row option
(** Look up a row by exact path. *)
