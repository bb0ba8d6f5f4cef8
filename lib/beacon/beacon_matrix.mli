(** The N×N delivery matrix an active-measurement campaign accumulates.

    One cell per (source beacon, receiver beacon) pair that a probe was
    ever addressed to: how many probes the pair expected ([expect], one
    per probe send per expected receiver), how many arrived ([deliver]),
    and running statistics over one-way latency, inter-domain hop count
    and path stretch — the delivered hop count divided by the unicast
    SPF hop distance between the two domains (1.0 when both sit in the
    same domain).  dbeacon renders exactly this matrix from its
    receiver reports; here the accounting is deterministic, so two
    seeded runs produce byte-identical snapshots.

    The accumulator is mergeable ({!merge_into}) so parallel trials can
    fold shard-local matrices back in task order, and exportable as
    JSONL for the [report --matrix] view. *)

type t

val create : unit -> t

val expect : t -> src:Host_ref.t -> dst:Host_ref.t -> unit
(** A probe from [src] was sent to a group [dst] listens on: the pair
    now expects one more delivery. *)

val deliver :
  t -> src:Host_ref.t -> dst:Host_ref.t -> latency:float -> hops:int -> spf_dist:int -> unit
(** A probe copy arrived.  [latency] is one-way sim-time seconds,
    [hops] the inter-domain hop count the copy travelled, [spf_dist]
    the unicast BFS hop distance from [src]'s to [dst]'s domain (0 for
    the same domain — the stretch observation is then 1.0, matching a
    zero-hop interior delivery). *)

val merge_into : into:t -> t -> unit
(** Fold another matrix's cells into [into] (counts add, statistics
    merge).  Merging shard matrices in task order is deterministic. *)

(** {1 Snapshots} *)

type cell = {
  c_src : Host_ref.t;
  c_dst : Host_ref.t;
  c_sent : int;
  c_got : int;
  c_loss : float;  (** lost fraction: [(sent - got) / sent] *)
  c_lat_mean : float;
  c_lat_max : float;  (** 0. when nothing arrived *)
  c_hops_mean : float;
  c_hops_max : float;
  c_stretch_mean : float;
  c_stretch_max : float;
}

val cells : t -> cell list
(** Deterministic snapshot: sorted by (src, dst). *)

type summary = {
  s_pairs : int;
  s_sent : int;
  s_got : int;
  s_lost : int;
  s_loss : float;  (** aggregate lost fraction *)
  s_unreachable : int;  (** pairs that expected probes and got none *)
  s_asymmetric : int;
      (** unordered host pairs measured in both directions whose loss
          fractions differ *)
  s_complete : bool;  (** every pair got every probe *)
  s_lat_mean : float;
  s_lat_max : float;
  s_stretch_mean : float;
  s_stretch_max : float;
}

val summary : cell list -> summary

val worst : cell list -> n:int -> cell list
(** The [n] worst pairs: highest loss fraction first, then highest mean
    latency, then (src, dst) order — the dbeacon "who can't hear whom"
    view. *)

val pp_summary : Format.formatter -> summary -> unit

val pp_cells : Format.formatter -> cell list -> unit
(** One aligned row per cell — intended for small matrices or the
    {!worst} selection. *)

(** {1 JSONL export}

    One meta line ([{"meta": ...}] with caller-supplied (key, value)
    floats, e.g. the convergence and measurement-window timestamps),
    then one line per cell. *)

val write_jsonl : ?meta:(string * float) list -> string -> cell list -> unit

val load_jsonl : string -> (string * float) list * cell list * int
(** Returns (meta, cells, malformed): the count of non-blank lines
    skipped because they did not parse. *)
