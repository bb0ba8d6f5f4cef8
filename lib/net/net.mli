(** The link-transport substrate under MASC, BGP and BGMP.

    Every inter-domain message in the stack crosses a directed
    {!channel}: a FIFO, fixed-delay lane between two endpoints (domain
    ids), owned by a {!t} that holds the {e single source of truth} for
    link state.  The three protocol layers used to model links three
    different ways (MASC kept its own partition set, BGP dropped
    in-flight updates on failure, BGMP carried a private delay table);
    routing them all through one substrate gives every protocol the same
    failure semantics and gives fault injection one place to act:

    - {b delay} — each channel delivers [delay] after the send (or the
      net-wide [delay_override]); delivery order per channel is FIFO,
      and equal-time deliveries across channels fire in send order (the
      engine's heap breaks ties by scheduling sequence), so runs are
      fully deterministic;
    - {b up/down state} — {!fail_link} takes both directions of an
      endpoint pair down: subsequent sends are dropped at the source and
      messages already in flight are lost (they were bits on the dead
      wire).  {!block} does the same for one direction only (asymmetric
      partition);
    - {b loss} — a seeded, deterministic per-message loss probability
      ([loss_rate]); the RNG is private to the net and is never drawn
      when the rate is zero, so loss-free runs are bit-identical to the
      pre-substrate stack;
    - {b observability} — [net.sent/delivered/dropped.<protocol>]
      metrics and per-net counters.  When the flight recorder is
      enabled, every landed message appends a [net.recv.<protocol>]
      record and every lost one a [net.drop.<protocol>] record
      (subject ["src->dst reason"]), both carrying the message's
      span.

    Endpoints are plain ints.  Channels need not follow topology links:
    MASC's overlay (parent/child/top-sibling) pairs share the same state
    table, so partitioning a non-adjacent pair is expressed the same way
    as failing a physical link. *)

type config = {
  loss_rate : float;  (** per-message drop probability in [0, 1) *)
  loss_seed : int;  (** seed of the private loss RNG *)
  delay_override : Time.t option;
      (** when set, every channel delivers with this delay instead of
          its own (collapsed from the old
          [Bgmp_fabric.config.link_delay_override]) *)
}

val default_config : config
(** No loss, no override, seed 1998. *)

type t

val create : engine:Engine.t -> ?config:config -> unit -> t

val engine : t -> Engine.t

val set_loss_rate : t -> float -> unit
(** Change the per-message loss probability for {e subsequent} sends.
    The loss RNG's draw sequence is unchanged for past sends (it is
    only ever drawn while the rate is positive), so a run that builds
    state losslessly and then turns loss on for a measurement phase
    stays deterministic.  @raise Invalid_argument outside [0, 1). *)

(** {1 Channels} *)

type 'a channel
(** A directed lane carrying ['a] messages from [src] to [dst]. *)

val channel :
  t -> protocol:string -> src:int -> dst:int -> delay:Time.t -> recv:('a -> unit) -> 'a channel
(** A fresh channel; [recv] runs at delivery time, [delay] later than
    the send (unless overridden net-wide).  [protocol] labels the
    accounting ("masc", "bgp", "bgmp"). *)

val set_on_drop : 'a channel -> ('a -> unit) -> unit
(** Install a drop observer: it runs — with the lost message — whenever
    this channel drops, at the source (link down or loss draw) and in
    flight (epoch drop), after the net-wide accounting.  Layers use it
    to classify their own losses (e.g. BGMP data vs control). *)

val send : 'a channel -> ?span:Span.t -> 'a -> unit
(** Queue a message.  It is dropped — at the source — if the [src]→[dst]
    direction is down or the loss draw fires, and — in flight — if the
    direction goes down before the delivery time.  [span] attributes the
    message's recorder records to its causal chain. *)

val channel_delay : 'a channel -> Time.t
(** The effective delivery delay (after any override). *)

(** {1 Link state}

    State is per {e direction} of an endpoint pair; the pair needs no
    prior channel — blocking a pair that never communicates is a
    no-op. *)

val fail_link : t -> int -> int -> unit
(** Take both directions down: future sends drop at the source,
    in-flight messages are lost, and {!on_link_change} listeners fire
    with [up:false].  Idempotent. *)

val restore_link : t -> int -> int -> unit
(** Bring both directions back up (clearing any one-direction {!block}
    too) and notify listeners with [up:true].  Messages lost while the
    link was down stay lost.  Idempotent. *)

val block : t -> from_:int -> to_:int -> unit
(** Asymmetric partition: take only the [from_]→[to_] direction down
    (in-flight messages on that direction are lost).  Listeners are not
    notified — the reverse direction, and any session semantics built on
    it, stay up. *)

val unblock : t -> from_:int -> to_:int -> unit

val link_up : t -> int -> int -> bool
(** Both directions up? *)

val direction_up : t -> from_:int -> to_:int -> bool

val on_link_change : t -> (int -> int -> up:bool -> unit) -> unit
(** Subscribe to {!fail_link}/{!restore_link} transitions (BGP uses this
    to drop and re-form peering sessions).  Listeners run after the
    state change, in subscription order. *)

(** {1 Accounting}

    Per-net, per-protocol message counters (the same numbers are
    published as [net.<counter>.<protocol>] metrics, which aggregate
    across nets). *)

val sent : t -> protocol:string -> int
(** Send attempts, including ones dropped at the source. *)

val delivered : t -> protocol:string -> int

val dropped : t -> protocol:string -> int
(** Loss + dropped-at-source + lost-in-flight. *)

val in_flight : t -> protocol:string -> int
(** Messages currently on the wire across the protocol's channels
    (sent, not yet delivered or dropped).  Mirrored live in the
    [net.inflight.<protocol>] gauge: incremented on enqueue,
    decremented on delivery {e and} on an in-flight epoch drop; a drop
    at the source never enqueues, so it never moves the gauge. *)

val protocols : t -> string list
(** Protocols that have sent at least once on this net, sorted. *)
