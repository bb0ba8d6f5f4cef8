(** A MASC protocol node: the claim-collide state machine of §4.

    One node serves one domain.  A node {e listens} to the space
    advertised by its parent (or to 224/4 if it is top-level), {e claims}
    sub-ranges chosen by the §4.3.3 algorithm, announces the claims to
    its parent and (via the parent's relaying) to its siblings, waits a
    configurable collision period, and only then treats the range as
    {e acquired} — handing it to the domain's MAAS and injecting it into
    BGP through the [on_acquired] callback.  Overlapping claims by
    different domains are resolved deterministically: an established
    (acquired) claim beats a waiting one, and between two waiting claims
    the lower domain id wins (footnote 4 of the paper).

    A node with children also manages the {e down} arena: it relays each
    child's claim to the other children, tracks how much of its space the
    children occupy, and expands its own space when they run out (§4.1:
    "it claims more address space when the utilization exceeds a given
    threshold"). *)

type config = {
  claim_wait : Time.t;
      (** collision-listening period before a claim is usable; the paper
          suggests 48 hours in deployment — tests scale it down *)
  claim_lifetime : Time.t;  (** lifetime requested for each claim (30 days) *)
  renew_margin : Time.t;
      (** how long before expiry a still-needed claim is renewed *)
  policy : Claim_policy.params;
  child_expand_headroom : float;
      (** a parent expands when children's claims exceed this fraction of
          its space (defaults to [policy.threshold]) *)
}

val default_config : config
(** 48 h wait, 30 d lifetime, 24 h renew margin, default policy. *)

type role = Top | Child of Domain.id

type claim_state = Waiting | Acquired

type arena_kind =
  | Up  (** ranges claimed from the parent's space (or 224/4): these are
            the domain's MASC allocation, injected into BGP *)
  | Down
      (** ranges a transit domain reserves out of its own space for its
          local MAAS, claimed against its children like a sibling *)

type own_claim = {
  claim_arena : arena_kind;
  claim_prefix : Prefix.t;
  mutable claim_lifetime_end : Time.t;
  mutable claim_state : claim_state;
  mutable claim_active : bool;  (** accepting new assignments *)
  claim_span : Span.t;  (** root of this claim's causal chain *)
}

type t

val create :
  id:Domain.id -> role:role -> config:config -> engine:Engine.t -> rng:Rng.t -> t

val id : t -> Domain.id

val role : t -> role

val set_transport : t -> (dst:Domain.id -> Masc_message.t -> unit) -> unit

val set_children : t -> Domain.id list -> unit

val set_top_siblings : t -> Domain.id list -> unit
(** For a top-level node: the other top-level nodes it exchanges claims
    with directly. *)

val add_on_acquired : t -> (Prefix.t -> lifetime_end:Time.t -> span:Span.t -> unit) -> unit
(** Register a listener for newly acquired Up ranges (the MAAS learns of
    usable space; the BGP speaker injects the group route).  [span] is
    the acquisition's span on the claim's causal chain, for threading
    into the resulting BGP route.  Listeners accumulate. *)

val add_on_replaced : t -> (old_prefix:Prefix.t -> by:Prefix.t -> unit) -> unit
(** Register a listener fired when a doubling claim absorbs an existing
    acquired prefix: the old group route must be withdrawn (the new,
    covering route is already injected) and MAAS pools grow in place —
    existing address assignments stay valid. *)

val add_on_lost : t -> (Prefix.t -> unit) -> unit
(** Register a listener fired when an acquired prefix is lost (collision
    after a partition, or lifetime expiry): the MAAS must renumber and
    BGP must withdraw.  Listeners accumulate. *)

val add_on_space_changed : t -> (unit -> unit) -> unit
(** Register a listener fired whenever the set of acquired ranges
    changes; a MAAS retries parked allocations on this signal. *)

val reparent : t -> new_parent:Domain.id -> unit
(** Switch a child domain to a different provider as its MASC parent
    (§4: "a domain that is a customer of other domains will choose one
    or more of those provider domains to be its MASC parent").  The
    node forgets the old parent's advertised space and claim registry;
    claims outside the new parent's space stop renewing and drain away
    as their addresses expire, while fresh demand claims from the new
    space.  @raise Invalid_argument on a top-level node. *)

val bootstrap_top : t -> Prefix.t -> unit
(** Configure the global space a top-level node claims from (normally
    {!Prefix.class_d}, or an exchange's continental sub-range in the
    start-up scheme of §4.4). *)

val start : t -> unit
(** Begin protocol operation (advertise space to children, schedule
    periodic housekeeping). *)

val receive : t -> from_:Domain.id -> Masc_message.t -> unit

val request_space : t -> need:int -> unit
(** Demand [need] more addresses (a MAAS ran out).  The node applies the
    §4.3.3 policy: assign from an existing range (then
    [on_space_changed] fires immediately), double, claim anew, or
    consolidate; if its parent's space is exhausted it sends
    [Need_space] upward and retries when new space is advertised. *)

val note_assigned : t -> Prefix.t -> int -> unit
(** The MAAS reports [n] addresses newly assigned (negative = freed)
    within the given acquired range; feeds utilization decisions. *)

val acquired_ranges : t -> own_claim list
(** The MAAS-usable acquired claims: the Up arena for a leaf domain, the
    Down (self-reserved) arena for a transit domain. *)

val bgp_ranges : t -> own_claim list
(** Acquired Up-arena claims: the ranges this domain injects into BGP as
    group routes (it is the root domain for all of them). *)

val all_claims : t -> own_claim list

val assigned_in : t -> Prefix.t -> int

val space_view : t -> Address_space.t
(** The node's view of the arena it claims from (covers = parent space;
    claims = heard sibling claims plus its own). *)

val children_view : t -> Address_space.t
(** The arena this node's children claim from. *)

val pending_requests : t -> int

val collisions_suffered : t -> int
(** How many of this node's claims were killed by collisions. *)

val claims_made : t -> int
