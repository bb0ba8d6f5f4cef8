(** The paper's worked examples as library functions.

    The examples directory prints these interactively; tests and
    downstream users get them here as plain values. *)

type session = {
  inet : Internet.t;
  group : Ipv4.t;
  root : Domain.id;  (** the group's root domain per the G-RIB *)
  members : Domain.id list;
}

val figure1 : ?seed:int -> ?loss:float -> ?check_invariants:bool -> unit -> session
(** The Figure-1 flow end-to-end on the integrated stack: build the
    seven-domain topology, run MASC until domain B holds a range,
    allocate the group address at B (so B is the root), and join
    members in C, D, F and G.  Runs the engine until ready.
    [check_invariants] (default [true]) installs the live invariant
    monitor ({!Internet.enable_invariant_checks}).  [loss] is the
    transport's per-message drop probability (default 0). *)

val send : session -> source:Host_ref.t -> (Host_ref.t * int) list
(** Send one packet and return the deliveries (host, inter-domain
    hops), after letting the simulation settle. *)

type walkthrough = {
  engine : Engine.t;
  walkthrough_topo : Topo.t;
  fabric : Bgmp_fabric.t;
  walkthrough_group : Ipv4.t;
}

val figure3 : ?migp_style:(Domain.id -> Migp.style) -> ?loss:float -> unit -> walkthrough
(** Figure 3(a): the eight-domain topology with group 224.0.128.1
    statically rooted at B and members joined in B, C, D, F and H
    (DVMRP inside every domain unless overridden).  [loss] sets the
    fabric transport's per-message drop probability (default 0) —
    dropped joins show up as missing tree branches. *)

val figure3_branch_demo : walkthrough -> before:int list -> after:int list -> bool
(** Figure 3(b): send twice from a source in D and compare F's delivery
    hop count against the expected [before] (shared tree) and [after]
    (source-specific branch) values; returns whether both matched.
    With the default DVMRP style, [before = \[3\]] and [after = \[2\]]. *)

val deliveries_by_domain : walkthrough -> payload:int -> (string * int) list
(** (domain name, hops) per delivery, sorted by name. *)
