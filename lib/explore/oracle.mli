(** The explorer's oracle: run one fault schedule deterministically and
    judge the outcome.

    Each run builds a fresh parameterized internet
    ({!Gen.masc_hierarchy}: [tops] backbone domains in a full peer mesh,
    [children_per_top] stub customers each) under quick protocol timers,
    injects the schedule's faults as engine events, drives a fixed
    workload (demand-driven allocation at every top, cross-top joins
    from every stub), and lets the stack settle three claim-renewal
    cycles past the last fault — long enough for the §4.4
    post-partition collision duel and its aftershock claims to resolve,
    so a healed partition that self-repairs is {e not} reported as a
    violation.

    The verdict combines two oracles:

    - the {b invariant registry}: a cadence monitor checks the live
      (transient-tolerant) invariants throughout, and a final end-state
      check runs every predicate — quiescent-only ones included exactly
      when the schedule leaves every link up and loss at zero
      ({!Schedule.ends_all_up}), since tree/G-RIB agreement is
      undefined while the topology is cut;
    - {b convergence watermarks}: if the engine's last durable state
      change ([Engine.converged_at]) lands past the schedule's repair
      deadline (last fault + one claim lifetime + grace), the stack
      never converged — [Non_convergence] even when every invariant
      holds. *)

type verdict = Pass | Violation | Non_convergence

val verdict_to_string : verdict -> string

val verdict_of_string : string -> verdict option

type arena = { tops : int; children_per_top : int }

val default_arena : arena
(** 2 tops x 2 children: the smallest internet where every fault family
    has something to break (peer mesh, provider-customer edges, sibling
    claims out of 224/4). *)

type outcome = {
  verdict : verdict;
  violations : Invariant.violation list;
      (** the final end-state check's violations (not the transient ones) *)
  transient : int;  (** violations seen by mid-run cadence checks *)
  converged_at : Time.t option;
  deadline : Time.t;  (** convergence deadline the verdict used *)
  horizon : Time.t;  (** virtual time the run ended at *)
}

val verdict_of :
  converged_at:Time.t option -> deadline:Time.t -> violations:Invariant.violation list -> verdict
(** The pure verdict rule: violations trump everything, then the
    watermark test.  Exposed for unit tests. *)

val run :
  ?arena:arena -> ?conv_grace:Time.t -> ?monitor:bool -> seed:int -> Schedule.t -> outcome * Internet.t
(** Deterministic in [(arena, conv_grace, seed, schedule)].  The
    returned stack is final-state.  With the flight recorder on, the
    end-state check appends [note.violation] records (with blamed trace
    ids) to the recording, for repro dumps.
    [conv_grace] (default 2 h) pads the convergence deadline.
    [~monitor:false] skips the cadence invariant monitor ([transient]
    stays 0; the end-state check still runs) — the bench uses it to
    price the monitor; the explorer always runs monitored.
    @raise Invalid_argument if a schedule step names a link absent from
    the arena's topology. *)
