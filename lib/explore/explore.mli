(** Campaign driver: generator -> oracle -> shrinker -> ledger -> triage.

    A campaign generates [budget] schedules ({!Fault_gen.generate}, all
    on the main domain), fans the trials out over the {!Par} pool (each
    trial runs the oracle and — on failure — the shrinker inside its
    own Obs shard with a fresh span minter, so its metrics and trace
    ids are a function of the trial alone), merges shards in trial
    order, re-runs the top counterexamples with the flight recorder
    enabled to produce replayable repro artifacts, and writes the
    ledger sequentially in trial order.  Ledger and stdout are
    byte-identical at any [--jobs]. *)

type config = {
  budget : int;
  max_faults : int;
  seed : int;
  jobs : int option;  (** [None]: the {!Par} default *)
  arena : Oracle.arena;
  horizon : Time.t;  (** fault-injection window bound (generator only) *)
  ledger : string;  (** ledger path, truncated then appended in trial order *)
  repro_dir : string option;  (** where repro artifacts land; [None]: skip repro *)
  repro_top : int;  (** how many counterexamples (smallest first) get repro runs *)
}

val default_config : config
(** budget 50, max_faults 6, seed 1998, default arena, horizon 4 h,
    ledger ["explore_ledger.jsonl"], no repro dir, repro_top 3. *)

type summary = {
  total : int;
  passed : int;
  violation : int;
  non_convergence : int;
  by_invariant : (string * int) list;  (** violated name -> failing trials, sorted by name *)
  shrink_steps : int;  (** oracle re-runs spent shrinking, all trials *)
  entries : Ledger.entry list;  (** what the ledger holds, trial order *)
}

val counterexamples : Ledger.entry list -> Ledger.entry list
(** Failing entries ranked by minimality: fewest [min_faults] first,
    then trial order. *)

val run_campaign : config -> summary
(** Runs the whole pipeline and writes the ledger (and repro artifacts,
    when configured). *)

val pp_summary : Format.formatter -> summary -> unit
(** The [explore] subcommand's stdout: verdict counts, invariant
    buckets, and the ranked counterexample list. *)

val pp_triage : ?top:int -> Format.formatter -> ledger:string -> unit
(** The [report --triage] view: loads the ledger, buckets outcomes by
    verdict and by violated invariant, ranks counterexamples by
    minimality, and — for the [top] (default 3) smallest — prints the
    blamed causal chain out of the repro recording when the ledger
    points at a readable one. *)
