(** Rendering causal chains, timelines and latency summaries from
    flight-recorder records — shared by the [trace] bin subcommand and
    the explorer's triage (over loaded recordings) and the walkthrough
    examples (over the live ring).  A chain is every record carrying
    its trace id: the [note.*] narrative interleaved with the engine and
    transport records of the messages that carried the same span. *)

val chain_ids : Recorder.record list -> string list
(** Distinct trace ids, in first-appearance order. *)

val chain : Recorder.record list -> id:string -> Recorder.record list
(** Records belonging to one chain, time-ordered (stable). *)

val kind_of_id : string -> string
(** ["claim:3:224/24"] → ["claim"]. *)

val pp_record : Format.formatter -> Recorder.record -> unit
(** One line: [[time] subject label detail]. *)

val pp_chain : Format.formatter -> Recorder.record list -> unit
(** Render a chain with children indented under their parent spans. *)

val pp_chain_for : Format.formatter -> Recorder.record list -> id:string -> unit
(** Select [id]'s chain and render it with a header. *)

val pp_timelines : Format.formatter -> Recorder.record list -> unit
(** Flat per-chain (per-group / per-prefix) timelines, every chain. *)

type latency = { kind : string; chains : int; min_s : float; mean_s : float; max_s : float }

val latencies : Recorder.record list -> latency list
(** End-to-end (first record to last record) chain durations, aggregated
    by chain kind, in first-appearance order. *)

val pp_latencies : Format.formatter -> Recorder.record list -> unit
