(** Flight recorder: deterministic event-stream capture and run
    fingerprints.

    When enabled, the engine's dispatch point and the transport's
    deliver/drop paths append one {!record} per observed event, and the
    protocols append narrative [note.<tag>] records (a MASC claim, a
    G-RIB update, a BGMP join hop, an invariant violation) whose
    subject is the acting entity and whose detail says what happened.
    Each record carries the event's sim time, label, a short subject
    string and the deterministic span ids from {!Span}, so any record
    is causally attributable with [Trace_report]: one ordered stream
    holds a chain's narrative interleaved with the messages that
    carried it.  The recorder keeps a
    bounded ring of recent records, optionally streams every record to
    a JSONL file, and folds each one into rolling 64-bit fingerprints
    — overall and per label prefix ([masc.*], [bgp.*], [bgmp.*],
    [net.*], ...) — so two runs can be compared for behavioural
    identity without retaining either stream.

    Disabled-path cost is one flag test ({!is_enabled} guards the call
    sites, the same pattern as the profiler and the sampler), so the
    instrumented hot paths are unchanged when recording is off.

    The enabled flag is shared across domains (flip it from the main
    domain while no workers run); the instance records land in is
    domain-local.  A [Par] task wraps its work in {!capture}; the
    buffered shard is replayed through the submitting domain's
    recorder with {!merge} at the join point, in task order, with
    sequence numbers reassigned — so the merged stream, and therefore
    the fingerprint, is byte-identical at any [--jobs]. *)

type record = {
  seq : int;  (** 0-based position in the (merged) stream *)
  r_time : float;  (** sim time the event fired *)
  r_label : string;  (** event label, e.g. [net.deliver.bgp] *)
  r_subject : string;  (** short free-form subject, e.g. ["3->4"], ["masc-2"] *)
  r_detail : string;  (** narrative detail of a [note.*] record; [""] when absent *)
  r_trace_id : string option;
  r_span : int option;
  r_parent : int option;
}

val is_enabled : unit -> bool

val enable : ?ring:int -> ?sink:string -> unit -> unit
(** Start recording on this domain with fresh state: empty ring
    (capacity [ring], default 256), zeroed fingerprints, and — when
    [sink] is given — a JSONL file (truncated) receiving every record.
    @raise Invalid_argument on [ring <= 0]. *)

val disable : unit -> unit
(** Stop recording and close the sink.  Ring and fingerprints remain
    readable until the next {!enable}. *)

val record :
  time:float ->
  label:string ->
  ?subject:string ->
  ?detail:string ->
  ?span:Span.t ->
  ?trace_id:string ->
  unit ->
  unit
(** Append one record (no-op when disabled — but guard call sites with
    {!is_enabled} so argument construction is skipped too).  [?span]
    stamps the record with the span's trace id, span id and parent;
    [?trace_id] alone links a record to a chain without a span of its
    own (invariant violations do this).  [?span] wins when both are
    given. *)

val recordf :
  time:float ->
  label:string ->
  ?subject:string ->
  ?span:Span.t ->
  ?trace_id:string ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** {!record} with the detail built from a format string; when
    recording is off the arguments are consumed without any formatting
    work. *)

val recent : unit -> record list
(** The ring's contents, oldest first. *)

val records : unit -> int
(** Records accepted since {!enable}, independent of ring capacity. *)

(** {1 Fingerprints} *)

type fingerprint = {
  fpr_records : int;
  fpr_hash : int64;
  fpr_prefixes : (string * int * int64) list;
      (** per label-prefix (first dot-separated component):
          (prefix, records, hash), sorted by prefix *)
}

val fingerprint : unit -> fingerprint
(** Rolling FNV-1a/multiply-accumulate hash of every record so far.
    Covers each record's time, label, subject, detail (when non-empty)
    and causality fields — not its seq — and is order-sensitive. *)

val pp_fingerprint : Format.formatter -> fingerprint -> unit
(** Overall line plus one indented line per prefix, hashes as 16-digit
    hex. *)

(** {1 Shard capture and merge} *)

type shard
(** Records buffered by one parallel task, oldest first. *)

val capture : (unit -> 'a) -> 'a * shard
(** Run the thunk with records buffered into a fresh shard on this
    domain instead of the live recorder.  When disabled the thunk runs
    untouched and the shard is empty. *)

val merge : shard -> unit
(** Replay a captured shard through this domain's recorder — records
    are renumbered, hashed and sunk exactly as if recorded here, so
    merging shards in task order reproduces the sequential stream. *)

(** {1 JSONL} *)

val record_to_json : record -> string
(** One JSON object, no trailing newline; [detail], [trace_id], [span]
    and [parent] keys appear only when present. *)

val record_of_json : string -> record option

val load_jsonl : string -> record list * int
(** Records (file order) plus the count of malformed non-blank lines
    skipped. *)
