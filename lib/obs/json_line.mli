(** The one JSON line codec behind every JSONL artifact the repo writes
    and reads back: flight recordings, profiles, telemetry series,
    metrics snapshots, delivery matrices and explore ledgers.

    Writers render one object per line with fixed key order and
    [", "] / [": "] separators, so artifacts diff cleanly and stay
    byte-identical run to run.  Readers parse a line into a {!t} and
    pick fields by name; a module's codec is then only its field list.
    No JSON library is in the dependency set, and none is needed for
    this subset (no booleans, [\u] escapes below [0x100] only). *)

(** {1 Writing} *)

val escape : string -> string
(** JSON string-body escaping (quotes, backslash, control bytes). *)

val quote : string -> string
(** A quoted, escaped JSON string. *)

val float : float -> string
(** [%.17g]: round-trips every finite float exactly. *)

val opt : ('a -> string) -> 'a option -> string
(** [None] renders as [null]. *)

val list : ('a -> string) -> 'a list -> string

val obj : (string * string) list -> string
(** [{"k": v, ...}] from keys and already-rendered values. *)

(** {1 Reading} *)

type t = Null | Num of float | Str of string | Arr of t list | Obj of (string * t) list

val parse : string -> t option
(** One complete JSON value; [None] on any syntax error or trailing
    garbage (a truncated line is malformed, never half-read). *)

exception Bad
(** Raised by the field accessors on a missing or mistyped field;
    {!decode} turns it into [None]. *)

val field : t -> string -> t option
(** An object's field; absent or [null] is [None]. *)

val num : t -> string -> float
val int : t -> string -> int
val str : t -> string -> string
val strs : t -> string -> string list
val arr : t -> string -> t list

val optional : (t -> string -> 'a) -> t -> string -> 'a option
(** Absent or [null] is [None]; present applies the accessor. *)

val decode : (t -> 'a) -> string -> 'a option
(** Parse the line and build a value with the accessors. *)

val load : (string -> 'a option) -> string -> 'a list * int
(** Every non-blank line of the file through the line decoder: values
    in file order plus the count of malformed lines skipped, so a
    truncated artifact degrades loudly rather than silently shrinking. *)
