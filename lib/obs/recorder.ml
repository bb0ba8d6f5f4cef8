(* Flight recorder: a compact capture of the event stream a run
   executed, cheap enough to leave on in CI.  One record per fired
   engine event, net-level deliver/drop records, and the protocols'
   narrative [note.*] records (with a formatted detail), each carrying
   the deterministic span ids from Span so any record is causally
   attributable.  The recorder keeps a bounded ring of recent records,
   optionally streams everything to a JSONL sink, and folds every
   record into rolling 64-bit fingerprints — overall and per label
   prefix — so two runs can be compared for identical behaviour
   without retaining either stream. *)

type record = {
  seq : int;  (** 0-based position in the merged stream *)
  r_time : float;
  r_label : string;
  r_subject : string;
  r_detail : string;
  r_trace_id : string option;
  r_span : int option;
  r_parent : int option;
}

(* --- fingerprint hashing --------------------------------------------- *)

(* FNV-1a over the record's semantic fields (time, label, subject,
   detail, causality) — NOT the seq, which merge renumbers.  An empty
   detail contributes nothing, so detail-less records hash as they did
   before the field existed.  Records are folded
   into the stream hash with a multiply-accumulate so both content and
   order matter. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* Weyl-sequence constant (2^64 / phi): the stream-fold multiplier. *)
let stream_prime = 0x9E3779B97F4A7C15L

let h_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let h_string h s =
  let h = ref h in
  String.iter (fun c -> h := h_byte !h (Char.code c)) s;
  (* terminator so ("ab","c") and ("a","bc") hash differently *)
  h_byte !h 0xff

let h_int64 h x =
  let h = ref h in
  for i = 0 to 7 do
    h := h_byte !h (Int64.to_int (Int64.shift_right_logical x (8 * i)))
  done;
  !h

let record_hash r =
  let h = h_int64 fnv_offset (Int64.bits_of_float r.r_time) in
  let h = h_string h r.r_label in
  let h = h_string h r.r_subject in
  let h = if r.r_detail = "" then h else h_string h r.r_detail in
  let h = h_string h (match r.r_trace_id with Some id -> id | None -> "") in
  let h = h_int64 h (Int64.of_int (match r.r_span with Some s -> s | None -> -1)) in
  h_int64 h (Int64.of_int (match r.r_parent with Some p -> p | None -> -1))

type fp = { mutable fp_hash : int64; mutable fp_count : int }

let fp_create () = { fp_hash = fnv_offset; fp_count = 0 }

let fp_add fp rhash =
  fp.fp_hash <- Int64.add (Int64.mul fp.fp_hash stream_prime) rhash;
  fp.fp_count <- fp.fp_count + 1

(* --- instances -------------------------------------------------------- *)

type t = {
  mutable count : int;  (* records accepted = next seq *)
  ring : record option array;
  mutable ring_next : int;
  mutable oc : out_channel option;
  overall : fp;
  prefixes : (string, fp) Hashtbl.t;
  prefix_memo : (string, string) Hashtbl.t;
  shard_mode : bool;
  mutable buffered : record list;  (* newest first; shard mode only *)
}

let create ?(ring = 256) ~shard_mode () =
  if ring <= 0 then invalid_arg "Recorder: ring capacity must be positive";
  {
    count = 0;
    ring = Array.make ring None;
    ring_next = 0;
    oc = None;
    overall = fp_create ();
    prefixes = Hashtbl.create 8;
    prefix_memo = Hashtbl.create 64;
    shard_mode;
    buffered = [];
  }

(* The enabled flag is shared across domains (flipped from the main
   domain while no workers run, like Prof); the instance records land
   in is domain-local.  The main domain records straight into the
   default instance; worker tasks record into a shard buffer installed
   by [capture] and replayed at the join point. *)

let on = ref false
let is_enabled () = !on

let default = create ~shard_mode:false ()
let current_key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> create ~shard_mode:true ())
let () = Domain.DLS.set current_key default
let current () = Domain.DLS.get current_key

let prefix_of t label =
  match Hashtbl.find_opt t.prefix_memo label with
  | Some p -> p
  | None ->
      let p = match String.index_opt label '.' with
        | Some i -> String.sub label 0 i
        | None -> label
      in
      Hashtbl.add t.prefix_memo label p;
      p

let bucket t label =
  let p = prefix_of t label in
  match Hashtbl.find_opt t.prefixes p with
  | Some fp -> fp
  | None ->
      let fp = fp_create () in
      Hashtbl.add t.prefixes p fp;
      fp

(* --- JSONL encoding --------------------------------------------------- *)

(* Detail and the causality keys are written only when present, so a
   record without them is byte-identical to one from before they
   existed. *)
let record_to_json r =
  let some k f = function Some v -> [ (k, f v) ] | None -> [] in
  Json_line.obj
    ([
       ("seq", string_of_int r.seq);
       ("time", Json_line.float r.r_time);
       ("label", Json_line.quote r.r_label);
       ("subject", Json_line.quote r.r_subject);
     ]
    @ (if r.r_detail = "" then [] else [ ("detail", Json_line.quote r.r_detail) ])
    @ some "trace_id" Json_line.quote r.r_trace_id
    @ some "span" string_of_int r.r_span
    @ some "parent" string_of_int r.r_parent)

let record_of_json =
  Json_line.decode (fun o ->
      let open Json_line in
      {
        seq = int o "seq";
        r_time = num o "time";
        r_label = str o "label";
        r_subject = str o "subject";
        r_detail = Option.value ~default:"" (optional str o "detail");
        r_trace_id = optional str o "trace_id";
        r_span = optional int o "span";
        r_parent = optional int o "parent";
      })

let load_jsonl = Json_line.load record_of_json

(* --- recording -------------------------------------------------------- *)

(* [add] assigns the instance's next seq — shard replay renumbers, so a
   merged stream is indistinguishable from a sequential one. *)
let add t ~time ~label ~subject ~detail ~trace_id ~span ~parent =
  let r =
    { seq = t.count; r_time = time; r_label = label; r_subject = subject; r_detail = detail;
      r_trace_id = trace_id; r_span = span; r_parent = parent }
  in
  t.count <- t.count + 1;
  if t.shard_mode then t.buffered <- r :: t.buffered
  else begin
    fp_add t.overall (record_hash r);
    fp_add (bucket t label) (record_hash r);
    t.ring.(t.ring_next) <- Some r;
    t.ring_next <- (t.ring_next + 1) mod Array.length t.ring;
    match t.oc with
    | Some oc ->
        output_string oc (record_to_json r);
        output_char oc '\n'
    | None -> ()
  end

let record ~time ~label ?(subject = "") ?(detail = "") ?span ?trace_id () =
  if !on then begin
    let trace_id, sp, parent =
      match span with
      | Some s -> (Some s.Span.trace_id, Some s.Span.span, s.Span.parent)
      | None -> (trace_id, None, None)
    in
    add (current ()) ~time ~label ~subject ~detail ~trace_id ~span:sp ~parent
  end

let recordf ~time ~label ?subject ?span ?trace_id fmt =
  if !on then
    Format.kasprintf (fun detail -> record ~time ~label ?subject ~detail ?span ?trace_id ()) fmt
  else Format.ikfprintf ignore Format.str_formatter fmt

(* --- lifecycle --------------------------------------------------------- *)

let reset_instance t ?sink () =
  t.count <- 0;
  Array.fill t.ring 0 (Array.length t.ring) None;
  t.ring_next <- 0;
  (match t.oc with Some oc -> close_out oc | None -> ());
  t.oc <- (match sink with Some path -> Some (open_out path) | None -> None);
  t.overall.fp_hash <- fnv_offset;
  t.overall.fp_count <- 0;
  Hashtbl.reset t.prefixes;
  t.buffered <- []

let enable ?ring ?sink () =
  (* A custom ring size needs a fresh instance; the common path reuses
     the domain's existing one so repeated enable/disable is cheap. *)
  (match ring with
  | Some n when n <> Array.length (current ()).ring ->
      Domain.DLS.set current_key (create ~ring:n ~shard_mode:false ())
  | _ -> ());
  reset_instance (current ()) ?sink ();
  on := true

let disable () =
  on := false;
  let t = current () in
  match t.oc with
  | Some oc ->
      t.oc <- None;
      close_out oc
  | None -> ()

let recent () =
  let t = current () in
  let cap = Array.length t.ring in
  let acc = ref [] in
  for i = cap - 1 downto 0 do
    match t.ring.((t.ring_next + i) mod cap) with Some r -> acc := r :: !acc | None -> ()
  done;
  !acc

let records () = (current ()).count

(* --- fingerprints ------------------------------------------------------ *)

type fingerprint = {
  fpr_records : int;
  fpr_hash : int64;
  fpr_prefixes : (string * int * int64) list;  (** (prefix, records, hash), sorted by prefix *)
}

let fingerprint () =
  let t = current () in
  let prefixes =
    Hashtbl.fold (fun p fp acc -> (p, fp.fp_count, fp.fp_hash) :: acc) t.prefixes []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  { fpr_records = t.overall.fp_count; fpr_hash = t.overall.fp_hash; fpr_prefixes = prefixes }

let pp_fingerprint ppf f =
  Format.fprintf ppf "fingerprint %016Lx over %d records@." f.fpr_hash f.fpr_records;
  List.iter
    (fun (p, count, hash) -> Format.fprintf ppf "  %-8s %016Lx over %d records@." p hash count)
    f.fpr_prefixes

(* --- shard capture and merge ------------------------------------------- *)

type shard = { srecs : record list  (** oldest first *) }

let capture f =
  if not !on then (f (), { srecs = [] })
  else begin
    let prev = current () in
    let buf = create ~ring:1 ~shard_mode:true () in
    Domain.DLS.set current_key buf;
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set current_key prev)
      (fun () ->
        let x = f () in
        (x, { srecs = List.rev buf.buffered }))
  end

let merge shard =
  if !on then
    let t = current () in
    List.iter
      (fun r ->
        add t ~time:r.r_time ~label:r.r_label ~subject:r.r_subject ~detail:r.r_detail
          ~trace_id:r.r_trace_id ~span:r.r_span ~parent:r.r_parent)
      shard.srecs
