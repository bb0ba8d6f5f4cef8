(* Per-layer metrics: the spec the benchmark prints under [--trace 1],
   and the arithmetic that turns one rep's profile tree, metrics
   snapshot and GC deltas into values.

   Every layer is measured from outside the program.  Counts come from
   the {!Metrics} registry and {!Gc.quick_stat} deltas of an untraced
   rep; self time and bytes come from a traced rep, where {!Prof} is on
   and [Engine.step] opens one span per fired event, named by its
   label.  The benchmark wraps the workload call in its own span,
   {!root}, so the top-level program spans are the root's children. *)

(* Where a metric is read from.  [Counter] and [Computed] come from an
   untraced rep, [Self] (self seconds of a span name) and [Traced] from
   a traced rep, and [Pair] from a traced rep against the untraced rep
   run just before it. *)
type source = Counter | Computed | Self of string | Traced | Pair

type spec = {
  name : string;
  unit_ : string;
  better : string;  (* "lower" | "higher" *)
  source : source;
}

let root = "perfbench"

let m ?(better = "lower") source unit_ name = { name; unit_; better; source }
let count = m Counter "count"
let self_s span = m (Self span) "s" (span ^ ".self_s")

(* Grouped by the layer they describe, in the order of the layer table
   in perfbench/README.md. *)
let specs =
  [
    (* OCaml runtime *)
    m Computed "B/op" "gc.alloc_bytes_per_op";
    m Computed "B/op" "gc.promoted_bytes_per_op";
    m Computed "count" "gc.minor_collections";
    m Computed "count" "gc.major_collections";
    m Computed "s" "host.cpu_s";
    (* lib/sim *)
    m Computed "events/op" "sim.events_per_op";
    m Computed "ns" "sim.ns_per_event";
    count "sim.events_cancelled";
    count "sim.queue_depth_max";
    (* lib/net *)
    count "net.sent.masc";
    count "net.sent.bgp";
    count "net.sent.bgmp";
    count "net.dropped.masc";
    count "net.dropped.bgp";
    count "net.dropped.bgmp";
    self_s "net.deliver.masc";
    self_s "net.deliver.bgp";
    self_s "net.deliver.bgmp";
    (* lib/bgmp *)
    self_s "bgmp.data.distribute";
    m Traced "B/call" "bgmp.data.distribute.bytes_per_call";
    self_s "bgmp.data.forward";
    self_s "bgmp.join";
    count "bgmp.data_msgs_sent";
    count "bgmp.ctl_msgs_sent";
    count "bgmp.data.duplicates";
    (* lib/beacon *)
    self_s "beacon.harvest";
    m Traced "B/call" "beacon.harvest.bytes_per_call";
    self_s "beacon.probe";
    m ~better:"higher" Computed "ratio" "beacon.delivered_frac";
    (* lib/masc + lib/addr *)
    self_s "alloc.request";
    m Traced "B/call" "alloc.request.bytes_per_call";
    self_s "alloc.block_expiry";
    self_s "alloc.claim_expiry";
    self_s "alloc.sample";
    count "allocation.claims_made";
    count "allocation.failed_requests";
    self_s "masc.sweep";
    self_s "masc.renew";
    self_s "masc.claim_wait";
    self_s "masc.claim_announce";
    count "masc.claims";
    count "masc.collisions";
    (* lib/bgp *)
    self_s "bgp.decide";
    m Traced "count" "bgp.decide.calls";
    self_s "bgp.export";
    count "bgp.advertises_sent";
    (* lib/core *)
    self_s "core.rebuild";
    (* lib/topo *)
    self_s "fig4m.topology";
    m Traced "B" "fig4m.topology.bytes";
    self_s "spf.bfs";
    count "spf.inc_touched";
    m Computed "s" "spf.maintain_s";
    m Computed "B" "spf.maintain_bytes";
    m ~better:"higher" Computed "ratio" "spf.cache_hit_frac";
    (* lib/trees + arenas *)
    self_s "fig4m.trial";
    m Traced "B/event" "fig4m.trial.bytes_per_event";
    (* lib/explore *)
    m Computed "ratio" "explore.oracle_runs_per_schedule";
    m Computed "ratio" "explore.shrink_runs_per_cex";
    m Computed "ratio" "explore.violation_frac";
    (* lib/obs + the trace itself *)
    count "invariant.checks";
    m ~better:"higher" Traced "ratio" "trace.attributed_frac";
    m Traced "s" "trace.unattributed_s";
    m Pair "ratio" "trace.overhead_ratio";
  ]

(* ---------------- profile arithmetic ---------------------------------- *)

(* Only the rows' totals are read: self figures are derived here, so
   the arithmetic is the benchmark's own and tested as such. *)
let rec parent = function [] | [ _ ] -> [] | x :: rest -> x :: parent rest
let rec last = function [] -> "" | [ x ] -> x | _ :: rest -> last rest

type layer_time = { l_calls : int; l_self_s : float; l_self_bytes : float; l_total_bytes : float }

(* A span's self time is its duration minus what its children cover;
   the same name under several parents sums into one layer figure. *)
let by_name (rows : Prof.row list) =
  let kids = Hashtbl.create 64 in
  List.iter
    (fun (n : Prof.row) ->
      if List.length n.Prof.path > 1 then begin
        let s, b = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt kids (parent n.Prof.path)) in
        Hashtbl.replace kids (parent n.Prof.path) (s +. n.Prof.total_s, b +. n.Prof.total_bytes)
      end)
    rows;
  let acc = Hashtbl.create 64 in
  List.iter
    (fun (n : Prof.row) ->
      let ks, kb = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt kids n.Prof.path) in
      let name = last n.Prof.path in
      let prev =
        Option.value (Hashtbl.find_opt acc name)
          ~default:{ l_calls = 0; l_self_s = 0.0; l_self_bytes = 0.0; l_total_bytes = 0.0 }
      in
      Hashtbl.replace acc name
        {
          l_calls = prev.l_calls + n.Prof.count;
          l_self_s = prev.l_self_s +. (n.Prof.total_s -. ks);
          l_self_bytes = prev.l_self_bytes +. (n.Prof.total_bytes -. kb);
          l_total_bytes = prev.l_total_bytes +. n.Prof.total_bytes;
        })
    rows;
  acc

(* (attributed share, unattributed seconds) of the {!root} span: the
   part of it its direct children, the top-level program spans, do not
   cover is time no span inside the program names. *)
let attribution (rows : Prof.row list) =
  match List.find_opt (fun (n : Prof.row) -> n.Prof.path = [ root ]) rows with
  | None -> (0.0, 0.0)
  | Some r ->
      let covered =
        List.fold_left
          (fun acc (n : Prof.row) -> if parent n.Prof.path = [ root ] then acc +. n.Prof.total_s else acc)
          0.0 rows
      in
      (Pb_stats.ratio covered r.Prof.total_s, r.Prof.total_s -. covered)

(* ---------------- values of one rep ----------------------------------- *)

type gc_delta = { minor_words : float; promoted_words : float; major_words : float; minor_gcs : int; major_gcs : int }

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  {
    minor_words = b.Gc.minor_words -. a.Gc.minor_words;
    promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
    major_words = b.Gc.major_words -. a.Gc.major_words;
    minor_gcs = b.Gc.minor_collections - a.Gc.minor_collections;
    major_gcs = b.Gc.major_collections - a.Gc.major_collections;
  }

let word_bytes = float_of_int (Sys.word_size / 8)

let counter snap name =
  match Metrics.find snap name with
  | Some (Metrics.Counter_v n) -> float_of_int n
  | Some (Metrics.Gauge_v v) -> v
  | Some (Metrics.Histogram_v h) -> float_of_int h.Metrics.hcount
  | None -> 0.0

(* The values an untraced rep yields.  [extras] are the figures only a
   workload's result carries (delivered share, SPF maintenance time...). *)
let untraced ~ops ~wall_s ~cpu_s ~gc ~snap ~extras =
  let per_op x = Pb_stats.ratio x (float_of_int ops) in
  let events = counter snap "sim.events_fired" in
  let hits = counter snap "spf.cache_hits" and misses = counter snap "spf.cache_misses" in
  List.filter_map (fun s -> if s.source = Counter then Some (s.name, counter snap s.name) else None) specs
  @ [
      ("gc.alloc_bytes_per_op", per_op ((gc.minor_words +. gc.major_words -. gc.promoted_words) *. word_bytes));
      ("gc.promoted_bytes_per_op", per_op (gc.promoted_words *. word_bytes));
      ("gc.minor_collections", float_of_int gc.minor_gcs);
      ("gc.major_collections", float_of_int gc.major_gcs);
      ("host.cpu_s", cpu_s);
      ("sim.events_per_op", per_op events);
      ("sim.ns_per_event", Pb_stats.ratio (wall_s *. 1e9) events);
      ("spf.cache_hit_frac", Pb_stats.ratio hits (hits +. misses));
    ]
  @ extras

(* The values a traced rep yields, from its profile tree. *)
let traced ~ops rows =
  let layers = by_name rows in
  let get f name = match Hashtbl.find_opt layers name with Some l -> f l | None -> 0.0 in
  let per_call = get (fun l -> Pb_stats.ratio l.l_self_bytes (float_of_int l.l_calls)) in
  let frac, unattributed = attribution rows in
  List.filter_map
    (fun s -> match s.source with Self span -> Some (s.name, get (fun l -> l.l_self_s) span) | _ -> None)
    specs
  @ [
      ("bgmp.data.distribute.bytes_per_call", per_call "bgmp.data.distribute");
      ("beacon.harvest.bytes_per_call", per_call "beacon.harvest");
      ("alloc.request.bytes_per_call", per_call "alloc.request");
      ("bgp.decide.calls", get (fun l -> float_of_int l.l_calls) "bgp.decide");
      ("fig4m.topology.bytes", get (fun l -> l.l_total_bytes) "fig4m.topology");
      ( "fig4m.trial.bytes_per_event",
        get (fun l -> Pb_stats.ratio l.l_total_bytes (float_of_int ops)) "fig4m.trial" );
      ("trace.attributed_frac", frac);
      ("trace.unattributed_s", unattributed);
    ]
