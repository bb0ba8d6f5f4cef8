(* Tests for mcast_obs: the metrics registry and its snapshots. *)

let check = Alcotest.check

(* A private registry per test keeps these independent of the
   process-wide instrumentation in the protocol stack. *)

let test_counter_basics () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "a.hits" in
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 3;
  check Alcotest.int "count" 5 (Metrics.count c);
  (* Find-or-create: the same name yields the same handle. *)
  Metrics.incr (Metrics.counter ~registry:r "a.hits");
  check Alcotest.int "shared handle" 6 (Metrics.count c)

let test_gauge_set_max () =
  let r = Metrics.create () in
  let g = Metrics.gauge ~registry:r "a.depth" in
  Metrics.set_max g 4.0;
  Metrics.set_max g 2.0;
  check (Alcotest.float 1e-9) "keeps high-water mark" 4.0 (Metrics.value g);
  Metrics.set g 1.0;
  check (Alcotest.float 1e-9) "set overrides" 1.0 (Metrics.value g)

let test_kind_mismatch_raises () =
  let r = Metrics.create () in
  ignore (Metrics.counter ~registry:r "x");
  check Alcotest.bool "gauge on counter name" true
    (try
       ignore (Metrics.gauge ~registry:r "x");
       false
     with Invalid_argument _ -> true);
  check Alcotest.bool "histogram on counter name" true
    (try
       ignore (Metrics.histogram ~registry:r "x");
       false
     with Invalid_argument _ -> true)

let test_histogram_bucketing () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r ~limits:[| 1.0; 2.0; 5.0 |] "a.wait" in
  (* Upper bounds are inclusive; above the last limit is overflow. *)
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 4.9; 5.0; 5.1; 100.0 ];
  match Metrics.find (Metrics.snapshot r) "a.wait" with
  | Some (Metrics.Histogram_v v) ->
      check Alcotest.int "count" 8 v.Metrics.hcount;
      check
        (Alcotest.list (Alcotest.pair (Alcotest.float 1e-9) Alcotest.int))
        "bucket fill"
        [ (1.0, 2); (2.0, 2); (5.0, 2); (infinity, 2) ]
        v.Metrics.hbuckets;
      check (Alcotest.float 1e-9) "min" 0.5 v.Metrics.hmin;
      check (Alcotest.float 1e-9) "max" 100.0 v.Metrics.hmax;
      check (Alcotest.float 1e-6) "sum" 120.0 v.Metrics.hsum
  | _ -> Alcotest.fail "histogram missing from snapshot"

let test_histogram_rejects_bad_limits () =
  let r = Metrics.create () in
  check Alcotest.bool "non-increasing limits" true
    (try
       ignore (Metrics.histogram ~registry:r ~limits:[| 2.0; 1.0 |] "bad");
       false
     with Invalid_argument _ -> true)

let test_percentile_of_view () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r ~limits:[| 1.0; 2.0; 5.0 |] "lat" in
  (* Four observations spread over three bins. *)
  List.iter (Metrics.observe h) [ 0.5; 1.5; 2.5; 4.5 ];
  let v =
    match Metrics.find (Metrics.snapshot r) "lat" with
    | Some (Metrics.Histogram_v v) -> v
    | _ -> Alcotest.fail "histogram missing"
  in
  let p = Metrics.percentile_of_view v in
  (* The extremes are exact: p0 pins to hmin, p100 to hmax. *)
  check (Alcotest.float 1e-9) "p0 = min" 0.5 (p 0.0);
  check (Alcotest.float 1e-9) "p100 = max" 4.5 (p 100.0);
  (* Interior estimates interpolate within their bucket and stay
     monotone and inside the observed range. *)
  let p50 = p 50.0 and p90 = p 90.0 in
  check Alcotest.bool "p50 within bucket range" true (p50 >= 1.0 && p50 <= 2.0);
  check Alcotest.bool "monotone" true (p50 <= p90);
  check Alcotest.bool "p90 clamped to max" true (p90 <= 4.5);
  (* Error cases: empty view, out-of-range p. *)
  let r2 = Metrics.create () in
  ignore (Metrics.histogram ~registry:r2 ~limits:[| 1.0 |] "empty");
  let empty =
    match Metrics.find (Metrics.snapshot r2) "empty" with
    | Some (Metrics.Histogram_v v) -> v
    | _ -> Alcotest.fail "histogram missing"
  in
  check Alcotest.bool "empty view rejected" true
    (try
       ignore (Metrics.percentile_of_view empty 50.0);
       false
     with Invalid_argument _ -> true);
  check Alcotest.bool "p out of range rejected" true
    (try
       ignore (p 101.0);
       false
     with Invalid_argument _ -> true)

let test_snapshot_sorted_and_reset () =
  let r = Metrics.create () in
  Metrics.incr (Metrics.counter ~registry:r "z.last");
  Metrics.incr (Metrics.counter ~registry:r "a.first");
  Metrics.set (Metrics.gauge ~registry:r "m.mid") 7.0;
  check (Alcotest.list Alcotest.string) "sorted by name"
    [ "a.first"; "m.mid"; "z.last" ]
    (List.map fst (Metrics.snapshot r));
  let c = Metrics.counter ~registry:r "a.first" in
  Metrics.reset r;
  check Alcotest.int "counter zeroed" 0 (Metrics.count c);
  (* Handles stay valid across reset. *)
  Metrics.incr c;
  check Alcotest.int "handle usable after reset" 1 (Metrics.count c)

let test_diff () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "c" in
  let g = Metrics.gauge ~registry:r "g" in
  let h = Metrics.histogram ~registry:r ~limits:[| 10.0 |] "h" in
  Metrics.incr c;
  Metrics.set g 5.0;
  Metrics.observe h 1.0;
  let before = Metrics.snapshot r in
  Metrics.add c 9;
  Metrics.set g 2.0;
  Metrics.observe h 3.0;
  Metrics.observe h 99.0;
  let d = Metrics.diff ~before ~after:(Metrics.snapshot r) in
  (match Metrics.find d "c" with
  | Some (Metrics.Counter_v n) -> check Alcotest.int "counter delta" 9 n
  | _ -> Alcotest.fail "counter missing");
  (match Metrics.find d "g" with
  | Some (Metrics.Gauge_v v) -> check (Alcotest.float 1e-9) "gauge takes after" 2.0 v
  | _ -> Alcotest.fail "gauge missing");
  match Metrics.find d "h" with
  | Some (Metrics.Histogram_v v) ->
      check Alcotest.int "histogram count delta" 2 v.Metrics.hcount;
      check (Alcotest.float 1e-6) "histogram sum delta" 102.0 v.Metrics.hsum;
      check
        (Alcotest.list (Alcotest.pair (Alcotest.float 1e-9) Alcotest.int))
        "bucket deltas"
        [ (10.0, 1); (infinity, 1) ]
        v.Metrics.hbuckets
  | _ -> Alcotest.fail "histogram missing"

let test_registry_determinism_across_runs () =
  (* Two identical seeded runs of the allocation simulator, each from a
     reset default registry, must leave byte-identical snapshots. *)
  let params =
    { Allocation_sim.default_params with Allocation_sim.horizon = Time.days 5.0; seed = 77 }
  in
  let run () =
    Metrics.reset Metrics.default;
    ignore (Allocation_sim.run params);
    Metrics.to_json (Metrics.snapshot Metrics.default)
  in
  let first = run () in
  let second = run () in
  check Alcotest.string "identical JSON snapshots" first second;
  check Alcotest.bool "run actually recorded something" true
    (match Metrics.find (Metrics.snapshot Metrics.default) "allocation.requests" with
    | Some (Metrics.Counter_v n) -> n > 0
    | _ -> false)

(* The recorder's enabled flag and per-domain instance are process
   state, like the profiler's: each test runs under a protect that
   disables it again. *)
let with_recorder ?ring ?sink f =
  Recorder.enable ?ring ?sink ();
  Fun.protect ~finally:Recorder.disable f

(* Narrative notes ride the recorder: its ring keeps the newest window,
   every record is counted, and [enable] starts afresh. *)
let test_trace_ring_eviction () =
  check Alcotest.bool "ring capacity must be positive" true
    (try
       Recorder.enable ~ring:0 ();
       false
     with Invalid_argument _ -> true);
  with_recorder ~ring:3 (fun () ->
      for i = 1 to 5 do
        Recorder.record ~time:(float_of_int i) ~label:"note.t" ~subject:"a"
          ~detail:(string_of_int i) ()
      done;
      check Alcotest.int "all five counted" 5 (Recorder.records ());
      check (Alcotest.list Alcotest.string) "newest three retained, oldest first"
        [ "3"; "4"; "5" ]
        (List.map (fun r -> r.Recorder.r_detail) (Recorder.recent ()));
      Recorder.enable ~ring:3 ();
      check Alcotest.int "cleared count" 0 (Recorder.records ());
      check Alcotest.int "cleared records" 0 (List.length (Recorder.recent ())))

let test_trace_jsonl_roundtrip () =
  let path = Filename.temp_file "trace" ".jsonl" in
  (* Quotes, backslashes, newlines and a control byte all survive. *)
  with_recorder ~sink:path (fun () ->
      Recorder.record ~time:1.5 ~label:"note.claim" ~subject:"node-1" ~detail:"a\"b\\c" ();
      Recorder.record ~time:2.25 ~label:"note.join" ~subject:"node-2" ~detail:"line1\nline2\tend" ();
      Recorder.record ~time:3.0 ~label:"note.esc" ~subject:"x" ~detail:"ctl\x01byte" ());
  let records, bad = Recorder.load_jsonl path in
  Sys.remove path;
  check Alcotest.int "three records, none malformed" 3 (List.length records + bad);
  let r1 = List.nth records 0 and r2 = List.nth records 1 and r3 = List.nth records 2 in
  check (Alcotest.float 1e-12) "time survives" 1.5 r1.Recorder.r_time;
  check Alcotest.string "subject survives" "node-1" r1.Recorder.r_subject;
  check Alcotest.string "quotes/backslash survive" "a\"b\\c" r1.Recorder.r_detail;
  check Alcotest.string "newline/tab survive" "line1\nline2\tend" r2.Recorder.r_detail;
  check Alcotest.string "control byte survives" "ctl\x01byte" r3.Recorder.r_detail;
  check Alcotest.bool "garbage rejected" true (Recorder.record_of_json "not json at all" = None)

let test_span_minting () =
  let m = Span.create_minter () in
  let a = Span.root ~minter:m "claim:1:224.0.0.0/24" in
  let b = Span.child ~minter:m a in
  let c = Span.child ~minter:m b in
  check Alcotest.int "root span id" 0 a.Span.span;
  check (Alcotest.option Alcotest.int) "root has no parent" None a.Span.parent;
  check Alcotest.int "child id increments" 1 b.Span.span;
  check (Alcotest.option Alcotest.int) "child parented on root" (Some 0) b.Span.parent;
  check (Alcotest.option Alcotest.int) "grandchild parent" (Some 1) c.Span.parent;
  check Alcotest.string "chain keeps its trace id" a.Span.trace_id c.Span.trace_id;
  (* Counters are per trace id, so chains stay dense. *)
  let other = Span.root ~minter:m "group:224.0.0.1" in
  check Alcotest.int "fresh counter per trace id" 0 other.Span.span;
  check Alcotest.string "kind before the colon" "claim" (Span.kind a);
  check Alcotest.string "claim id shape" "claim:7:224.0.0.0/24"
    (Span.claim_id ~owner:7 "224.0.0.0/24");
  check Alcotest.string "join id shape" "join:224.0.0.1:3"
    (Span.join_id ~group:"224.0.0.1" ~member:"3");
  Span.reset ~minter:m ();
  check Alcotest.int "reset restarts the counters" 0
    (Span.root ~minter:m "claim:1:224.0.0.0/24").Span.span

let test_trace_span_jsonl_roundtrip () =
  let path = Filename.temp_file "trace" ".jsonl" in
  let m = Span.create_minter () in
  let s0 = Span.root ~minter:m "claim:2:224.0.4.0/24" in
  let s1 = Span.child ~minter:m s0 in
  with_recorder ~sink:path (fun () ->
      Recorder.record ~time:1.0 ~label:"note.claim" ~subject:"masc-2" ~detail:"224.0.4.0/24 (new)"
        ~span:s0 ();
      Recorder.record ~time:2.0 ~label:"note.acquired" ~subject:"masc-2" ~detail:"224.0.4.0/24"
        ~span:s1 ();
      (* A bare [?trace_id] links without a span (how violations are recorded). *)
      Recorder.record ~time:3.0 ~label:"note.violation" ~subject:"invariant" ~detail:"overlap"
        ~trace_id:"claim:2:224.0.4.0/24" ();
      Recorder.record ~time:4.0 ~label:"note.plain" ~subject:"x" ~detail:"no chain" ());
  let records, _ = Recorder.load_jsonl path in
  Sys.remove path;
  check Alcotest.int "four records" 4 (List.length records);
  let e0 = List.nth records 0
  and e1 = List.nth records 1
  and e2 = List.nth records 2
  and e3 = List.nth records 3 in
  check Alcotest.string "detail survives" "224.0.4.0/24 (new)" e0.Recorder.r_detail;
  check (Alcotest.option Alcotest.string) "span stamps the trace id"
    (Some "claim:2:224.0.4.0/24") e0.Recorder.r_trace_id;
  check (Alcotest.option Alcotest.int) "root span id" (Some 0) e0.Recorder.r_span;
  check (Alcotest.option Alcotest.int) "root parent absent" None e0.Recorder.r_parent;
  check (Alcotest.option Alcotest.int) "child span id" (Some 1) e1.Recorder.r_span;
  check (Alcotest.option Alcotest.int) "child parent" (Some 0) e1.Recorder.r_parent;
  check (Alcotest.option Alcotest.string) "bare trace id survives"
    (Some "claim:2:224.0.4.0/24") e2.Recorder.r_trace_id;
  check (Alcotest.option Alcotest.int) "bare trace id has no span" None e2.Recorder.r_span;
  check (Alcotest.option Alcotest.string) "unchained record stays unchained" None
    e3.Recorder.r_trace_id;
  (* A record without a detail keeps the line format it had before the
     field existed. *)
  check Alcotest.string "detail-less line shape" {|{"seq": 0, "time": 1, "label": "ev", "subject": "s"}|}
    (Recorder.record_to_json
       { e3 with Recorder.seq = 0; r_time = 1.0; r_label = "ev"; r_subject = "s"; r_detail = "" })

(* The invariant monitor: named predicates, quiescent gating, counters. *)

let test_invariant_monitor () =
  let r = Metrics.create () in
  let inv = Invariant.create ~registry:r () in
  let transient = ref [] in
  Invariant.register inv ~name:"always" (fun () -> !transient);
  Invariant.register inv ~quiescent_only:true ~name:"settled" (fun () ->
      [ ("never settles", Some "chain-1") ]);
  check (Alcotest.list Alcotest.string) "names in registration order" [ "always"; "settled" ]
    (Invariant.names inv);
  check Alcotest.bool "duplicate name rejected" true
    (try
       Invariant.register inv ~name:"always" (fun () -> []);
       false
     with Invalid_argument _ -> true);
  (* Mid-run checks skip the quiescent-only predicate. *)
  check Alcotest.int "clean mid-run" 0 (List.length (Invariant.check ~quiescent:false inv));
  transient := [ ("boom", None) ];
  (match Invariant.check ~quiescent:false inv with
  | [ v ] ->
      check Alcotest.string "names the invariant" "always" v.Invariant.inv;
      check Alcotest.string "carries the detail" "boom" v.Invariant.detail;
      check (Alcotest.option Alcotest.string) "no chain attached" None v.Invariant.trace_id
  | vs -> Alcotest.fail (Printf.sprintf "expected one violation, got %d" (List.length vs)));
  (* A quiescent check runs everything. *)
  transient := [];
  (match Invariant.check inv with
  | [ v ] ->
      check Alcotest.string "settled predicate ran" "settled" v.Invariant.inv;
      check (Alcotest.option Alcotest.string) "chain attached" (Some "chain-1")
        v.Invariant.trace_id
  | vs -> Alcotest.fail (Printf.sprintf "expected one violation, got %d" (List.length vs)));
  let count name =
    match Metrics.find (Metrics.snapshot r) name with
    | Some (Metrics.Counter_v n) -> n
    | _ -> 0
  in
  check Alcotest.int "checks counted" 3 (count "invariant.checks");
  check Alcotest.int "violations counted" 2 (count "invariant.violations");
  check Alcotest.int "per-invariant counter" 1 (count "invariant.violations.settled");
  check Alcotest.int "per-invariant counter (other)" 1 (count "invariant.violations.always")

(* The hierarchical profiler.  Prof is process-global: every test
   leaves it disabled. *)

let with_prof f = Fun.protect ~finally:Prof.disable f

let test_prof_disabled_is_passthrough () =
  Prof.disable ();
  Prof.reset ();
  check Alcotest.int "value returned" 7 (Prof.span "x" (fun () -> 7));
  check Alcotest.int "nothing recorded" 0 (List.length (Prof.rows ()));
  check Alcotest.bool "reports disabled" false (Prof.is_enabled ())

let test_prof_tree () =
  with_prof @@ fun () ->
  Prof.enable ();
  for _ = 1 to 3 do
    Prof.span "outer" (fun () ->
        Prof.span "inner" (fun () -> Sys.opaque_identity (ignore (Array.make 64 0.0))))
  done;
  Prof.span "inner" (fun () -> ());
  let rows = Prof.rows () in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "pre-order paths, same name under different parents distinct"
    [ [ "outer" ]; [ "outer"; "inner" ]; [ "inner" ] ]
    (List.map (fun (r : Prof.row) -> r.Prof.path) rows);
  let outer = Option.get (Prof.find rows [ "outer" ]) in
  let inner = Option.get (Prof.find rows [ "outer"; "inner" ]) in
  check Alcotest.int "outer count" 3 outer.Prof.count;
  check Alcotest.int "inner count" 3 inner.Prof.count;
  check Alcotest.bool "child total within parent" true
    (inner.Prof.total_s <= outer.Prof.total_s +. 1e-9);
  check Alcotest.bool "self = total - children" true
    (abs_float (outer.Prof.self_s -. (outer.Prof.total_s -. inner.Prof.total_s)) < 1e-9);
  check Alcotest.bool "allocation charged to inner" true (inner.Prof.total_bytes > 0.0)

let test_prof_exception_closes_span () =
  with_prof @@ fun () ->
  Prof.enable ();
  (try Prof.span "boom" (fun () -> failwith "bang") with Failure _ -> ());
  Prof.span "after" (fun () -> ());
  let rows = Prof.rows () in
  check Alcotest.bool "failing span still charged" true
    (match Prof.find rows [ "boom" ] with Some r -> r.Prof.count = 1 | None -> false);
  (* The span closed on the way out: "after" is a sibling of "boom",
     not its child. *)
  check Alcotest.bool "current restored" true (Prof.find rows [ "after" ] <> None)

let test_prof_jsonl_roundtrip () =
  with_prof @@ fun () ->
  Prof.enable ();
  Prof.span "a" (fun () -> Prof.span "b" (fun () -> ()));
  let rows = Prof.rows () in
  let path = Filename.temp_file "prof" ".jsonl" in
  Prof.write_jsonl path;
  let loaded, _ = Prof.load_jsonl path in
  Sys.remove path;
  check Alcotest.int "row count survives" (List.length rows) (List.length loaded);
  List.iter2
    (fun (x : Prof.row) (y : Prof.row) ->
      check (Alcotest.list Alcotest.string) "path survives" x.Prof.path y.Prof.path;
      check Alcotest.int "count survives" x.Prof.count y.Prof.count;
      check (Alcotest.float 1e-12) "total_s survives" x.Prof.total_s y.Prof.total_s;
      check (Alcotest.float 1e-12) "self_bytes survives" x.Prof.self_bytes y.Prof.self_bytes)
    rows loaded;
  check Alcotest.bool "garbage line skipped" true (Prof.row_of_json "nope" = None);
  (* Folded stacks: one "a;b self-us" line per row with self time. *)
  List.iter
    (fun line ->
      check Alcotest.bool ("folded line has a space: " ^ line) true
        (String.contains line ' '))
    (String.split_on_char '\n'
       (String.trim (Prof.folded [ { (List.hd rows) with Prof.self_s = 1e-3 } ])))

let test_prof_enable_resets () =
  with_prof @@ fun () ->
  Prof.enable ();
  Prof.span "old" (fun () -> ());
  Prof.enable ();
  Prof.span "new" (fun () -> ());
  let rows = Prof.rows () in
  check Alcotest.bool "old tree gone" true (Prof.find rows [ "old" ] = None);
  check Alcotest.bool "new tree present" true (Prof.find rows [ "new" ] <> None)

(* Sim-time telemetry series. *)

let test_timeseries_memory () =
  let ts = Timeseries.create () in
  let v = ref 1.0 in
  Timeseries.register ts "x" (fun () -> !v);
  Timeseries.register ts "y" (fun () -> 10.0 *. !v);
  (* Re-registering replaces the reader but keeps the order. *)
  Timeseries.register ts "x" (fun () -> -. !v);
  check (Alcotest.list Alcotest.string) "sources in first-registration order" [ "x"; "y" ]
    (Timeseries.sources ts);
  Timeseries.sample ts ~time:1.0;
  v := 2.0;
  Timeseries.sample ts ~time:2.0;
  check Alcotest.int "two samples" 2 (Timeseries.samples ts);
  check
    (Alcotest.list
       (Alcotest.pair (Alcotest.float 1e-9)
          (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.float 1e-9)))))
    "rows oldest first"
    [ (1.0, [ ("x", -1.0); ("y", 10.0) ]); (2.0, [ ("x", -2.0); ("y", 20.0) ]) ]
    (Timeseries.rows ts)

let test_timeseries_ring () =
  let ts = Timeseries.create ~sink:(Timeseries.Ring 2) () in
  Timeseries.register ts "n" (fun () -> 0.0);
  for i = 1 to 5 do
    Timeseries.sample ts ~time:(float_of_int i)
  done;
  check Alcotest.int "all five counted" 5 (Timeseries.samples ts);
  check
    (Alcotest.list (Alcotest.float 1e-9))
    "newest two retained, oldest first" [ 4.0; 5.0 ]
    (List.map fst (Timeseries.rows ts))

let test_timeseries_jsonl_roundtrip () =
  let path = Filename.temp_file "series" ".jsonl" in
  let ts = Timeseries.create ~sink:(Timeseries.Jsonl path) () in
  let r = Metrics.create () in
  let g = Metrics.gauge ~registry:r "depth" in
  let c = Metrics.counter ~registry:r "hits" in
  Timeseries.register_gauge ts "depth" g;
  Timeseries.register_counter ts "hits" c;
  Metrics.set g 3.5;
  Metrics.incr c;
  Timeseries.sample ts ~time:10.0;
  Metrics.set g 1.25;
  Metrics.incr c;
  Timeseries.sample ts ~time:20.0;
  Timeseries.close ts;
  let points, _ = Timeseries.load_jsonl path in
  Sys.remove path;
  check Alcotest.int "four points" 4 (List.length points);
  let by_series = Timeseries.series_of points in
  check (Alcotest.list Alcotest.string) "series in first-appearance order" [ "depth"; "hits" ]
    (List.map fst by_series);
  check
    (Alcotest.array (Alcotest.pair (Alcotest.float 1e-9) (Alcotest.float 1e-9)))
    "gauge series" [| (10.0, 3.5); (20.0, 1.25) |]
    (List.assoc "depth" by_series);
  check
    (Alcotest.array (Alcotest.pair (Alcotest.float 1e-9) (Alcotest.float 1e-9)))
    "counter series" [| (10.0, 1.0); (20.0, 2.0) |]
    (List.assoc "hits" by_series)

(* The engine's sampler hook: event-driven cadence plus a final sample
   when a run stops, never its own events. *)

let test_engine_sampler_cadence () =
  let e = Engine.create () in
  check Alcotest.bool "non-positive cadence rejected" true
    (try
       Engine.set_sampler e ~every:0.0 (fun _ -> ());
       false
     with Invalid_argument _ -> true);
  let hits = ref [] in
  Engine.set_sampler e ~every:(Time.seconds 60.0) (fun t -> hits := t :: !hits);
  for i = 1 to 10 do
    ignore (Engine.schedule_at e (Time.seconds (float_of_int i *. 25.0)) (fun () -> ()))
  done;
  Engine.run ~until:(Time.seconds 1000.0) e;
  (* Events at 25 s intervals with a 60 s cadence: samples land on the
     first event at or past each multiple of 60, plus a final sample
     when the run stops (the queue drains at 250 s, before the
     horizon, and the clock stays at the last event). *)
  check
    (Alcotest.list (Alcotest.float 1e-9))
    "sampled on cadence, finished at the stop point"
    [ 75.0; 150.0; 225.0; 250.0 ]
    (List.rev !hits);
  (* A drained run samples at the last event time, not twice. *)
  let e2 = Engine.create () in
  let n = ref 0 in
  Engine.set_sampler e2 ~every:(Time.seconds 60.0) (fun _ -> incr n);
  ignore (Engine.schedule_at e2 (Time.seconds 10.0) (fun () -> ()));
  Engine.run e2;
  check Alcotest.int "final sample on drain" 1 !n;
  Engine.clear_sampler e2;
  ignore (Engine.schedule_at e2 (Time.seconds 500.0) (fun () -> ()));
  Engine.run e2;
  check Alcotest.int "cleared sampler is silent" 1 !n

let test_json_shape () =
  let r = Metrics.create () in
  Metrics.incr (Metrics.counter ~registry:r "only.counter");
  let json = Metrics.to_json (Metrics.snapshot r) in
  check Alcotest.string "document" "{\n  \"metrics\": [\n    {\"name\": \"only.counter\", \"kind\": \"counter\", \"value\": 1}\n  ]\n}\n" json

(* --- flight recorder -------------------------------------------------- *)

let test_recorder_disabled_is_noop () =
  check Alcotest.bool "disabled by default" false (Recorder.is_enabled ());
  Recorder.record ~time:1.0 ~label:"x" ();
  check Alcotest.bool "still disabled" false (Recorder.is_enabled ())

let test_recorder_ring_and_counts () =
  with_recorder ~ring:4 (fun () ->
      for i = 1 to 6 do
        Recorder.record ~time:(float_of_int i) ~label:"ev" ()
      done;
      check Alcotest.int "all records counted" 6 (Recorder.records ());
      let recent = Recorder.recent () in
      check Alcotest.int "ring keeps the newest window" 4 (List.length recent);
      check
        (Alcotest.list (Alcotest.float 1e-9))
        "oldest first" [ 3.0; 4.0; 5.0; 6.0 ]
        (List.map (fun (r : Recorder.record) -> r.Recorder.r_time) recent);
      check Alcotest.int "seq numbers are stream positions" 2
        (List.hd recent).Recorder.seq)

let test_recorder_fingerprint_deterministic_and_order_sensitive () =
  let fp_of labels =
    with_recorder (fun () ->
        List.iter (fun l -> Recorder.record ~time:1.0 ~label:l ()) labels;
        Recorder.fingerprint ())
  in
  let a = fp_of [ "m.one"; "m.two" ] and b = fp_of [ "m.one"; "m.two" ] in
  check Alcotest.int "record count" 2 a.Recorder.fpr_records;
  check Alcotest.bool "same stream, same hash" true (a.Recorder.fpr_hash = b.Recorder.fpr_hash);
  let c = fp_of [ "m.two"; "m.one" ] in
  check Alcotest.bool "order matters" false (a.Recorder.fpr_hash = c.Recorder.fpr_hash);
  check Alcotest.bool "subject matters" false
    (let d =
       with_recorder (fun () ->
           Recorder.record ~time:1.0 ~label:"m.one" ~subject:"s" ();
           Recorder.record ~time:1.0 ~label:"m.two" ();
           Recorder.fingerprint ())
     in
     a.Recorder.fpr_hash = d.Recorder.fpr_hash)

let test_recorder_prefix_buckets () =
  with_recorder (fun () ->
      Recorder.record ~time:1.0 ~label:"net.recv.bgp" ();
      Recorder.record ~time:2.0 ~label:"masc.sweep" ();
      Recorder.record ~time:3.0 ~label:"net.drop.bgp" ();
      Recorder.record ~time:4.0 ~label:"plain" ();
      let fp = Recorder.fingerprint () in
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
        "prefixes sorted, counted by first dot component"
        [ ("masc", 1); ("net", 2); ("plain", 1) ]
        (List.map (fun (p, n, _) -> (p, n)) fp.Recorder.fpr_prefixes))

let test_recorder_jsonl_roundtrip () =
  let span = { Span.trace_id = "claim:1:224.0.0.0/24"; span = 3; parent = Some 2 } in
  with_recorder (fun () ->
      Recorder.record ~time:12.5 ~label:"net.recv.bgp" ~subject:"0->1 \"q\"" ~span ();
      Recorder.record ~time:13.0 ~label:"ev" ();
      List.iter
        (fun r ->
          check Alcotest.bool "roundtrips" true
            (Recorder.record_of_json (Recorder.record_to_json r) = Some r))
        (Recorder.recent ()));
  check Alcotest.bool "garbage rejected" true (Recorder.record_of_json "{nope}" = None)

let test_recorder_sink_and_counted_loader () =
  let file = Filename.temp_file "recorder" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let span = { Span.trace_id = "group:224.0.128.1"; span = 0; parent = None } in
      with_recorder ~sink:file (fun () ->
          Recorder.record ~time:1.0 ~label:"net.recv.bgmp" ~subject:"2->3" ~span ();
          Recorder.record ~time:2.0 ~label:"ev" ());
      (* [disable] closed the sink; corrupt the file the way a killed
         run would: a truncated line plus a blank one. *)
      let oc = open_out_gen [ Open_append ] 0o644 file in
      output_string oc "{\"seq\": 9, \"time\": trunca\n\n";
      close_out oc;
      let recs, bad = Recorder.load_jsonl file in
      check Alcotest.int "good records load" 2 (List.length recs);
      check Alcotest.int "malformed non-blank lines counted" 1 bad;
      let r0 = List.hd recs in
      check Alcotest.string "span survives the file" "group:224.0.128.1"
        (Option.get r0.Recorder.r_trace_id))

let test_recorder_capture_merge_matches_sequential () =
  let sequential =
    with_recorder (fun () ->
        Recorder.record ~time:1.0 ~label:"a.x" ();
        Recorder.record ~time:2.0 ~label:"b.y" ~subject:"s" ();
        Recorder.record ~time:3.0 ~label:"a.z" ();
        Recorder.fingerprint ())
  in
  let merged =
    with_recorder (fun () ->
        Recorder.record ~time:1.0 ~label:"a.x" ();
        let (), shard =
          Recorder.capture (fun () ->
              Recorder.record ~time:2.0 ~label:"b.y" ~subject:"s" ();
              Recorder.record ~time:3.0 ~label:"a.z" ())
        in
        check Alcotest.int "buffered records bypass the live stream" 1 (Recorder.records ());
        Recorder.merge shard;
        check Alcotest.int "merge replays in order" 3 (Recorder.records ());
        check
          (Alcotest.list Alcotest.int)
          "seq renumbered across the merge" [ 0; 1; 2 ]
          (List.map (fun (r : Recorder.record) -> r.Recorder.seq) (Recorder.recent ()));
        Recorder.fingerprint ())
  in
  check Alcotest.bool "merged stream fingerprint equals sequential" true
    (sequential.Recorder.fpr_hash = merged.Recorder.fpr_hash
    && sequential.Recorder.fpr_prefixes = merged.Recorder.fpr_prefixes)

let test_span_with_minter_scoping () =
  (* A scoped minter starts fresh and restores the ambient one, so a
     parallel task's span ids never depend on what minted before. *)
  Span.reset ();
  let outer = Span.root "claim:9:10.0.0.0/8" in
  check Alcotest.int "ambient minter at 0" 0 outer.Span.span;
  let inner =
    Span.with_minter (Span.create_minter ()) (fun () -> Span.root "claim:9:10.0.0.0/8")
  in
  check Alcotest.int "fresh minter restarts the trace id" 0 inner.Span.span;
  let after = Span.root "claim:9:10.0.0.0/8" in
  check Alcotest.int "ambient minter restored and advanced" 1 after.Span.span

let test_counted_loaders_report_malformed () =
  (* Recorder, Prof and Timeseries share the skip-and-count contract the
     report subcommand surfaces as a warning. *)
  let file = Filename.temp_file "counted" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      with_recorder ~sink:file (fun () ->
          Recorder.record ~time:1.0 ~label:"note.t" ~subject:"a" ~detail:"ok" ());
      let oc = open_out_gen [ Open_append ] 0o644 file in
      output_string oc "not json\n\n{\"seq\": 2, \"time\": 2.0, \"label\"\n";
      close_out oc;
      let records, bad = Recorder.load_jsonl file in
      check Alcotest.int "recorder records" 1 (List.length records);
      check Alcotest.int "recorder bad lines" 2 bad;
      let pts, bad_ts =
        let oc = open_out file in
        output_string oc "{\"at\": 1.0, \"series\": \"s\", \"value\": 2.0}\ngarbage\n";
        close_out oc;
        Timeseries.load_jsonl file
      in
      check Alcotest.int "timeseries points" 1 (List.length pts);
      check Alcotest.int "timeseries bad lines" 1 bad_ts;
      let rows, bad_prof =
        let oc = open_out file in
        output_string oc "nonsense\n";
        close_out oc;
        Prof.load_jsonl file
      in
      check Alcotest.int "prof rows" 0 (List.length rows);
      check Alcotest.int "prof bad lines" 1 bad_prof)

(* The shared line codec: every value kind the artifacts use, strict
   rejection of truncated or trailing input, and accessor failures
   surfacing as [None] rather than exceptions. *)
let test_json_line_codec () =
  let open Json_line in
  let line =
    obj
      [
        ("s", quote "a\"b\\c\n\x01");
        ("n", float 0.1);
        ("l", list quote [ "x"; "y" ]);
        ("o", obj [ ("k", "-2.5e-3") ]);
        ("z", opt string_of_int None);
      ]
  in
  (match parse line with
  | Some v ->
      check Alcotest.string "string escapes round-trip" "a\"b\\c\n\x01" (str v "s");
      check (Alcotest.float 0.0) "float round-trips exactly" 0.1 (num v "n");
      check (Alcotest.list Alcotest.string) "string list" [ "x"; "y" ] (strs v "l");
      check (Alcotest.option (Alcotest.float 0.0)) "nested object" (Some (-2.5e-3))
        (Option.bind (field v "o") (fun o -> optional num o "k"));
      check (Alcotest.option Alcotest.int) "null reads as absent" None (optional int v "z")
  | None -> Alcotest.fail "codec output did not parse");
  List.iter
    (fun bad -> check Alcotest.bool ("rejects " ^ bad) true (parse bad = None))
    [ String.sub line 0 (String.length line - 1); line ^ " x"; {|{"a": tru}|}; {|{"a" 1}|}; "" ];
  check Alcotest.bool "missing field decodes to None" true
    (decode (fun o -> str o "absent") line = None)

let suite =
  [
    ("counter basics", `Quick, test_counter_basics);
    ("gauge set_max", `Quick, test_gauge_set_max);
    ("kind mismatch raises", `Quick, test_kind_mismatch_raises);
    ("histogram bucketing", `Quick, test_histogram_bucketing);
    ("histogram rejects bad limits", `Quick, test_histogram_rejects_bad_limits);
    ("percentile of view", `Quick, test_percentile_of_view);
    ("snapshot sorted, reset keeps handles", `Quick, test_snapshot_sorted_and_reset);
    ("diff", `Quick, test_diff);
    ("registry determinism across seeded runs", `Quick, test_registry_determinism_across_runs);
    ("trace ring eviction", `Quick, test_trace_ring_eviction);
    ("trace jsonl roundtrip", `Quick, test_trace_jsonl_roundtrip);
    ("span minting", `Quick, test_span_minting);
    ("trace span jsonl roundtrip", `Quick, test_trace_span_jsonl_roundtrip);
    ("invariant monitor", `Quick, test_invariant_monitor);
    ("prof disabled passthrough", `Quick, test_prof_disabled_is_passthrough);
    ("prof tree", `Quick, test_prof_tree);
    ("prof exception closes span", `Quick, test_prof_exception_closes_span);
    ("prof jsonl roundtrip", `Quick, test_prof_jsonl_roundtrip);
    ("prof enable resets", `Quick, test_prof_enable_resets);
    ("timeseries memory", `Quick, test_timeseries_memory);
    ("timeseries ring", `Quick, test_timeseries_ring);
    ("timeseries jsonl roundtrip", `Quick, test_timeseries_jsonl_roundtrip);
    ("engine sampler cadence", `Quick, test_engine_sampler_cadence);
    ("json shape", `Quick, test_json_shape);
    ("recorder disabled is no-op", `Quick, test_recorder_disabled_is_noop);
    ("recorder ring and counts", `Quick, test_recorder_ring_and_counts);
    ( "recorder fingerprint deterministic, order-sensitive",
      `Quick,
      test_recorder_fingerprint_deterministic_and_order_sensitive );
    ("recorder prefix buckets", `Quick, test_recorder_prefix_buckets);
    ("recorder jsonl roundtrip", `Quick, test_recorder_jsonl_roundtrip);
    ("recorder sink and counted loader", `Quick, test_recorder_sink_and_counted_loader);
    ( "recorder capture/merge matches sequential",
      `Quick,
      test_recorder_capture_merge_matches_sequential );
    ("span with_minter scoping", `Quick, test_span_with_minter_scoping);
    ("counted loaders report malformed lines", `Quick, test_counted_loaders_report_malformed);
    ("json line codec", `Quick, test_json_line_codec);
  ]
