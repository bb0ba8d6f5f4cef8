(* Tests for mcast_beacon: the delivery-matrix accumulator, the beacon
   fleet over a live fabric, and the campaign driver (determinism
   across seeds and job counts, loss accounting, churn). *)

let check = Alcotest.check

let h d i = Host_ref.make d i

(* --- Beacon_matrix ----------------------------------------------------- *)

let test_matrix_expect_deliver_cell () =
  let m = Beacon_matrix.create () in
  let src = h 0 1 and dst = h 2 0 in
  Beacon_matrix.expect m ~src ~dst;
  Beacon_matrix.expect m ~src ~dst;
  Beacon_matrix.deliver m ~src ~dst ~latency:0.02 ~hops:2 ~spf_dist:2;
  Beacon_matrix.deliver m ~src ~dst ~latency:0.04 ~hops:4 ~spf_dist:2;
  match Beacon_matrix.cells m with
  | [ c ] ->
      check Alcotest.int "sent" 2 c.Beacon_matrix.c_sent;
      check Alcotest.int "got" 2 c.Beacon_matrix.c_got;
      check (Alcotest.float 1e-9) "loss" 0.0 c.Beacon_matrix.c_loss;
      check (Alcotest.float 1e-9) "lat mean" 0.03 c.Beacon_matrix.c_lat_mean;
      check (Alcotest.float 1e-9) "lat max" 0.04 c.Beacon_matrix.c_lat_max;
      check (Alcotest.float 1e-9) "hops mean" 3.0 c.Beacon_matrix.c_hops_mean;
      check (Alcotest.float 1e-9) "stretch mean" 1.5 c.Beacon_matrix.c_stretch_mean;
      check (Alcotest.float 1e-9) "stretch max" 2.0 c.Beacon_matrix.c_stretch_max
  | cs -> Alcotest.fail (Printf.sprintf "expected one cell, got %d" (List.length cs))

let test_matrix_same_domain_stretch_is_one () =
  (* spf_dist 0 (same domain) must observe stretch 1.0, matching a
     zero-hop interior delivery, not a division by zero. *)
  let m = Beacon_matrix.create () in
  Beacon_matrix.expect m ~src:(h 3 0) ~dst:(h 3 1);
  Beacon_matrix.deliver m ~src:(h 3 0) ~dst:(h 3 1) ~latency:0.0 ~hops:0 ~spf_dist:0;
  match Beacon_matrix.cells m with
  | [ c ] ->
      check (Alcotest.float 1e-9) "stretch" 1.0 c.Beacon_matrix.c_stretch_mean
  | _ -> Alcotest.fail "expected one cell"

let test_matrix_summary_loss_unreachable_asymmetric () =
  let m = Beacon_matrix.create () in
  let a = h 0 0 and b = h 1 0 in
  (* a->b fully delivered, b->a fully lost: one unreachable pair, one
     asymmetric unordered pair, aggregate loss 1/2. *)
  Beacon_matrix.expect m ~src:a ~dst:b;
  Beacon_matrix.deliver m ~src:a ~dst:b ~latency:0.01 ~hops:1 ~spf_dist:1;
  Beacon_matrix.expect m ~src:b ~dst:a;
  let s = Beacon_matrix.summary (Beacon_matrix.cells m) in
  check Alcotest.int "pairs" 2 s.Beacon_matrix.s_pairs;
  check Alcotest.int "sent" 2 s.Beacon_matrix.s_sent;
  check Alcotest.int "got" 1 s.Beacon_matrix.s_got;
  check Alcotest.int "lost" 1 s.Beacon_matrix.s_lost;
  check (Alcotest.float 1e-9) "loss" 0.5 s.Beacon_matrix.s_loss;
  check Alcotest.int "unreachable" 1 s.Beacon_matrix.s_unreachable;
  check Alcotest.int "asymmetric" 1 s.Beacon_matrix.s_asymmetric;
  check Alcotest.bool "not complete" false s.Beacon_matrix.s_complete

let test_matrix_merge_matches_direct () =
  (* Folding two shard matrices must equal accumulating directly. *)
  let direct = Beacon_matrix.create () in
  let m1 = Beacon_matrix.create () and m2 = Beacon_matrix.create () in
  let feed m ~src ~dst lat hops =
    Beacon_matrix.expect m ~src ~dst;
    Beacon_matrix.deliver m ~src ~dst ~latency:lat ~hops ~spf_dist:2
  in
  feed direct ~src:(h 0 0) ~dst:(h 1 0) 0.01 2;
  feed direct ~src:(h 0 0) ~dst:(h 1 0) 0.03 4;
  feed direct ~src:(h 2 0) ~dst:(h 1 0) 0.05 2;
  feed m1 ~src:(h 0 0) ~dst:(h 1 0) 0.01 2;
  feed m2 ~src:(h 0 0) ~dst:(h 1 0) 0.03 4;
  feed m2 ~src:(h 2 0) ~dst:(h 1 0) 0.05 2;
  let merged = Beacon_matrix.create () in
  Beacon_matrix.merge_into ~into:merged m1;
  Beacon_matrix.merge_into ~into:merged m2;
  check Alcotest.bool "merged cells equal direct cells" true
    (Beacon_matrix.cells merged = Beacon_matrix.cells direct)

let test_matrix_worst_ordering () =
  let m = Beacon_matrix.create () in
  (* (0,1): loss 0; (2,3): loss 1; (4,5): loss 0.5. *)
  Beacon_matrix.expect m ~src:(h 0 0) ~dst:(h 1 0);
  Beacon_matrix.deliver m ~src:(h 0 0) ~dst:(h 1 0) ~latency:0.01 ~hops:1 ~spf_dist:1;
  Beacon_matrix.expect m ~src:(h 2 0) ~dst:(h 3 0);
  Beacon_matrix.expect m ~src:(h 4 0) ~dst:(h 5 0);
  Beacon_matrix.expect m ~src:(h 4 0) ~dst:(h 5 0);
  Beacon_matrix.deliver m ~src:(h 4 0) ~dst:(h 5 0) ~latency:0.01 ~hops:1 ~spf_dist:1;
  let worst = Beacon_matrix.worst (Beacon_matrix.cells m) ~n:2 in
  check Alcotest.int "two rows" 2 (List.length worst);
  let srcs = List.map (fun c -> c.Beacon_matrix.c_src.Host_ref.host_domain) worst in
  check (Alcotest.list Alcotest.int) "highest loss first" [ 2; 4 ] srcs

let test_matrix_jsonl_roundtrip () =
  let m = Beacon_matrix.create () in
  Beacon_matrix.expect m ~src:(h 0 1) ~dst:(h 2 0);
  Beacon_matrix.deliver m ~src:(h 0 1) ~dst:(h 2 0) ~latency:0.025 ~hops:3 ~spf_dist:2;
  Beacon_matrix.expect m ~src:(h 2 0) ~dst:(h 0 1);
  let cells = Beacon_matrix.cells m in
  let path = Filename.temp_file "matrix" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Beacon_matrix.write_jsonl ~meta:[ ("loss", 0.5); ("trials", 1.0) ] path cells;
      let meta, loaded, _ = Beacon_matrix.load_jsonl path in
      check Alcotest.int "cells survive" (List.length cells) (List.length loaded);
      check Alcotest.bool "summaries equal" true
        (Beacon_matrix.summary loaded = Beacon_matrix.summary cells);
      check (Alcotest.float 1e-9) "meta loss" 0.5 (List.assoc "loss" meta);
      check (Alcotest.float 1e-9) "meta trials" 1.0 (List.assoc "trials" meta))

(* --- Beacon fleet over a live fabric ----------------------------------- *)

let g = Ipv4.of_string "224.0.128.1"

let make_fabric topo ~root_name =
  let engine = Engine.create () in
  let net = Net.create ~engine () in
  let root = Option.get (Topo.find_by_name topo root_name) in
  let paths = Spf.bfs topo root in
  let route_to_root d _g =
    if d = root then Bgmp_fabric.Root_here
    else
      match Spf.next_hop_toward topo paths d with
      | Some nh -> Bgmp_fabric.Via nh
      | None -> Bgmp_fabric.Unroutable
  in
  let fabric = Bgmp_fabric.create ~engine ~topo ~net ~route_to_root () in
  (engine, fabric)

let dom topo name = Option.get (Topo.find_by_name topo name)

let fleet_config =
  { Beacon.period = 0.5; probes_per_source = 3; harvest_after = 0.5; stagger = 0.05 }

let test_beacon_fleet_complete_at_loss_zero () =
  let topo = Gen.figure1 () in
  let engine, fabric = make_fabric topo ~root_name:"B" in
  let beacon = Beacon.create ~engine ~topo ~fabric ~config:fleet_config () in
  let c = h (dom topo "C") 0 and f = h (dom topo "F") 0 and e = h (dom topo "E") 9 in
  Beacon.add_listener beacon ~group:g ~host:c;
  Beacon.add_listener beacon ~group:g ~host:f;
  Beacon.add_source beacon ~group:g ~host:e;
  Engine.run_until_idle engine;
  Beacon.start beacon ~at:(Engine.now engine);
  Engine.run_until_idle engine;
  check Alcotest.int "probes sent" 3 (Beacon.probes_sent beacon);
  check Alcotest.int "deliveries" 6 (Beacon.deliveries beacon);
  check Alcotest.int "nothing lost" 0 (Beacon.lost beacon);
  check Alcotest.int "nothing outstanding" 0 (Beacon.outstanding beacon);
  let s = Beacon_matrix.summary (Beacon_matrix.cells (Beacon.matrix beacon)) in
  check Alcotest.int "two pairs" 2 s.Beacon_matrix.s_pairs;
  check Alcotest.bool "complete" true s.Beacon_matrix.s_complete;
  check Alcotest.bool "latency observed" true (s.Beacon_matrix.s_lat_mean > 0.0)

let test_beacon_fleet_accounts_lost_probes () =
  (* Cut C's tree link (the root B peers with C directly in figure 1)
     after convergence: every probe copy bound for C is written off by
     the harvests; F keeps hearing probes. *)
  let topo = Gen.figure1 () in
  let engine, fabric = make_fabric topo ~root_name:"B" in
  let beacon = Beacon.create ~engine ~topo ~fabric ~config:fleet_config () in
  let cdom = dom topo "C" in
  Beacon.add_listener beacon ~group:g ~host:(h cdom 0);
  Beacon.add_listener beacon ~group:g ~host:(h (dom topo "F") 0);
  Beacon.add_source beacon ~group:g ~host:(h (dom topo "E") 9);
  Engine.run_until_idle engine;
  Bgmp_fabric.fail_link fabric cdom (dom topo "B");
  Beacon.start beacon ~at:(Engine.now engine);
  Engine.run_until_idle engine;
  check Alcotest.int "probes sent" 3 (Beacon.probes_sent beacon);
  check Alcotest.int "C's copies lost" 3 (Beacon.lost beacon);
  check Alcotest.int "F's copies arrived" 3 (Beacon.deliveries beacon);
  check Alcotest.int "accounting closed" 0 (Beacon.outstanding beacon);
  let s = Beacon_matrix.summary (Beacon_matrix.cells (Beacon.matrix beacon)) in
  check Alcotest.int "one unreachable pair" 1 s.Beacon_matrix.s_unreachable;
  check Alcotest.bool "not complete" false s.Beacon_matrix.s_complete

(* --- Beacon_campaign --------------------------------------------------- *)

let small p = { p with Beacon_campaign.domains = 8; per_domain = 1; probes = 2 }

let test_campaign_loss_zero_complete () =
  let r = Beacon_campaign.run (small Beacon_campaign.default_params) in
  (match r.Beacon_campaign.trials with
  | [ t ] ->
      check Alcotest.int "14 domains (2x3 transit-stub rounding)" 14
        t.Beacon_campaign.r_domains;
      check Alcotest.int "sources = fleets + session beacons" 28 t.Beacon_campaign.r_sources;
      check Alcotest.bool "data crossed domain borders" true
        (t.Beacon_campaign.r_data_msgs > 0);
      check Alcotest.int "no duplicates" 0 t.Beacon_campaign.r_duplicates;
      check Alcotest.int "no net drops" 0 t.Beacon_campaign.r_net_dropped;
      check Alcotest.bool "probing starts after convergence" true
        (t.Beacon_campaign.r_first_probe_s >= t.Beacon_campaign.r_converged_s)
  | ts -> Alcotest.fail (Printf.sprintf "expected one trial, got %d" (List.length ts)));
  check Alcotest.bool "matrix complete at loss zero" true
    r.Beacon_campaign.agg.Beacon_matrix.s_complete;
  check Alcotest.int "no unreachable pairs" 0
    r.Beacon_campaign.agg.Beacon_matrix.s_unreachable;
  check Alcotest.bool "stretch measured" true
    (r.Beacon_campaign.agg.Beacon_matrix.s_stretch_mean >= 1.0)

let lossy_params =
  { (small Beacon_campaign.default_params) with Beacon_campaign.trials = 3; loss = 0.05 }

let test_campaign_jobs_invariant () =
  (* The matrix is an aggregate over trials merged in task order: the
     worker count must be unobservable. *)
  let r1 = Beacon_campaign.run ~jobs:1 lossy_params in
  let r2 = Beacon_campaign.run ~jobs:2 lossy_params in
  check Alcotest.bool "cells identical at --jobs 1 and 2" true
    (r1.Beacon_campaign.cells = r2.Beacon_campaign.cells);
  check Alcotest.bool "summary identical" true
    (r1.Beacon_campaign.agg = r2.Beacon_campaign.agg);
  check Alcotest.bool "some probes actually dropped" true
    (r1.Beacon_campaign.agg.Beacon_matrix.s_lost > 0)

let test_campaign_seed_determinism () =
  let r1 = Beacon_campaign.run lossy_params in
  let r2 = Beacon_campaign.run lossy_params in
  check Alcotest.bool "same seed, same matrix" true
    (r1.Beacon_campaign.cells = r2.Beacon_campaign.cells);
  let r3 = Beacon_campaign.run { lossy_params with Beacon_campaign.seed = 4242 } in
  check Alcotest.bool "different seed, different loss pattern" false
    (r1.Beacon_campaign.cells = r3.Beacon_campaign.cells)

let test_campaign_churn_loses_probes () =
  (* Link churn mid-window at loss zero: the failed uplink is the only
     loss source, so lost > 0 comes from the outage alone. *)
  let p = { (small Beacon_campaign.default_params) with Beacon_campaign.churn = true } in
  let r = Beacon_campaign.run p in
  (match r.Beacon_campaign.trials with
  | [ t ] ->
      check Alcotest.bool "churn lost probes" true (t.Beacon_campaign.r_lost > 0);
      check Alcotest.int "no duplicates under churn" 0 t.Beacon_campaign.r_duplicates
  | _ -> Alcotest.fail "expected one trial");
  check Alcotest.bool "matrix not complete" false
    r.Beacon_campaign.agg.Beacon_matrix.s_complete

let test_campaign_rejects_bad_params () =
  let module C = Beacon_campaign in
  List.iter
    (fun (what, p) ->
      check Alcotest.bool (what ^ " rejected") true
        (try
           ignore (C.run p);
           false
         with Invalid_argument _ -> true))
    [
      ("zero trials", { C.default_params with C.trials = 0 });
      ("zero probes", { C.default_params with C.probes = 0 });
      ("zero probes under churn", { C.default_params with C.probes = 0; churn = true });
      ("negative probes", { C.default_params with C.probes = -1 });
      ("zero beacons per domain", { C.default_params with C.per_domain = 0 });
    ];
  let ts = Timeseries.create () in
  check Alcotest.bool "telemetry with multiple trials rejected" true
    (try
       ignore
         (C.run { C.default_params with C.trials = 2; telemetry = Some (ts, 0.1) });
       false
     with Invalid_argument _ -> true)

let test_campaign_telemetry_series () =
  let ts = Timeseries.create () in
  let p =
    { (small Beacon_campaign.default_params) with
      Beacon_campaign.telemetry = Some (ts, 0.25)
    }
  in
  let r = Beacon_campaign.run p in
  check Alcotest.bool "campaign ran" true
    (r.Beacon_campaign.agg.Beacon_matrix.s_sent > 0);
  check Alcotest.bool "sampler drove the series" true (Timeseries.samples ts > 0)

let suite =
  [
    ("matrix expect/deliver cell", `Quick, test_matrix_expect_deliver_cell);
    ("matrix same-domain stretch", `Quick, test_matrix_same_domain_stretch_is_one);
    ("matrix summary loss/unreachable/asymmetric", `Quick, test_matrix_summary_loss_unreachable_asymmetric);
    ("matrix merge matches direct", `Quick, test_matrix_merge_matches_direct);
    ("matrix worst ordering", `Quick, test_matrix_worst_ordering);
    ("matrix jsonl roundtrip", `Quick, test_matrix_jsonl_roundtrip);
    ("fleet complete at loss zero", `Quick, test_beacon_fleet_complete_at_loss_zero);
    ("fleet accounts lost probes", `Quick, test_beacon_fleet_accounts_lost_probes);
    ("campaign loss zero complete", `Quick, test_campaign_loss_zero_complete);
    ("campaign jobs invariant", `Quick, test_campaign_jobs_invariant);
    ("campaign seed determinism", `Quick, test_campaign_seed_determinism);
    ("campaign churn loses probes", `Quick, test_campaign_churn_loses_probes);
    ("campaign rejects bad params", `Quick, test_campaign_rejects_bad_params);
    ("campaign telemetry series", `Quick, test_campaign_telemetry_series);
  ]
