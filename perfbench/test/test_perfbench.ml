(* The benchmark's own arithmetic and checkers, on small inputs. *)

let close = Alcotest.float 1e-9

(* ---------------- statistics ------------------------------------------- *)

(* Reference values from Python's statistics.median / quantiles(n=4). *)
let test_median () =
  Alcotest.check close "odd" 3.0 (Pb_stats.median [ 5.; 1.; 4.; 2.; 3. ]);
  Alcotest.check close "even" 5.5 (Pb_stats.median (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check close "single" 7.0 (Pb_stats.median [ 7. ])

let test_quartiles () =
  let check name expect xs =
    let q1, q2, q3 = Pb_stats.quartiles xs in
    let e1, e2, e3 = expect in
    Alcotest.check close (name ^ " q1") e1 q1;
    Alcotest.check close (name ^ " q2") e2 q2;
    Alcotest.check close (name ^ " q3") e3 q3
  in
  check "1..10" (2.75, 5.5, 8.25) (List.init 10 (fun i -> float_of_int (i + 1)));
  check "two points" (0.5, 2.0, 3.5) [ 3.; 1. ];
  check "five" (1.5, 3.0, 4.5) [ 5.; 1.; 4.; 2.; 3. ];
  check "six" (0.85, 1.05, 1.225) [ 0.9; 1.1; 1.0; 1.3; 0.7; 1.2 ];
  Alcotest.check close "spread" ((8.25 -. 2.75) /. 5.5) (Pb_stats.spread (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check close "spread of one" 0.0 (Pb_stats.spread [ 4. ])

let test_rates () =
  Alcotest.check close "ops_per_s" 500.0 (Pb_stats.ops_per_s ~ops:1000 ~wall_s:2.0);
  Alcotest.check close "ops_per_s of no time" 0.0 (Pb_stats.ops_per_s ~ops:1000 ~wall_s:0.0);
  (* setup_s is the median of the one-unit reps' wall times: one slow
     rep does not move it *)
  Alcotest.check close "setup_s" 0.305 (Pb_stats.median [ 0.31; 0.29; 0.3; 9.0; 0.28; 0.33 ]);
  Alcotest.check close "ratio by zero" 0.0 (Pb_stats.ratio 3.0 0.0)

let test_host_correction () =
  let probes = [ (0.0, 0.05); (1.0, 0.07); (2.5, 0.09); (4.0, 0.11); (6.0, 0.2) ] in
  (* the last probe before the rep, the ones inside it, the first after *)
  Alcotest.check close "bracket of a long rep" 0.09 (Pb_stats.bracket_mean probes ~t0:1.2 ~t1:3.9);
  Alcotest.check close "bracket of a short rep" 0.08 (Pb_stats.bracket_mean probes ~t0:1.2 ~t1:1.3);
  Alcotest.check close "probe at the rep's edges" 0.08 (Pb_stats.bracket_mean probes ~t0:1.0 ~t1:2.5);
  Alcotest.check close "no probe after" 0.2 (Pb_stats.bracket_mean probes ~t0:7.0 ~t1:8.0);
  (* pauses of the child count only where they fall in the timed call *)
  Alcotest.check close "pauses in the window" 1.5
    (Pb_stats.overlap [ (0.0, 1.0); (2.0, 3.0); (5.0, 6.0) ] ~t0:0.5 ~t1:5.0);
  Alcotest.check close "no pauses" 0.0 (Pb_stats.overlap [] ~t0:0.0 ~t1:9.0);
  (* a host twice as slow as the reference halves the wall time *)
  Alcotest.check close "corrected" 1.5 (Pb_stats.host_corrected ~reference:0.05 ~probe:0.1 3.0);
  Alcotest.check close "ops_per_s at reference speed" 1000.0
    (Pb_stats.ops_per_s ~ops:1500 ~wall_s:(Pb_stats.host_corrected ~reference:0.05 ~probe:0.1 3.0))

(* ---------------- profile arithmetic ----------------------------------- *)

(* Self figures are left 0: the benchmark derives them from totals. *)
let node path count total_s total_bytes = { Prof.path; count; total_s; self_s = 0.0; total_bytes; self_bytes = 0.0 }
let r = Pb_layers.root

(* root 10 s: a 4 s (holding b 1 s) and c 3 s (holding a 2 s). *)
let tree =
  [
    node [ r ] 1 10.0 1000.0;
    node [ r; "a" ] 5 4.0 400.0;
    node [ r; "a"; "b" ] 2 1.0 100.0;
    node [ r; "c" ] 1 3.0 300.0;
    node [ r; "c"; "a" ] 3 2.0 50.0;
  ]

let test_self_time () =
  let layers = Pb_layers.by_name tree in
  let get n = Hashtbl.find layers n in
  Alcotest.check close "a: (4 - 1) + 2" 5.0 (get "a").Pb_layers.l_self_s;
  Alcotest.check close "a bytes: (400 - 100) + 50" 350.0 (get "a").Pb_layers.l_self_bytes;
  Alcotest.(check int) "a calls" 8 (get "a").Pb_layers.l_calls;
  Alcotest.check close "c: 3 - 2" 1.0 (get "c").Pb_layers.l_self_s;
  Alcotest.check close "b leaf" 1.0 (get "b").Pb_layers.l_self_s;
  Alcotest.check close "root: 10 - 4 - 3" 3.0 (get r).Pb_layers.l_self_s

let test_attribution () =
  let frac, unattributed = Pb_layers.attribution tree in
  Alcotest.check close "attributed_frac" 0.7 frac;
  Alcotest.check close "unattributed_s" 3.0 unattributed;
  let v = Pb_layers.traced ~ops:4 tree in
  Alcotest.check close "trace.attributed_frac" 0.7 (List.assoc "trace.attributed_frac" v);
  Alcotest.check close "absent span" 0.0 (List.assoc "bgp.decide.self_s" v)

(* Our span-minus-children self time agrees with the profiler's own. *)
let test_self_matches_prof () =
  let spin n = ignore (Sys.opaque_identity (List.init n (fun i -> i * i))) in
  Prof.enable ();
  Prof.span r (fun () ->
      Prof.span "outer" (fun () ->
          spin 100_000;
          Prof.span "inner" (fun () -> spin 50_000));
      Prof.span "inner" (fun () -> spin 20_000));
  Prof.disable ();
  let rows = Prof.rows () in
  let layers = Pb_layers.by_name rows in
  List.iter
    (fun name ->
      let prof_self =
        List.fold_left
          (fun acc (row : Prof.row) -> if Pb_layers.last row.Prof.path = name then acc +. row.Prof.self_s else acc)
          0.0 rows
      in
      Alcotest.check (Alcotest.float 1e-6) name prof_self (Hashtbl.find layers name).Pb_layers.l_self_s)
    [ r; "outer"; "inner" ]

(* ---------------- checkers --------------------------------------------- *)

let fig2_params =
  {
    Allocation_sim.default_params with
    Allocation_sim.tops = 4;
    children_per_top = 4;
    horizon = Time.days 60.0;
    seed = 7;
  }

let fig2_result = lazy (Allocation_sim.run fig2_params)

let test_fig2_check () =
  let res = Lazy.force fig2_result in
  Alcotest.(check (list string)) "clean run" [] (Pb_check.fig2 fig2_params res);
  Alcotest.(check string) "digest repeats" (Pb_check.fig2_digest res)
    (Pb_check.fig2_digest (Allocation_sim.run fig2_params));
  let steal_from = function h :: _ -> h | [] -> Alcotest.fail "top 0 holds nothing" in
  let tops = Array.copy res.Allocation_sim.final_tops in
  tops.(1) <- steal_from tops.(0) :: tops.(1);
  let overlapping = { res with Allocation_sim.final_tops = tops } in
  Alcotest.(check bool) "overlapping tops rejected" true (Pb_check.fig2 fig2_params overlapping <> []);
  let kids = Array.copy res.Allocation_sim.final_children in
  let held = List.find (fun c -> c <> []) (Array.to_list (Array.sub kids 0 4)) in
  kids.(3) <- List.hd held :: kids.(3);
  kids.(2) <- List.hd held :: kids.(2);
  let overlapping = { res with Allocation_sim.final_children = kids } in
  Alcotest.(check bool) "overlapping siblings rejected" true (Pb_check.fig2 fig2_params overlapping <> [])

let test_fig2_steady () =
  let res = Lazy.force fig2_result in
  let long = { fig2_params with Allocation_sim.horizon = Time.days 450.0 } in
  let sample day grib_max outstanding_blocks =
    { (res.Allocation_sim.samples.(0)) with Allocation_sim.day; grib_max; outstanding_blocks }
  in
  let with_samples ss = { res with Allocation_sim.samples = Array.of_list ss } in
  (* day 399 is before steady state; a 200 spike averages out *)
  let ok = with_samples [ sample 399.0 500 0; sample 400.0 150 37_400; sample 420.0 200 37_500; sample 450.0 170 37_600 ] in
  Alcotest.(check (list string)) "steady state within bounds" [] (Pb_check.fig2 long ok);
  let big_grib = with_samples [ sample 400.0 180 37_500; sample 401.0 183 37_500 ] in
  Alcotest.(check bool) "mean G-RIB max over 180 rejected" true (Pb_check.fig2 long big_grib <> []);
  let few_blocks = with_samples [ sample 400.0 150 30_000 ] in
  Alcotest.(check bool) "outstanding blocks off target rejected" true (Pb_check.fig2 long few_blocks <> [])

let test_beacon_check () =
  let p = { Beacon_campaign.default_params with Beacon_campaign.probes = 2; loss = 0.05; churn = true; seed = 7 } in
  let res = Beacon_campaign.run ~jobs:1 p in
  Alcotest.(check (list string)) "clean run" [] (Pb_check.beacon p res);
  let agg = res.Beacon_campaign.agg in
  let unbalanced =
    { res with Beacon_campaign.agg = { agg with Beacon_matrix.s_lost = agg.Beacon_matrix.s_lost + 1 } }
  in
  Alcotest.(check bool) "got + lost <> sent rejected" true (Pb_check.beacon p unbalanced <> []);
  let tamper f = { res with Beacon_campaign.trials = List.map f res.Beacon_campaign.trials } in
  let dup = tamper (fun t -> { t with Beacon_campaign.r_duplicates = 1 }) in
  Alcotest.(check bool) "duplicates rejected" true (Pb_check.beacon p dup <> []);
  let silent = tamper (fun t -> { t with Beacon_campaign.r_data_msgs = 0 }) in
  Alcotest.(check bool) "no data messages rejected" true (Pb_check.beacon p silent <> [])

let test_fig4m_check () =
  let p =
    {
      Modern_experiment.default_params with
      Modern_experiment.domains = 300;
      groups = 50;
      events = 1000;
      link_every = 100;
      trials = 1;
      jobs = 1;
      check_invariants = true;
      seed = 7;
    }
  in
  let res = Modern_experiment.run p in
  Alcotest.(check (list string)) "clean run" [] (Pb_check.fig4m p res);
  let unbalanced = { res with Modern_experiment.leaves = res.Modern_experiment.leaves + 1 } in
  Alcotest.(check bool) "members <> joins - leaves rejected" true (Pb_check.fig4m p unbalanced <> []);
  let violated = { res with Modern_experiment.invariant_violations = 2 } in
  Alcotest.(check bool) "invariant violations rejected" true (Pb_check.fig4m p violated <> [])

let test_explore_check () =
  let ledger = "perfbench_test_ledger.jsonl" in
  let c = { Explore.default_config with Explore.budget = 4; jobs = Some 1; ledger; seed = 7 } in
  let s = Explore.run_campaign c in
  let loaded = Ledger.load ledger in
  Sys.remove ledger;
  Alcotest.(check (list string)) "clean run" [] (Pb_check.explore c s ~ledger:loaded);
  let miscounted = { s with Explore.passed = s.Explore.passed + 1 } in
  Alcotest.(check bool) "verdicts <> budget rejected" true (Pb_check.explore c miscounted ~ledger:loaded <> []);
  let short = (List.tl (fst loaded), snd loaded) in
  Alcotest.(check bool) "missing ledger entry rejected" true (Pb_check.explore c s ~ledger:short <> []);
  Alcotest.(check bool) "malformed ledger rejected" true (Pb_check.explore c s ~ledger:(fst loaded, 1) <> [])

let test_disjoint () =
  let p = Prefix.of_string in
  Alcotest.(check bool) "disjoint" true (Pb_check.overlapping [ p "224.0.2.0/24"; p "224.0.0.0/23"; p "224.0.3.0/24" ] = None);
  Alcotest.(check bool) "nested" true (Pb_check.overlapping [ p "224.0.0.0/16"; p "225.0.0.0/24"; p "224.0.9.0/24" ] <> None);
  Alcotest.(check bool) "equal" true (Pb_check.overlapping [ p "224.1.0.0/24"; p "224.1.0.0/24" ] <> None)

(* ---------------- the spec against BENCHMARK.json ---------------------- *)

let test_spec_matches_benchmark_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let from = Str.search_forward (Str.regexp_string "\"per_layer\"") text 0 in
  let entry = Str.regexp "\"name\": \"\\([^\"]+\\)\",[ \n]*\"unit\": \"\\([^\"]+\\)\",[ \n]*\"better\": \"\\([a-z]+\\)\"" in
  let rec collect pos acc =
    match Str.search_forward entry text pos with
    | i -> collect (i + 1) ((Str.matched_group 1 text, Str.matched_group 2 text, Str.matched_group 3 text) :: acc)
    | exception Not_found -> List.rev acc
  in
  let expected = List.map (fun s -> (s.Pb_layers.name, s.Pb_layers.unit_, s.Pb_layers.better)) Pb_layers.specs in
  Alcotest.(check (list (triple string string string))) "per_layer" expected (collect from [])

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "ops_per_s and setup_s" `Quick test_rates;
          Alcotest.test_case "host-speed correction" `Quick test_host_correction;
        ] );
      ( "layers",
        [
          Alcotest.test_case "self time is span minus children" `Quick test_self_time;
          Alcotest.test_case "attributed_frac" `Quick test_attribution;
          Alcotest.test_case "self time matches the profiler" `Quick test_self_matches_prof;
          Alcotest.test_case "spec matches BENCHMARK.json" `Quick test_spec_matches_benchmark_json;
        ] );
      ( "checks",
        [
          Alcotest.test_case "prefix overlap" `Quick test_disjoint;
          Alcotest.test_case "fig2 rejects overlapping holdings" `Quick test_fig2_check;
          Alcotest.test_case "fig2 steady-state bounds" `Quick test_fig2_steady;
          Alcotest.test_case "beacon rejects broken accounting" `Quick test_beacon_check;
          Alcotest.test_case "fig4m rejects unbalanced members" `Quick test_fig4m_check;
          Alcotest.test_case "explore rejects a short ledger" `Quick test_explore_check;
        ] );
    ]
