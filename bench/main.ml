(* CI canaries and the perf-regression gate.

   `bench/main.exe --smoke [--profile] [--write-budget]`, run from the
   repo root, is all this executable does:

   - the Figure-1 transport canary: the full MASC/BGP/BGMP stack must
     deliver to all four members through the Net substrate within a
     generous wall-clock budget;
   - the perf gate: scaled fig2/fig4/fig4-modern medians, wall-clock
     and allocated bytes, against bench/perf_budget.json;
   - the beacon canary: a lossless campaign with a complete matrix that
     is byte-identical at --jobs 1/4/8;
   - the fingerprint canary: recorder fingerprints of scaled
     fig2/fig4/beacon runs byte-identical at --jobs 1/4/8;
   - the explorer canary: a seeded campaign must find, shrink and
     reproduce the top-level partition collision with a jobs-invariant
     ledger.

   Any failed assertion prints `bench smoke: <reason>` and exits 1.
   Performance is measured by the benchmark of record,
   `python3 perfbench/run.py` (see BENCHMARK.json); without `--smoke`
   this executable prints a pointer to it and exits 2. *)

let fail fmt =
  Format.kasprintf
    (fun m ->
      Format.eprintf "bench smoke: %s@." m;
      exit 1)
    fmt

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec matches i j = j = n || (hay.[i + j] = needle.[j] && matches i (j + 1)) in
  let rec at i = i + n <= h && (matches i 0 || at (i + 1)) in
  at 0

(* The CI-sized runs the canaries and the gate share: a scaled fig2, a
   small fig4 and a lossless 4-trial beacon campaign, each exercising
   the real experiment code end to end. *)
let fig2_scaled =
  {
    Allocation_sim.default_params with
    Allocation_sim.tops = 10;
    children_per_top = 10;
    horizon = Time.days 120.0;
  }

let fig4_small = { Tree_experiment.default_params with Tree_experiment.nodes = 1000; trials = 5 }

let beacon_small = { Beacon_campaign.default_params with Beacon_campaign.trials = 4 }

(* ---- perf-regression gate ---------------------------------------- *)

let warmup_runs = 1
let repeat_runs = 3

(* Median with the spread of the repeats around it. *)
type mstat = { med : float; mn : float; mx : float; spread_pct : float }

let mstat_of samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  let med = if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2)) in
  let mn = a.(0) and mx = a.(n - 1) in
  let spread_pct = if med > 0.0 then (mx -. mn) /. med *. 100.0 else 0.0 in
  { med; mn; mx; spread_pct }

let budget_file = "bench/perf_budget.json"

(* Budget headroom over a healthy median: generous enough that CI-host
   jitter never trips the gate, tight enough that a 2x slowdown does. *)
let budget_headroom = 2.5

let smoke_figures =
  [
    ("fig2-smoke", fun () -> ignore (Allocation_sim.run fig2_scaled));
    ("fig4-smoke", fun () -> ignore (Tree_experiment.run fig4_small));
    ( "fig4-modern-smoke",
      fun () ->
        ignore
          (Modern_experiment.run { Modern_experiment.default_params with Modern_experiment.jobs = 1 })
    );
  ]

(* Each budget line carries a wall-clock budget and an allocated-bytes
   budget; both are gated.  The bytes column catches representation
   regressions (an arena quietly reverting to per-entry boxing) that
   hide inside wall-clock jitter on a busy CI host.  [None] when the
   file is absent; a file that does not parse fails the smoke rather
   than silently disabling the gate. *)
let load_budgets () =
  if not (Sys.file_exists budget_file) then None
  else
    (* The file is pretty-printed over several lines; the codec reads one. *)
    let text = String.map (function '\n' -> ' ' | c -> c) (read_file budget_file) in
    let budget b =
      ( Json_line.str b "name",
        (Json_line.num b "budget_s", Json_line.optional Json_line.num b "budget_bytes") )
    in
    match Json_line.decode (fun j -> List.map budget (Json_line.arr j "budgets")) text with
    | Some budgets -> Some budgets
    | None -> fail "%s does not parse (rewrite it with --write-budget)" budget_file

let write_budgets measured =
  let row (name, med, bytes) =
    "    "
    ^ Json_line.obj
        [
          ("name", Json_line.quote name);
          ("budget_s", Printf.sprintf "%.3f" (med *. budget_headroom));
          ("measured_s", Printf.sprintf "%.3f" med);
          ("budget_bytes", Printf.sprintf "%.0f" (bytes *. budget_headroom));
          ("measured_bytes", Printf.sprintf "%.0f" bytes);
        ]
  in
  let oc = open_out budget_file in
  Printf.fprintf oc "{\n  \"headroom\": %.1f,\n  \"budgets\": [\n%s\n  ]\n}\n" budget_headroom
    (String.concat ",\n" (List.map row measured));
  close_out oc;
  Format.printf "bench smoke: wrote %s (budgets = %.1fx measured medians)@." budget_file
    budget_headroom

(* Gate the scaled figure medians, wall-clock AND allocated bytes,
   against the checked-in budgets.  A missing budget file (e.g. running
   outside the repo root) warns and skips rather than failing: the gate
   is only meaningful where bench/perf_budget.json is visible. *)
let perf_gate () =
  let write_budget = Array.exists (( = ) "--write-budget") Sys.argv in
  let measured =
    List.map
      (fun (name, f) ->
        for _ = 1 to warmup_runs do
          f ()
        done;
        let runs =
          List.init repeat_runs (fun _ ->
              let b0 = Gc.allocated_bytes () in
              let (), s = timed f in
              (s, Gc.allocated_bytes () -. b0))
        in
        let s = mstat_of (List.map fst runs) and b = mstat_of (List.map snd runs) in
        Format.printf
          "bench smoke: %-16s %.3f s median  [%.3f .. %.3f, %.1f%% spread], %.0f bytes median@."
          name s.med s.mn s.mx s.spread_pct b.med;
        (name, s.med, b.med))
      smoke_figures
  in
  if write_budget then write_budgets measured
  else
    match load_budgets () with
    | None ->
        Format.printf "bench smoke: %s not found; perf gate skipped (create with --write-budget)@."
          budget_file
    | Some budgets ->
        let failed = ref false in
        let gate name what measured budget =
          let verdict = if measured > budget then "FAIL" else "ok" in
          Format.printf "bench smoke: %-16s %s vs budget %s — %s@." name (what measured)
            (what budget) verdict;
          if measured > budget then failed := true
        in
        List.iter
          (fun (name, med, med_bytes) ->
            match List.assoc_opt name budgets with
            | None -> Format.printf "bench smoke: no budget for %s; skipped@." name
            | Some (budget_s, budget_bytes) ->
                gate name (Printf.sprintf "%.3f s") med budget_s;
                Option.iter (gate name (Printf.sprintf "%.0f bytes") med_bytes) budget_bytes)
          measured;
        if !failed then begin
          Format.eprintf
            "bench smoke: perf budget exceeded (refresh %s with --write-budget after a \
             deliberate change)@."
            budget_file;
          exit 1
        end

(* ---- beacon canary ----------------------------------------------- *)

(* A small lossless campaign must move data across the fabric
   (bgmp.data_msgs_sent > 0), produce a fully reachable COMPLETE
   matrix, and snapshot byte-identically at --jobs 1/4/8.  Writes
   beacon_matrix.jsonl (CI uploads it as an artifact). *)
let smoke_beacon () =
  let p = beacon_small in
  let run jobs = Beacon_campaign.run ~jobs p in
  let r1, wall_s = timed (fun () -> run 1) in
  let data_msgs =
    List.fold_left
      (fun acc t -> acc + t.Beacon_campaign.r_data_msgs)
      0 r1.Beacon_campaign.trials
  in
  let agg = r1.Beacon_campaign.agg in
  Format.printf "bench smoke: beacon %d pairs, %d probes, %d data messages, %.2f s@."
    agg.Beacon_matrix.s_pairs agg.Beacon_matrix.s_sent data_msgs wall_s;
  if data_msgs = 0 then fail "beacon: no data crossed the fabric (bgmp.data_msgs_sent = 0)";
  if agg.Beacon_matrix.s_unreachable > 0 then
    fail "beacon: %d unreachable pairs at loss 0" agg.Beacon_matrix.s_unreachable;
  if not agg.Beacon_matrix.s_complete then fail "beacon: matrix incomplete at loss 0";
  let show (r : Beacon_campaign.result) =
    Format.asprintf "%a%a" Beacon_matrix.pp_cells r.Beacon_campaign.cells
      Beacon_matrix.pp_summary r.Beacon_campaign.agg
  in
  let want = show r1 in
  List.iter
    (fun jobs -> if show (run jobs) <> want then fail "beacon: matrix differs at --jobs %d" jobs)
    [ 4; 8 ];
  Beacon_matrix.write_jsonl
    ~meta:
      [
        ("trials", float_of_int p.Beacon_campaign.trials);
        ("loss", p.Beacon_campaign.loss);
        ("domains", float_of_int p.Beacon_campaign.domains);
      ]
    "beacon_matrix.jsonl" r1.Beacon_campaign.cells;
  Format.printf
    "bench smoke: beacon matrix byte-identical at --jobs 1/4/8; wrote beacon_matrix.jsonl@."

(* ---- explorer canary --------------------------------------------- *)

(* A seeded 25-schedule campaign over the default 2x2 arena must find
   the partition canary (both top-level MASC nodes first-fit-claiming
   224.0.0.0/24 blind to each other), shrink it to a single fault, and
   write a repro recording that names the violated invariant and its
   blamed trace id; the ledger must be byte-identical at --jobs 1/4/8.
   explore_ledger.jsonl and explore_repro/ land in the working
   directory (CI uploads them as artifacts). *)
let smoke_explore () =
  let run jobs ledger repro_dir =
    Explore.run_campaign
      {
        Explore.default_config with
        Explore.budget = 25;
        seed = 7;
        jobs = Some jobs;
        ledger;
        repro_dir;
      }
  in
  let s, wall_s = timed (fun () -> run 1 "explore_ledger.jsonl" (Some "explore_repro")) in
  Format.printf
    "bench smoke: explore %d schedules, %d violations, %d non-convergence, %d shrink runs, %.2f \
     s@."
    s.Explore.total s.Explore.violation s.Explore.non_convergence s.Explore.shrink_steps wall_s;
  if s.Explore.violation = 0 then fail "explore: the seeded partition canary was not found";
  (match Explore.counterexamples s.Explore.entries with
  | [] -> fail "explore: violations recorded but no counterexample ranked"
  | (e : Ledger.entry) :: _ -> (
      if not (List.mem "masc-sibling-overlap" e.Ledger.invariants) then
        fail "explore: smallest counterexample does not blame masc-sibling-overlap";
      if e.Ledger.min_faults <> Some 1 then
        fail "explore: canary did not shrink to a single fault (min_faults = %s)"
          (match e.Ledger.min_faults with Some n -> string_of_int n | None -> "none");
      match e.Ledger.repro_recording with
      | Some p when Sys.file_exists p ->
          let recording = read_file p in
          if
            not
              (contains "explore.violation" recording
              && contains "masc-sibling-overlap" recording)
          then fail "explore: repro recording does not name the violated invariant";
          if not (contains "claim:" recording) then
            fail "explore: repro recording carries no blamed trace id"
      | _ -> fail "explore: no repro recording written for the smallest counterexample"));
  let want = read_file "explore_ledger.jsonl" in
  List.iter
    (fun jobs ->
      let ledger = Printf.sprintf "explore_ledger_j%d.jsonl" jobs in
      ignore (run jobs ledger (Some "explore_repro"));
      let got = read_file ledger in
      Sys.remove ledger;
      if got <> want then fail "explore: ledger differs at --jobs %d" jobs)
    [ 4; 8 ];
  Format.printf
    "bench smoke: explore ledger byte-identical at --jobs 1/4/8; wrote explore_ledger.jsonl and \
     explore_repro/@."

(* ---- fingerprint canary ------------------------------------------ *)

(* A scaled fig2, a small fig4 and a lossless beacon campaign must hash
   to the same event-stream fingerprint at --jobs 1/4/8: shard records
   fold back in task order and every Par task mints spans from a fresh
   minter, so the worker count must be unobservable in the recorder
   too.  The fig4 --jobs 1 recording lands in recording.jsonl (CI
   uploads it as an artifact). *)
let smoke_fingerprint () =
  let fp_of ?sink jobs f =
    Span.reset ();
    Recorder.enable ?sink ();
    Par.set_jobs jobs;
    f jobs;
    Par.set_jobs 1;
    let s = Format.asprintf "%a" Recorder.pp_fingerprint (Recorder.fingerprint ()) in
    Recorder.disable ();
    s
  in
  let cases =
    [
      ("fig2-scaled", None, fun _jobs -> ignore (Allocation_sim.run fig2_scaled));
      ( "fig4-small",
        Some "recording.jsonl",
        fun jobs -> ignore (Tree_experiment.run { fig4_small with Tree_experiment.jobs }) );
      ("beacon", None, fun jobs -> ignore (Beacon_campaign.run ~jobs beacon_small));
    ]
  in
  List.iter
    (fun (name, sink, f) ->
      let want = fp_of ?sink 1 f in
      List.iter
        (fun jobs ->
          if fp_of jobs f <> want then fail "%s: fingerprint differs at --jobs %d" name jobs)
        [ 4; 8 ];
      Format.printf "bench smoke: %s fingerprint identical at --jobs 1/4/8@." name)
    cases;
  Format.printf "bench smoke: wrote recording.jsonl (fig4-small, --jobs 1)@."

(* ---- the smoke run ----------------------------------------------- *)

(* The Figure-1 canary first, then the gate and the other canaries.
   With `--profile` the canary run is profiled and sampled:
   profile.jsonl and timeseries.jsonl land in the working directory (CI
   uploads them as artifacts). *)
let run_smoke () =
  let profile = Array.exists (( = ) "--profile") Sys.argv in
  if profile then Prof.enable ();
  let ts =
    if profile then Some (Timeseries.create ~sink:(Timeseries.Jsonl "timeseries.jsonl") ())
    else None
  in
  let budget_s = 60.0 in
  let (deliveries, transported), wall_s =
    timed (fun () ->
        let s = Scenario.figure1 () in
        Option.iter
          (fun ts -> Internet.enable_sampling ~every:(Time.minutes 1.0) s.Scenario.inet ts)
          ts;
        let topo = Internet.topo s.Scenario.inet in
        let e = Option.get (Topo.find_by_name topo "E") in
        let got = Scenario.send s ~source:(Host_ref.make e 1) in
        let net = Internet.net s.Scenario.inet in
        let delivered =
          List.fold_left
            (fun acc p -> acc + Net.delivered net ~protocol:p)
            0 [ "masc"; "bgp"; "bgmp" ]
        in
        (List.length got, delivered))
  in
  if profile then begin
    Prof.write_jsonl "profile.jsonl";
    Prof.disable ();
    Option.iter Timeseries.close ts;
    Format.printf "bench smoke: wrote profile.jsonl and timeseries.jsonl@."
  end;
  Format.printf "bench smoke: %d deliveries, %d transport messages, %.2f s wall@." deliveries
    transported wall_s;
  if deliveries <> 4 then fail "expected 4 member deliveries, got %d" deliveries;
  if transported = 0 then fail "no messages crossed the transport";
  if wall_s > budget_s then fail "took %.1f s (budget %.0f s)" wall_s budget_s;
  (* The perf gate runs before the beacon canary: the canary's --jobs 8
     pass spawns pool domains, and the multi-domain runtime's GC makes
     the single-threaded figure medians incomparable to budgets
     measured on a one-domain process. *)
  perf_gate ();
  smoke_beacon ();
  smoke_fingerprint ();
  smoke_explore ()

let () =
  if not (Array.exists (( = ) "--smoke") Sys.argv) then begin
    prerr_endline
      "usage: bench/main.exe --smoke [--profile] [--write-budget] (CI canaries and perf gate; \
       to measure performance run python3 perfbench/run.py, see BENCHMARK.json)";
    exit 2
  end;
  run_smoke ();
  exit 0
