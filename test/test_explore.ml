(* The fault-scenario explorer: schedule codec, generator, oracle
   verdicts, shrinker, ledger, campaign determinism, triage. *)

let check = Alcotest.check

let sched s =
  match Schedule.of_string s with
  | Ok t -> t
  | Error e -> Alcotest.failf "unparseable schedule %S: %s" s e

let test_schedule_codec () =
  let s = "part:0-1@1800,down:2-3@3600.5,loss:0.05@7200,heal:0-1@86400" in
  let t = sched s in
  check Alcotest.string "round-trip" s (Schedule.to_string t);
  check Alcotest.int "faults" 4 (Schedule.faults t);
  (* Out-of-order and unsorted input normalises. *)
  let t2 = sched "heal:0-1@86400,part:0-1@1800,loss:0.05@7200,down:2-3@3600.5" in
  check Alcotest.string "sorted on parse" s (Schedule.to_string t2);
  check Alcotest.string "fingerprint agrees" (Schedule.fingerprint t) (Schedule.fingerprint t2);
  check Alcotest.bool "fingerprint is 16 hex digits" true
    (String.length (Schedule.fingerprint t) = 16);
  (match Schedule.of_string "frob:0-1@10" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown fault kind parsed");
  check Alcotest.int "empty schedule" 0 (Schedule.faults (Result.get_ok (Schedule.of_string "")))

let test_schedule_ends_all_up () =
  let up s = Schedule.ends_all_up (sched s) in
  check Alcotest.bool "permanent partition ends cut" false (up "part:0-1@1800");
  check Alcotest.bool "healed partition ends up" true (up "part:0-1@1800,heal:0-1@7200");
  check Alcotest.bool "cross-family repair counts" true (up "down:0-1@1800,heal:0-1@7200");
  check Alcotest.bool "lingering loss is not clean" false (up "loss:0.1@1800");
  check Alcotest.bool "reset loss is clean" true (up "loss:0.1@1800,loss:0@7200");
  check Alcotest.bool "empty is clean" true (up "")

let arena = { Oracle.tops = 2; children_per_top = 2 }

let arena_topo () = Gen.masc_hierarchy ~tops:2 ~children_per_top:2

let test_generator_deterministic () =
  let gen () =
    Fault_gen.generate ~topo:(arena_topo ()) ~budget:40 ~max_faults:6 ~seed:42
      ~horizon:(Time.hours 4.0)
  in
  let a = List.map Schedule.to_string (gen ()) and b = List.map Schedule.to_string (gen ()) in
  check (Alcotest.list Alcotest.string) "same seed, same schedules" a b;
  check Alcotest.int "budget respected" 40 (List.length a);
  (* The enumerated head guarantees the §4.4 canary — a permanent
     partition of the top-level peering at claim time — in every
     campaign regardless of seed. *)
  check Alcotest.bool "claim-time partition canary enumerated" true
    (List.mem "part:0-1@1800" a);
  let c =
    List.map Schedule.to_string
      (Fault_gen.generate ~topo:(arena_topo ()) ~budget:40 ~max_faults:6 ~seed:43
         ~horizon:(Time.hours 4.0))
  in
  check Alcotest.bool "different seed, different sampled tail" true (a <> c);
  check Alcotest.bool "canary survives the seed change" true (List.mem "part:0-1@1800" c)

let test_verdict_rule () =
  let v = { Invariant.inv = "x"; detail = "d"; trace_id = None } in
  check Alcotest.bool "violations trump convergence" true
    (Oracle.verdict_of ~converged_at:(Some 10.0) ~deadline:100.0 ~violations:[ v ]
    = Oracle.Violation);
  check Alcotest.bool "late watermark is non-convergence" true
    (Oracle.verdict_of ~converged_at:(Some 101.0) ~deadline:100.0 ~violations:[]
    = Oracle.Non_convergence);
  check Alcotest.bool "violations also trump lateness" true
    (Oracle.verdict_of ~converged_at:(Some 101.0) ~deadline:100.0 ~violations:[ v ]
    = Oracle.Violation);
  check Alcotest.bool "on-time is a pass" true
    (Oracle.verdict_of ~converged_at:(Some 99.0) ~deadline:100.0 ~violations:[] = Oracle.Pass);
  check Alcotest.bool "no activity at all is a pass" true
    (Oracle.verdict_of ~converged_at:None ~deadline:100.0 ~violations:[] = Oracle.Pass)

let test_nonconvergence_from_watermarks () =
  (* Activity past the quiescence grace convicts a run even with every
     invariant green: the oracle's rule applied to a real engine whose
     last durable state change lands after the deadline. *)
  let eng = Engine.create () in
  let deadline = 100.0 in
  ignore (Engine.schedule_at eng 50.0 (fun () -> Engine.note_activity eng "bgp"));
  ignore (Engine.schedule_at eng 150.0 (fun () -> Engine.note_activity eng "bgp"));
  Engine.run_until_idle eng;
  check Alcotest.bool "watermark past deadline" true
    (Oracle.verdict_of ~converged_at:(Engine.converged_at eng) ~deadline ~violations:[]
    = Oracle.Non_convergence);
  let eng2 = Engine.create () in
  ignore (Engine.schedule_at eng2 50.0 (fun () -> Engine.note_activity eng2 "bgp"));
  ignore (Engine.schedule_at eng2 150.0 (fun () -> ()));
  Engine.run_until_idle eng2;
  check Alcotest.bool "mere events past deadline do not convict" true
    (Oracle.verdict_of ~converged_at:(Engine.converged_at eng2) ~deadline ~violations:[]
    = Oracle.Pass)

let test_oracle_pass_on_empty_schedule () =
  let outcome, _ = Oracle.run ~arena ~seed:7 [] in
  check Alcotest.bool "no faults, no violations" true (outcome.Oracle.violations = []);
  check Alcotest.bool "verdict pass" true (outcome.Oracle.verdict = Oracle.Pass);
  (* The bench's monitored-vs-plain knob: same verdict without the
     cadence monitor, and no transient checks counted. *)
  let plain, _ = Oracle.run ~arena ~seed:7 ~monitor:false [] in
  check Alcotest.bool "unmonitored verdict pass" true (plain.Oracle.verdict = Oracle.Pass);
  check Alcotest.int "unmonitored transient count" 0 plain.Oracle.transient

let test_oracle_finds_partition_canary () =
  (* The seeded known-violation scenario: a permanent partition of the
     top-level peering while both tops claim out of 224/4 — first-fit
     lands them on the same sub-prefix and nothing ever resolves it. *)
  let outcome, inet = Oracle.run ~arena ~seed:7 (sched "part:0-1@1800") in
  check Alcotest.bool "verdict violation" true (outcome.Oracle.verdict = Oracle.Violation);
  let v =
    match
      List.filter
        (fun v -> v.Invariant.inv = "masc-sibling-overlap")
        outcome.Oracle.violations
    with
    | v :: _ -> v
    | [] -> Alcotest.fail "masc-sibling-overlap not among the violations"
  in
  check Alcotest.bool "violation blames a causal chain" true (v.Invariant.trace_id <> None);
  (* The stack's own bounded retention recovers the same first
     violation after the run (satellite: violations_seen). *)
  let seen = Invariant.violations_seen (Internet.invariants inet) in
  check Alcotest.bool "violations_seen non-empty" true (seen <> []);
  check Alcotest.bool "first seen violation carries detail + trace id" true
    (List.exists
       (fun s -> s.Invariant.inv = "masc-sibling-overlap" && s.Invariant.trace_id = v.Invariant.trace_id)
       seen)

let test_oracle_healed_partition_self_repairs () =
  (* Healed before the renewal duel deadline: the §4.4 story ends with
     the loser yielding — the oracle must NOT flag a violation. *)
  let outcome, _ = Oracle.run ~arena ~seed:7 (sched "part:0-1@1800,heal:0-1@14400") in
  check Alcotest.bool "no violation after self-repair" true
    (outcome.Oracle.verdict <> Oracle.Violation)

let test_oracle_deterministic () =
  let run () =
    let o, _ = Oracle.run ~arena ~seed:11 (sched "down:0-1@1800,up:0-1@10800") in
    ( Oracle.verdict_to_string o.Oracle.verdict,
      List.map (fun v -> (v.Invariant.inv, v.Invariant.trace_id)) o.Oracle.violations,
      o.Oracle.converged_at )
  in
  let a = run () and b = run () in
  check Alcotest.bool "same seed, same outcome" true (a = b)

let test_shrinker_essential_among_decoys () =
  (* One essential fault buried in 8 decoys: greedy removal must strip
     every decoy and time-coarsening must round the survivor, no matter
     what the decoys are. *)
  let essential = { Schedule.at = Time.seconds 1830.0; fault = Schedule.Partition (0, 1) } in
  let decoys =
    [
      { Schedule.at = Time.seconds 400.0; fault = Schedule.Link_down (0, 2) };
      { Schedule.at = Time.seconds 900.0; fault = Schedule.Link_up (0, 2) };
      { Schedule.at = Time.seconds 1200.0; fault = Schedule.Set_loss 0.05 };
      { Schedule.at = Time.seconds 1500.0; fault = Schedule.Set_loss 0.0 };
      { Schedule.at = Time.seconds 2000.0; fault = Schedule.Link_down (1, 3) };
      { Schedule.at = Time.seconds 2600.0; fault = Schedule.Link_up (1, 3) };
      { Schedule.at = Time.seconds 3100.0; fault = Schedule.Partition (0, 2) };
      { Schedule.at = Time.seconds 3500.0; fault = Schedule.Heal (0, 2) };
    ]
  in
  let full = Schedule.make (essential :: decoys) in
  (* The predicate is the ground truth "fails iff the essential fault
     survives": the shrinker must converge on exactly that fault. *)
  let still_fails s =
    List.exists (fun st -> st.Schedule.fault = Schedule.Partition (0, 1)) s
  in
  let r = Shrinker.shrink ~still_fails full in
  check Alcotest.int "exactly the essential fault" 1 (Schedule.faults r.Shrinker.shrunk);
  (match r.Shrinker.shrunk with
  | [ { Schedule.fault = Schedule.Partition (0, 1); at } ] ->
      (* The predicate is time-blind, so coarsening runs all the way to
         the day floor. *)
      check (Alcotest.float 0.0) "time coarsened" 0.0 (Time.to_seconds at)
  | _ -> Alcotest.failf "shrunk to %s" (Schedule.to_string r.Shrinker.shrunk));
  check Alcotest.bool "shrinking spent oracle runs" true (r.Shrinker.steps > 0);
  (* Determinism: same input, same minimal counterexample and cost. *)
  let r2 = Shrinker.shrink ~still_fails full in
  check Alcotest.string "deterministic result" (Schedule.to_string r.Shrinker.shrunk)
    (Schedule.to_string r2.Shrinker.shrunk);
  check Alcotest.int "deterministic cost" r.Shrinker.steps r2.Shrinker.steps

let test_shrinker_on_real_oracle () =
  (* End to end on the live oracle: a decoy-laden failing schedule
     shrinks to the single essential partition. *)
  let full = sched "down:0-2@600,up:0-2@1200,part:0-1@1830,loss:0.05@2400,loss:0@3000" in
  let outcome, _ = Oracle.run ~arena ~seed:7 full in
  check Alcotest.bool "full schedule fails" true (outcome.Oracle.verdict = Oracle.Violation);
  let still_fails s =
    let o, _ = Oracle.run ~arena ~seed:7 s in
    o.Oracle.verdict = Oracle.Violation
    && List.exists (fun v -> v.Invariant.inv = "masc-sibling-overlap") o.Oracle.violations
  in
  let r = Shrinker.shrink ~still_fails full in
  check Alcotest.int "one essential fault" 1 (Schedule.faults r.Shrinker.shrunk);
  match r.Shrinker.shrunk with
  | [ { Schedule.fault = Schedule.Partition (0, 1); _ } ] -> ()
  | _ -> Alcotest.failf "shrunk to %s" (Schedule.to_string r.Shrinker.shrunk)

let test_ledger_roundtrip () =
  let e =
    {
      Ledger.trial = 3;
      seed = 123456;
      schedule = "part:0-1@1800,loss:0.05@2400";
      fingerprint = "00deadbeef001234";
      verdict = "violation";
      invariants = [ "masc-sibling-overlap"; "masc-sibling-overlap" ];
      trace_ids = [ "m:224.0.0.0/6"; "" ];
      transient = 4;
      converged_at = Some 1830.5;
      deadline = 93600.0;
      min_schedule = Some "part:0-1@1800";
      min_faults = Some 1;
      shrink_steps = Some 9;
      repro_recording = Some "repro/cex-3.recording.jsonl";
    }
  in
  (match Ledger.of_json (Ledger.to_json e) with
  | Some e' -> check Alcotest.bool "round-trip" true (e = e')
  | None -> Alcotest.fail "round-trip failed");
  let pass = { e with Ledger.verdict = "pass"; invariants = []; trace_ids = [];
               min_schedule = None; min_faults = None; shrink_steps = None;
               repro_recording = None; converged_at = None } in
  (match Ledger.of_json (Ledger.to_json pass) with
  | Some e' -> check Alcotest.bool "nulls round-trip" true (pass = e')
  | None -> Alcotest.fail "null round-trip failed");
  check Alcotest.bool "malformed is None" true (Ledger.of_json "{\"trial\": oops}" = None)

let test_invariant_violations_seen () =
  (* Satellite: bounded retention on the registry itself. *)
  let reg = Metrics.create () in
  let inv = Invariant.create ~registry:reg () in
  let broken = ref [] in
  Invariant.register inv ~name:"probe" (fun () -> !broken);
  check (Alcotest.list Alcotest.string) "clean run retains nothing" []
    (List.map (fun v -> v.Invariant.detail) (Invariant.violations_seen inv));
  broken := [ ("first", Some "chain-1") ];
  ignore (Invariant.check inv);
  broken := [ ("second", None) ];
  ignore (Invariant.check inv);
  let seen = Invariant.violations_seen inv in
  check Alcotest.int "both retained, oldest first" 2 (List.length seen);
  (match seen with
  | v :: _ ->
      check Alcotest.string "first violation's detail" "first" v.Invariant.detail;
      check (Alcotest.option Alcotest.string) "first violation's trace id" (Some "chain-1")
        v.Invariant.trace_id
  | [] -> Alcotest.fail "nothing retained");
  (* The ring is bounded: flooding keeps the head, counters keep counting. *)
  broken := List.init 10 (fun i -> (Printf.sprintf "v%d" i, None));
  for _ = 1 to 20 do
    ignore (Invariant.check inv)
  done;
  let seen = List.length (Invariant.violations_seen inv) in
  check Alcotest.bool "retention bounded" true (seen <= 64);
  (match Metrics.find (Metrics.snapshot reg) "invariant.violations" with
  | Some (Metrics.Counter_v n) -> check Alcotest.bool "counters unaffected by the cap" true (n = 202)
  | _ -> Alcotest.fail "violations counter missing");
  match Invariant.violations_seen inv with
  | v :: _ -> check Alcotest.string "head still the first violation" "first" v.Invariant.detail
  | [] -> Alcotest.fail "head lost"

let suite =
  [
    Alcotest.test_case "schedule codec round-trips" `Quick test_schedule_codec;
    Alcotest.test_case "schedule end-state analysis" `Quick test_schedule_ends_all_up;
    Alcotest.test_case "generator deterministic, canary enumerated" `Quick
      test_generator_deterministic;
    Alcotest.test_case "verdict rule" `Quick test_verdict_rule;
    Alcotest.test_case "non-convergence from watermarks" `Quick
      test_nonconvergence_from_watermarks;
    Alcotest.test_case "oracle passes the fault-free run" `Quick test_oracle_pass_on_empty_schedule;
    Alcotest.test_case "oracle finds the partition canary" `Quick
      test_oracle_finds_partition_canary;
    Alcotest.test_case "healed partition self-repairs" `Quick
      test_oracle_healed_partition_self_repairs;
    Alcotest.test_case "oracle deterministic" `Quick test_oracle_deterministic;
    Alcotest.test_case "shrinker: essential fault among 8 decoys" `Quick
      test_shrinker_essential_among_decoys;
    Alcotest.test_case "shrinker on the real oracle" `Quick test_shrinker_on_real_oracle;
    Alcotest.test_case "ledger round-trips" `Quick test_ledger_roundtrip;
    Alcotest.test_case "invariant violations_seen retention" `Quick
      test_invariant_violations_seen;
  ]
