type config = {
  budget : int;
  max_faults : int;
  seed : int;
  jobs : int option;
  arena : Oracle.arena;
  horizon : Time.t;
  ledger : string;
  repro_dir : string option;
  repro_top : int;
}

let default_config =
  {
    budget = 50;
    max_faults = 6;
    seed = 1998;
    jobs = None;
    arena = Oracle.default_arena;
    horizon = Time.hours 4.0;
    ledger = "explore_ledger.jsonl";
    repro_dir = None;
    repro_top = 3;
  }

type summary = {
  total : int;
  passed : int;
  violation : int;
  non_convergence : int;
  by_invariant : (string * int) list;
  shrink_steps : int;
  entries : Ledger.entry list;
}

let is_failure (e : Ledger.entry) = e.Ledger.verdict <> Oracle.verdict_to_string Oracle.Pass

let counterexamples entries =
  let failures = List.filter is_failure entries in
  List.stable_sort
    (fun (a : Ledger.entry) (b : Ledger.entry) ->
      match
        compare
          (Option.value ~default:max_int a.Ledger.min_faults)
          (Option.value ~default:max_int b.Ledger.min_faults)
      with
      | 0 -> compare a.Ledger.trial b.Ledger.trial
      | c -> c)
    failures

(* One trial: oracle, plus the shrinker when the verdict is bad.  Runs
   inside a Par task; everything observable in the ledger must be a
   deterministic function of (arena, seed, schedule) alone. *)
let run_trial ~arena ~trial ~seed schedule =
  let outcome, _ = Oracle.run ~arena ~seed schedule in
  let base =
    {
      Ledger.trial;
      seed;
      schedule = Schedule.to_string schedule;
      fingerprint = Schedule.fingerprint schedule;
      verdict = Oracle.verdict_to_string outcome.Oracle.verdict;
      invariants = List.map (fun v -> v.Invariant.inv) outcome.Oracle.violations;
      trace_ids =
        List.map
          (fun v -> Option.value ~default:"" v.Invariant.trace_id)
          outcome.Oracle.violations;
      transient = outcome.Oracle.transient;
      converged_at = Option.map Time.to_seconds outcome.Oracle.converged_at;
      deadline = Time.to_seconds outcome.Oracle.deadline;
      min_schedule = None;
      min_faults = None;
      shrink_steps = None;
      repro_recording = None;
    }
  in
  match outcome.Oracle.verdict with
  | Oracle.Pass -> base
  | bad ->
      let primary =
        match outcome.Oracle.violations with
        | v :: _ -> Some v.Invariant.inv
        | [] -> None
      in
      let still_fails s =
        let o, _ = Oracle.run ~arena ~seed s in
        o.Oracle.verdict = bad
        &&
        match primary with
        | None -> true
        | Some p -> List.exists (fun v -> v.Invariant.inv = p) o.Oracle.violations
      in
      let r = Shrinker.shrink ~still_fails schedule in
      {
        base with
        Ledger.min_schedule = Some (Schedule.to_string r.Shrinker.shrunk);
        min_faults = Some (Schedule.faults r.Shrinker.shrunk);
        shrink_steps = Some r.Shrinker.steps;
      }

(* Re-run a minimal counterexample with the flight recorder on, so the
   violation is replayable ([report --diff]) and attributable ([report
   --triage] / [trace]): the recording holds the protocols' narrative
   notes interleaved with the messages of the same chains.  A fresh
   span minter mirrors the Par shard the trial ran in, so the repro's
   trace ids match the ledger's. *)
let repro ~arena ~dir (e : Ledger.entry) =
  match e.Ledger.min_schedule with
  | None -> e
  | Some min_s -> (
      match Schedule.of_string min_s with
      | Error _ -> e
      | Ok schedule ->
          (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
          let rec_path = Filename.concat dir (Printf.sprintf "cex-%d.recording.jsonl" e.Ledger.trial) in
          Recorder.enable ~ring:4096 ~sink:rec_path ();
          let outcome, _ =
            Span.with_minter (Span.create_minter ()) (fun () ->
                Oracle.run ~arena ~seed:e.Ledger.seed schedule)
          in
          (* Close the recording with one synthetic record naming the
             violated invariant and its blamed chain, so its last
             records carry the verdict. *)
          List.iter
            (fun v ->
              match v.Invariant.trace_id with
              | Some tid ->
                  Recorder.record
                    ~time:(Time.to_seconds outcome.Oracle.horizon)
                    ~label:"explore.violation" ~subject:v.Invariant.inv
                    ~span:{ Span.trace_id = tid; span = 0; parent = None }
                    ()
              | None ->
                  Recorder.record
                    ~time:(Time.to_seconds outcome.Oracle.horizon)
                    ~label:"explore.violation" ~subject:v.Invariant.inv ())
            outcome.Oracle.violations;
          Recorder.disable ();
          { e with Ledger.repro_recording = Some rec_path })

let summarize entries =
  let count v =
    List.length (List.filter (fun (e : Ledger.entry) -> e.Ledger.verdict = v) entries)
  in
  let by_invariant =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (e : Ledger.entry) ->
        List.sort_uniq compare e.Ledger.invariants
        |> List.iter (fun inv ->
               Hashtbl.replace tbl inv (1 + Option.value ~default:0 (Hashtbl.find_opt tbl inv))))
      entries;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  {
    total = List.length entries;
    passed = count (Oracle.verdict_to_string Oracle.Pass);
    violation = count (Oracle.verdict_to_string Oracle.Violation);
    non_convergence = count (Oracle.verdict_to_string Oracle.Non_convergence);
    by_invariant;
    shrink_steps =
      List.fold_left
        (fun acc (e : Ledger.entry) -> acc + Option.value ~default:0 e.Ledger.shrink_steps)
        0 entries;
    entries;
  }

let run_campaign config =
  let topo =
    Gen.masc_hierarchy ~tops:config.arena.Oracle.tops
      ~children_per_top:config.arena.Oracle.children_per_top
  in
  let schedules =
    Fault_gen.generate ~topo ~budget:config.budget ~max_faults:config.max_faults ~seed:config.seed
      ~horizon:config.horizon
  in
  (* Pre-draw every trial's oracle seed on the main domain. *)
  let srng = Rng.create (config.seed lxor 0x9e3779b9) in
  let trials =
    List.mapi (fun trial schedule -> (trial, Rng.int srng 1_000_000_000, schedule)) schedules
  in
  let results =
    Par.map ?jobs:config.jobs
      (fun (trial, seed, schedule) ->
        Par.with_shard (fun () -> run_trial ~arena:config.arena ~trial ~seed schedule))
      trials
  in
  let entries =
    List.map
      (fun (entry, shard) ->
        Par.merge_shard shard;
        entry)
      results
  in
  (* Repro runs are sequential on the main domain: the flight
     recorder's enabled flag is process-global. *)
  let entries =
    match config.repro_dir with
    | None -> entries
    | Some dir ->
        let chosen =
          List.filteri (fun i _ -> i < config.repro_top) (counterexamples entries)
          |> List.map (fun (e : Ledger.entry) -> e.Ledger.trial)
        in
        List.map
          (fun (e : Ledger.entry) ->
            if List.mem e.Ledger.trial chosen then repro ~arena:config.arena ~dir e else e)
          entries
  in
  let oc = open_out config.ledger in
  List.iter (Ledger.append oc) entries;
  close_out oc;
  summarize entries

let pp_summary ppf s =
  Format.fprintf ppf "=== explore: %d schedules ===@." s.total;
  Format.fprintf ppf "verdicts: pass %d  violation %d  non-convergence %d@." s.passed s.violation
    s.non_convergence;
  if s.by_invariant <> [] then begin
    Format.fprintf ppf "violated invariants (failing trials):@.";
    List.iter (fun (inv, n) -> Format.fprintf ppf "  %-28s %d@." inv n) s.by_invariant
  end;
  let cexs = counterexamples s.entries in
  if cexs <> [] then begin
    Format.fprintf ppf "counterexamples (smallest first):@.";
    List.iter
      (fun (e : Ledger.entry) ->
        Format.fprintf ppf "  trial %d [%s]: %s" e.Ledger.trial e.Ledger.verdict
          (Option.value ~default:e.Ledger.schedule e.Ledger.min_schedule);
        (match e.Ledger.min_faults with
        | Some n ->
            Format.fprintf ppf " (%d fault%s, %d shrink runs)" n
              (if n = 1 then "" else "s")
              (Option.value ~default:0 e.Ledger.shrink_steps)
        | None -> ());
        (match e.Ledger.invariants with
        | inv :: _ -> Format.fprintf ppf " %s" inv
        | [] -> ());
        Format.fprintf ppf "@.")
      cexs;
    Format.fprintf ppf "shrink runs total: %d@." s.shrink_steps
  end

let pp_triage ?(top = 3) ppf ~ledger =
  let entries, malformed = Ledger.load ledger in
  Format.fprintf ppf "=== triage: %s ===@." ledger;
  Format.fprintf ppf "%d outcome%s%s@." (List.length entries)
    (if List.length entries = 1 then "" else "s")
    (if malformed = 0 then "" else Printf.sprintf " (%d malformed lines skipped)" malformed);
  let s = summarize entries in
  Format.fprintf ppf "by verdict: pass %d  violation %d  non-convergence %d@." s.passed
    s.violation s.non_convergence;
  if s.by_invariant <> [] then begin
    Format.fprintf ppf "by violated invariant:@.";
    List.iter (fun (inv, n) -> Format.fprintf ppf "  %-28s %d trial%s@." inv n (if n = 1 then "" else "s")) s.by_invariant
  end;
  let cexs = counterexamples entries in
  if cexs = [] then Format.fprintf ppf "no counterexamples.@."
  else begin
    let chosen = List.filteri (fun i _ -> i < top) cexs in
    Format.fprintf ppf "top counterexamples (smallest first, %d of %d):@." (List.length chosen)
      (List.length cexs);
    List.iteri
      (fun i (e : Ledger.entry) ->
        Format.fprintf ppf "#%d trial %d seed %d [%s]@." (i + 1) e.Ledger.trial e.Ledger.seed
          e.Ledger.verdict;
        Format.fprintf ppf "   schedule: %s@." e.Ledger.schedule;
        (match e.Ledger.min_schedule with
        | Some m ->
            Format.fprintf ppf "   minimal:  %s (%d fault%s, %d shrink runs)@." m
              (Option.value ~default:0 e.Ledger.min_faults)
              (if e.Ledger.min_faults = Some 1 then "" else "s")
              (Option.value ~default:0 e.Ledger.shrink_steps)
        | None -> ());
        let blamed =
          List.combine e.Ledger.invariants e.Ledger.trace_ids
          |> List.filter (fun (_, tid) -> tid <> "")
        in
        List.iter
          (fun (inv, tid) -> Format.fprintf ppf "   invariant %s blames %s@." inv tid)
          blamed;
        (match e.Ledger.repro_recording with
        | Some p -> Format.fprintf ppf "   recording: %s@." p
        | None -> ());
        match (e.Ledger.repro_recording, blamed) with
        | Some file, (_, tid) :: _ when Sys.file_exists file ->
            Format.fprintf ppf "   causal chain [%s]:@." tid;
            Trace_report.pp_chain_for ppf (fst (Recorder.load_jsonl file)) ~id:tid
        | _ -> ())
      chosen
  end
