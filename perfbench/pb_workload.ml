(* The four workloads: one workload call each, at a fixed configuration,
   sized by a length in the workload's own unit of work.  Every run is
   single-domain ([jobs = 1]), so the numbers measure the program and
   not the scheduler. *)

type t = Fig2_alloc | Beacon_data | Fig4m_churn | Explore_ctl

let all = [ Fig2_alloc; Beacon_data; Fig4m_churn; Explore_ctl ]

let name = function
  | Fig2_alloc -> "fig2-alloc"
  | Beacon_data -> "beacon-data"
  | Fig4m_churn -> "fig4m-churn"
  | Explore_ctl -> "explore-ctl"

let of_name s = List.find_opt (fun w -> name w = s) all

(* The unit [length] and [ops] count: work the input asks for, not
   messages the program chooses to send. *)
let unit_of = function
  | Fig2_alloc -> "days (ops: block requests issued)"
  | Beacon_data -> "probes per source (ops: probes sent)"
  | Fig4m_churn -> "membership events (ops: the same)"
  | Explore_ctl -> "schedule budget (ops: schedules judged)"

(* Length of one measured rep.  fig2 runs the paper's 800-day horizon:
   its steady-state check averages days 400-800, as the paper does. *)
let length = function
  | Fig2_alloc -> 800
  | Beacon_data -> 8
  | Fig4m_churn -> 1_000_000
  | Explore_ctl -> 2000

(* Only fig4m has a check too costly to run inside a timed rep. *)
let has_check_run = function Fig4m_churn -> true | _ -> false

type outcome = {
  ops : int;
  digest : string;
  problems : string list;
  extras : (string * float) list;  (* per-layer figures only the result carries *)
}

let fig2_params ~seed ~length =
  { Allocation_sim.default_params with Allocation_sim.horizon = Time.days (float_of_int length); seed }

let beacon_params ~seed ~length =
  {
    Beacon_campaign.default_params with
    Beacon_campaign.domains = 200;
    per_domain = 2;
    probes = length;
    trials = 1;
    seed;
    loss = 0.05;
    churn = true;
  }

let fig4m_params ~seed ~length ~check =
  {
    Modern_experiment.default_params with
    Modern_experiment.domains = 75_000;
    groups = 100_000;
    roots = 32;
    events = length;
    link_every = 2000;
    trials = 1;
    seed;
    mode = Modern_experiment.Incremental;
    jobs = 1;
    check_invariants = check;
  }

let explore_config ~seed ~length ~ledger =
  {
    Explore.default_config with
    Explore.budget = length;
    max_faults = 6;
    seed;
    jobs = Some 1;
    ledger;
    repro_dir = None;
  }

(* Wraps the workload call alone, so checks and digests stay untimed. *)
type timer = { timed : 'a. (unit -> 'a) -> 'a }

(* Run one rep.  [check] asks for the out-of-timing check run; [ledger]
   is a scratch path the explorer writes and the check reloads. *)
let exec w ~timer ~seed ~length ~check ~ledger =
  match w with
  | Fig2_alloc ->
      let p = fig2_params ~seed ~length in
      let r = timer.timed (fun () -> Allocation_sim.run p) in
      { ops = r.Allocation_sim.total_requests; digest = Pb_check.fig2_digest r; problems = Pb_check.fig2 p r; extras = [] }
  | Beacon_data ->
      let p = beacon_params ~seed ~length in
      let r = timer.timed (fun () -> Beacon_campaign.run ~jobs:1 p) in
      let agg = r.Beacon_campaign.agg in
      {
        ops = List.fold_left (fun acc t -> acc + t.Beacon_campaign.r_probes_sent) 0 r.Beacon_campaign.trials;
        digest = Pb_check.beacon_digest r;
        problems = Pb_check.beacon p r;
        extras =
          [
            ( "beacon.delivered_frac",
              Pb_stats.ratio (float_of_int agg.Beacon_matrix.s_got) (float_of_int agg.Beacon_matrix.s_sent) );
          ];
      }
  | Fig4m_churn ->
      let p = fig4m_params ~seed ~length ~check in
      let r = timer.timed (fun () -> Modern_experiment.run p) in
      {
        ops = p.Modern_experiment.events * p.Modern_experiment.trials;
        digest = Pb_check.fig4m_digest r;
        problems = Pb_check.fig4m p r;
        extras = [ ("spf.maintain_s", r.Modern_experiment.spf_seconds); ("spf.maintain_bytes", r.Modern_experiment.spf_bytes) ];
      }
  | Explore_ctl ->
      let c = explore_config ~seed ~length ~ledger in
      let s = timer.timed (fun () -> Explore.run_campaign c) in
      let loaded = Ledger.load ledger in
      (try Sys.remove ledger with Sys_error _ -> ());
      let failing = s.Explore.violation + s.Explore.non_convergence in
      let total = float_of_int s.Explore.total in
      {
        ops = s.Explore.total;
        digest = Pb_check.explore_digest (fst loaded);
        problems = Pb_check.explore c s ~ledger:loaded;
        extras =
          [
            ("explore.oracle_runs_per_schedule", Pb_stats.ratio (total +. float_of_int s.Explore.shrink_steps) total);
            ("explore.shrink_runs_per_cex", Pb_stats.ratio (float_of_int s.Explore.shrink_steps) (float_of_int failing));
            ("explore.violation_frac", Pb_stats.ratio (float_of_int s.Explore.violation) total);
          ];
      }
