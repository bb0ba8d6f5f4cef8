(* Correctness checks on the workloads' results, and result digests.

   A checker returns the list of problems it found; [] is a pass.
   Model outcomes (failed block requests, lost probes, explorer
   violations) are simulation results, not problems: the checks only
   reject results that break the program's own accounting or the
   paper's bounds the simulator meets today. *)

let problem fmt = Printf.ksprintf (fun s -> [ s ]) fmt
let when_ cond fmt = Printf.ksprintf (fun s -> if cond then [ s ] else []) fmt

(* ---------------- fig2-alloc ------------------------------------------- *)

(* Sorted by base address, prefixes are pairwise disjoint iff each one
   starts past the end of the one before it (CIDR blocks nest or are
   disjoint, they never partly overlap). *)
let overlapping prefixes =
  let sorted = List.sort Prefix.compare prefixes in
  let rec go = function
    | a :: (b :: _ as rest) ->
        if Ipv4.compare (Prefix.base b) (Prefix.last a) <= 0 then Some (a, b) else go rest
    | _ -> None
  in
  go sorted

let disjoint what holdings =
  match overlapping (List.map (fun (h : Allocation_sim.holding) -> h.Allocation_sim.h_prefix) holdings) with
  | None -> []
  | Some (a, b) -> problem "%s: %s overlaps %s" what (Prefix.to_string a) (Prefix.to_string b)

(* §4.3.3 steady state starts at day 400; these are the paper bounds the
   simulator meets today, averaged over the steady-state samples as
   EXPERIMENTS.md reports them (G-RIB max 149.4 <= 180, outstanding
   blocks ~37,500).  Utilization, at 0.37 against the paper's ~0.50, is
   not one of them. *)
let steady_from_day = 400.0
let steady_min_horizon_days = 450.0
let grib_ceiling = 180.0
let outstanding_target = 37_500.0
let outstanding_tolerance = 0.02

let fig2 (p : Allocation_sim.params) (r : Allocation_sim.result) =
  let per_top = p.Allocation_sim.children_per_top in
  let n_children = p.Allocation_sim.tops * per_top in
  let children =
    if Array.length r.Allocation_sim.final_children <> n_children then
      problem "%d child domains, expected %d" (Array.length r.Allocation_sim.final_children) n_children
    else
      List.concat_map
        (fun t ->
          disjoint (Printf.sprintf "children of top %d" t)
            (List.concat (Array.to_list (Array.sub r.Allocation_sim.final_children (t * per_top) per_top))))
        (List.init p.Allocation_sim.tops Fun.id)
  in
  let steady =
    if Time.to_days p.Allocation_sim.horizon < steady_min_horizon_days then []
    else
      let ss = Allocation_sim.steady_state r ~from_day:steady_from_day in
      let mean f =
        Pb_stats.ratio (List.fold_left (fun acc s -> acc +. float_of_int (f s)) 0.0 ss) (float_of_int (List.length ss))
      in
      let grib = mean (fun s -> s.Allocation_sim.grib_max) in
      let blocks = mean (fun s -> s.Allocation_sim.outstanding_blocks) in
      when_ (ss = []) "no steady-state samples"
      @ when_ (grib > grib_ceiling) "steady-state G-RIB max %.1f > %.0f" grib grib_ceiling
      @ when_
          (Float.abs (blocks -. outstanding_target) > outstanding_tolerance *. outstanding_target)
          "steady-state outstanding blocks %.0f not within %.0f%% of %.0f" blocks (100.0 *. outstanding_tolerance)
          outstanding_target
  in
  when_ (r.Allocation_sim.total_requests <= 0) "no block requests issued"
  @ disjoint "top-level holdings" (List.concat (Array.to_list r.Allocation_sim.final_tops))
  @ children @ steady

(* ---------------- beacon-data ------------------------------------------ *)

let beacon (p : Beacon_campaign.params) (r : Beacon_campaign.result) =
  let agg = r.Beacon_campaign.agg in
  let per_trial (t : Beacon_campaign.trial_result) =
    when_ (t.Beacon_campaign.r_duplicates <> 0) "trial %d: %d duplicate copies" t.Beacon_campaign.r_trial
      t.Beacon_campaign.r_duplicates
    @ when_ (t.Beacon_campaign.r_data_msgs <= 0) "trial %d: no data messages" t.Beacon_campaign.r_trial
    @ when_
        (t.Beacon_campaign.r_probes_sent <> t.Beacon_campaign.r_sources * p.Beacon_campaign.probes)
        "trial %d: %d probes sent, expected %d sources x %d" t.Beacon_campaign.r_trial
        t.Beacon_campaign.r_probes_sent t.Beacon_campaign.r_sources p.Beacon_campaign.probes
  in
  when_ (List.length r.Beacon_campaign.trials <> p.Beacon_campaign.trials) "%d trials, expected %d"
    (List.length r.Beacon_campaign.trials) p.Beacon_campaign.trials
  @ when_
      (agg.Beacon_matrix.s_sent <> agg.Beacon_matrix.s_got + agg.Beacon_matrix.s_lost)
      "expected %d deliveries, delivered %d + lost %d" agg.Beacon_matrix.s_sent agg.Beacon_matrix.s_got
      agg.Beacon_matrix.s_lost
  @ List.concat_map per_trial r.Beacon_campaign.trials

(* ---------------- fig4m-churn ------------------------------------------ *)

let fig4m (p : Modern_experiment.params) (r : Modern_experiment.result) =
  let balance = r.Modern_experiment.joins - r.Modern_experiment.leaves in
  (match List.rev r.Modern_experiment.checkpoints with
  | [] -> problem "no checkpoints"
  | last :: _ ->
      when_ (last.Modern_experiment.ck_events <> p.Modern_experiment.events) "last checkpoint at %d events, expected %d"
        last.Modern_experiment.ck_events p.Modern_experiment.events
      @ when_
          (last.Modern_experiment.ck_members <> float_of_int balance)
          "final live members %.0f <> joins %d - leaves %d" last.Modern_experiment.ck_members
          r.Modern_experiment.joins r.Modern_experiment.leaves)
  @ when_ (r.Modern_experiment.invariant_violations <> 0) "%d invariant violations"
      r.Modern_experiment.invariant_violations

(* ---------------- explore-ctl ------------------------------------------ *)

(* [ledger] is what {!Ledger.load} read back: entries and malformed
   line count. *)
let explore (c : Explore.config) (s : Explore.summary) ~ledger:(entries, malformed) =
  let trials = List.map (fun (e : Ledger.entry) -> e.Ledger.trial) entries in
  when_ (s.Explore.total <> c.Explore.budget) "%d schedules judged, budget %d" s.Explore.total c.Explore.budget
  @ when_
      (s.Explore.passed + s.Explore.violation + s.Explore.non_convergence <> c.Explore.budget)
      "verdicts %d + %d + %d do not sum to budget %d" s.Explore.passed s.Explore.violation
      s.Explore.non_convergence c.Explore.budget
  @ when_ (malformed <> 0) "ledger: %d malformed lines" malformed
  @ when_ (trials <> List.init c.Explore.budget Fun.id) "ledger: %d entries, expected one per schedule 0..%d"
      (List.length entries) (c.Explore.budget - 1)

(* ---------------- digests ---------------------------------------------- *)

(* A digest of everything deterministic a run produces: identical
   across every run of one commit on one seed and length. *)
let digest parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

let fig2_digest (r : Allocation_sim.result) =
  let holdings hs =
    String.concat " "
      (List.map
         (fun (h : Allocation_sim.holding) ->
           Printf.sprintf "%s:%b:%d" (Prefix.to_string h.Allocation_sim.h_prefix) h.Allocation_sim.h_active
             h.Allocation_sim.h_used)
         hs)
  in
  digest
    (Printf.sprintf "requests=%d failed=%d claims=%d converged=%h" r.Allocation_sim.total_requests
       r.Allocation_sim.failed_requests r.Allocation_sim.claims_made r.Allocation_sim.top_converged_day
    :: (Array.to_list r.Allocation_sim.samples
       |> List.map (fun (s : Allocation_sim.sample) ->
              Printf.sprintf "%h %h %h %d %d %d %d %d %d" s.Allocation_sim.day s.Allocation_sim.utilization
                s.Allocation_sim.grib_avg s.Allocation_sim.grib_max s.Allocation_sim.outstanding_blocks
                s.Allocation_sim.claimed_addresses s.Allocation_sim.demanded_addresses s.Allocation_sim.top_prefixes
                s.Allocation_sim.child_prefixes))
    @ List.map holdings (Array.to_list r.Allocation_sim.final_tops)
    @ List.map holdings (Array.to_list r.Allocation_sim.final_children))

let beacon_digest (r : Beacon_campaign.result) =
  digest
    (Format.asprintf "%a" Beacon_matrix.pp_summary r.Beacon_campaign.agg
    :: List.map
         (fun (t : Beacon_campaign.trial_result) ->
           Printf.sprintf "%d %d %d %d %d %d %d %d %d %d %h %h %h" t.Beacon_campaign.r_seed t.Beacon_campaign.r_domains
             t.Beacon_campaign.r_sources t.Beacon_campaign.r_probes_sent t.Beacon_campaign.r_deliveries
             t.Beacon_campaign.r_lost t.Beacon_campaign.r_duplicates t.Beacon_campaign.r_data_msgs
             t.Beacon_campaign.r_net_sent t.Beacon_campaign.r_net_dropped t.Beacon_campaign.r_converged_s
             t.Beacon_campaign.r_first_probe_s t.Beacon_campaign.r_last_harvest_s)
         r.Beacon_campaign.trials)

(* [pp_summary] leaves out the SPF timing fields, which vary run to run. *)
let fig4m_digest (r : Modern_experiment.result) =
  digest
    [
      Format.asprintf "%a" Modern_experiment.pp_summary r;
      Printf.sprintf "domains=%d links=%d skipped=%d link_events=%d repairs=%d touched=%d" r.Modern_experiment.r_domains
        r.Modern_experiment.r_links r.Modern_experiment.skipped r.Modern_experiment.link_events
        r.Modern_experiment.repairs r.Modern_experiment.touched;
    ]

let explore_digest entries = digest (List.map Ledger.to_json entries)
