(** The canned dbeacon campaign: a transit-stub internet, a beacon
    fleet per domain probing its own group plus an interdomain session
    group rooted at a backbone, trial fan-out over the {!Par} pool.

    Each trial builds its own engine/net/fabric over a seeded
    transit-stub topology (static BFS routes to each group's root),
    joins every beacon losslessly, waits for the trees to settle, then
    turns on the seeded loss rate and runs the probe schedule — so the
    matrix measures {e data-plane} delivery over converged trees, the
    way dbeacon measures a converged multicast internet.  With [churn]
    set, the highest-numbered stub's uplink fails a third of the way
    through the measurement window and is restored at two thirds,
    losing in-flight and at-source probe copies in between.

    Determinism: per-trial seeds are pre-drawn from [seed] on the
    submitting domain, every trial runs under a {!Par.with_shard}, and
    shards/matrices fold back in trial order — results are identical at
    any [--jobs].  Telemetry (an [Obs.Timeseries] driven by the engine
    sampler) is only supported for single-trial runs, like
    [Allocation_sim]. *)

type params = {
  domains : int;  (** target domain count; rounded to the transit-stub shape *)
  per_domain : int;  (** beacons per domain *)
  probes : int;  (** probes per source *)
  period : Time.t;
  harvest_after : Time.t;
  trials : int;
  seed : int;
  loss : float;  (** seeded per-message loss during the probe phase *)
  churn : bool;
  telemetry : (Timeseries.t * Time.t) option;  (** (sink, sample cadence) *)
}

val default_params : params
(** 20 domains, 2 beacons/domain, 3 probes, period 1s, harvest 1s,
    1 trial, seed 1998, no loss, no churn. *)

type trial_result = {
  r_trial : int;
  r_seed : int;
  r_domains : int;
  r_sources : int;
  r_probes_sent : int;
  r_deliveries : int;
  r_lost : int;
  r_duplicates : int;
  r_data_msgs : int;  (** inter-domain data copies the fabric sent *)
  r_net_sent : int;  (** bgmp messages offered to the transport *)
  r_net_dropped : int;
  r_converged_s : float;  (** when the join phase went quiet *)
  r_first_probe_s : float;
  r_last_harvest_s : float;
  r_matrix : Beacon_matrix.t;
}

type result = {
  trials : trial_result list;  (** in trial order *)
  cells : Beacon_matrix.cell list;  (** aggregate matrix over all trials *)
  agg : Beacon_matrix.summary;
}

val run : ?jobs:int -> params -> result
(** @raise Invalid_argument on [trials], [probes] or [per_domain] below
    1, or on telemetry with [trials > 1]. *)
