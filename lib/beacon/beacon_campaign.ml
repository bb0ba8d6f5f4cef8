type params = {
  domains : int;
  per_domain : int;
  probes : int;
  period : Time.t;
  harvest_after : Time.t;
  trials : int;
  seed : int;
  loss : float;
  churn : bool;
  telemetry : (Timeseries.t * Time.t) option;
}

let default_params =
  {
    domains = 20;
    per_domain = 2;
    probes = 3;
    period = Time.seconds 1.0;
    harvest_after = Time.seconds 1.0;
    trials = 1;
    seed = 1998;
    loss = 0.0;
    churn = false;
    telemetry = None;
  }

type trial_result = {
  r_trial : int;
  r_seed : int;
  r_domains : int;
  r_sources : int;
  r_probes_sent : int;
  r_deliveries : int;
  r_lost : int;
  r_duplicates : int;
  r_data_msgs : int;
  r_net_sent : int;
  r_net_dropped : int;
  r_converged_s : float;
  r_first_probe_s : float;
  r_last_harvest_s : float;
  r_matrix : Beacon_matrix.t;
}

type result = {
  trials : trial_result list;
  cells : Beacon_matrix.cell list;
  agg : Beacon_matrix.summary;
}

(* Per-domain ASM groups live in 232/8 (the id is just added into the
   host part), the shared interdomain session on a fixed 239/8 admin
   address — dbeacon's own defaults use the same split. *)
let domain_group d = Ipv4.of_octets 232 0 0 0 + d

let session_group = Ipv4.of_octets 239 0 0 1

(* Round the requested size to the transit-stub shape: 2 backbones × 3
   regionals each × s stubs per regional = 8 + 6s domains. *)
let shape ~domains =
  let stubs = max 1 ((domains - 8) / 6) in
  (2, 3, stubs)

let run_trial p ~trial ~seed =
  let engine = Engine.create () in
  let backbones, regionals, stubs = shape ~domains:p.domains in
  let topo =
    Gen.transit_stub ~rng:(Rng.create seed) ~backbones ~regionals_per_backbone:regionals
      ~stubs_per_regional:stubs
  in
  let n = Topo.domain_count topo in
  let net =
    Net.create ~engine ~config:{ Net.default_config with loss_seed = seed } ()
  in
  (* Static G-RIB: the session group roots at backbone 0, each domain
     group at its own domain; next hops follow unicast shortest paths
     (the congruent-topology M-RIB), memoized per root. *)
  let roots = Hashtbl.create (n + 1) in
  Hashtbl.replace roots session_group 0;
  for d = 0 to n - 1 do
    Hashtbl.replace roots (domain_group d) d
  done;
  let cache = Spf.make_cache topo in
  (* Maintained routing: link churn repairs the cached trees in place
     instead of invalidating them, so routes served mid-outage follow
     the surviving topology. *)
  Net.on_link_change net (fun a b ~up -> Spf.cache_note_link cache ~a ~b ~up);
  let route_to_root dom group =
    match Hashtbl.find_opt roots group with
    | None -> Bgmp_fabric.Unroutable
    | Some root ->
        if dom = root then Bgmp_fabric.Root_here
        else begin
          match Spf.next_hop_toward topo (Spf.bfs_cached cache root) dom with
          | Some next -> Bgmp_fabric.Via next
          | None -> Bgmp_fabric.Unroutable
        end
  in
  let fabric =
    Bgmp_fabric.create ~engine ~topo ~net ~migp_style:(fun _ -> Migp.Pim_sm)
      ~route_to_root ()
  in
  let plan = Membership.beacon_plan topo ~per_domain:p.per_domain in
  let nsources = (n * p.per_domain) + n in
  let cfg =
    {
      Beacon.period = p.period;
      probes_per_source = p.probes;
      harvest_after = p.harvest_after;
      (* Spread all first probes across one period so send bursts do
         not synchronise. *)
      stagger = p.period /. float_of_int nsources;
    }
  in
  let beacon = Beacon.create ~engine ~topo ~fabric ~config:cfg () in
  List.iter
    (fun (d, fleet) ->
      let group = domain_group d in
      List.iter (fun host -> Beacon.add_listener beacon ~group ~host) fleet;
      List.iter (fun host -> Beacon.add_source beacon ~group ~host) fleet)
    plan.Membership.local_fleets;
  List.iter
    (fun host -> Beacon.add_listener beacon ~group:session_group ~host)
    plan.Membership.session_beacons;
  List.iter
    (fun host -> Beacon.add_source beacon ~group:session_group ~host)
    plan.Membership.session_beacons;
  (* Phase 1: let every join propagate losslessly, so the matrix
     measures the data plane over converged trees. *)
  Engine.run_until_idle engine;
  let converged =
    match Engine.converged_at engine with Some t -> t | None -> Engine.now engine
  in
  (match p.telemetry with
  | Some (ts, every) ->
      Beacon.register_series beacon ts;
      Engine.set_sampler engine ~every (fun time -> Timeseries.sample ts ~time)
  | None -> ());
  (* Phase 2: seeded loss applies to the measurement window only. *)
  if p.loss > 0.0 then Net.set_loss_rate net p.loss;
  let first_probe = Engine.now engine in
  Beacon.start beacon ~at:first_probe;
  let last_harvest = Beacon.last_harvest_at beacon in
  if p.churn then begin
    (* The highest-numbered stub loses its uplink a third of the way
       through the window and gets it back at two thirds. *)
    match Topo.providers_of topo (n - 1) with
    | provider :: _ ->
        let window = last_harvest -. first_probe in
        ignore
          (Engine.schedule_at ~label:"beacon.churn" engine
             (first_probe +. (0.35 *. window))
             (fun () -> Bgmp_fabric.fail_link fabric (n - 1) provider));
        ignore
          (Engine.schedule_at ~label:"beacon.churn" engine
             (first_probe +. (0.70 *. window))
             (fun () -> Bgmp_fabric.restore_link fabric (n - 1) provider))
    | [] -> ()
  end;
  Engine.run_until_idle engine;
  {
    r_trial = trial;
    r_seed = seed;
    r_domains = n;
    r_sources = nsources;
    r_probes_sent = Beacon.probes_sent beacon;
    r_deliveries = Beacon.deliveries beacon;
    r_lost = Beacon.lost beacon;
    r_duplicates = Bgmp_fabric.duplicate_deliveries fabric;
    r_data_msgs = Bgmp_fabric.data_messages fabric;
    r_net_sent = Net.sent net ~protocol:"bgmp";
    r_net_dropped = Net.dropped net ~protocol:"bgmp";
    r_converged_s = converged;
    r_first_probe_s = first_probe;
    r_last_harvest_s = last_harvest;
    r_matrix = Beacon.matrix beacon;
  }

let run ?jobs (p : params) =
  if p.trials < 1 then invalid_arg "Beacon_campaign.run: need at least one trial";
  if p.probes < 1 then invalid_arg "Beacon_campaign.run: need at least one probe per source";
  if p.per_domain < 1 then invalid_arg "Beacon_campaign.run: need at least one beacon per domain";
  (match p.telemetry with
  | Some _ when p.trials > 1 ->
      invalid_arg "Beacon_campaign.run: telemetry requires trials = 1"
  | _ -> ());
  let seed_rng = Rng.create p.seed in
  let tasks = List.init p.trials (fun i -> (i, Rng.int seed_rng 0x3FFFFFFF)) in
  let trials =
    match p.telemetry with
    | Some _ ->
        (* Single trial, inline: the timeseries sink belongs to the
           caller's domain and must not be written from a worker. *)
        List.map (fun (i, seed) -> run_trial p ~trial:i ~seed) tasks
    | None ->
        Par.map ?jobs
          (fun (i, seed) -> Par.with_shard (fun () -> run_trial p ~trial:i ~seed))
          tasks
        |> List.map (fun (r, shard) ->
               Par.merge_shard shard;
               r)
  in
  let agg_matrix = Beacon_matrix.create () in
  List.iter (fun r -> Beacon_matrix.merge_into ~into:agg_matrix r.r_matrix) trials;
  let cells = Beacon_matrix.cells agg_matrix in
  { trials; cells; agg = Beacon_matrix.summary cells }
