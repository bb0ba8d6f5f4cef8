type config = {
  period : Time.t;
  probes_per_source : int;
  harvest_after : Time.t;
  stagger : Time.t;
}

let default_config =
  {
    period = Time.seconds 1.0;
    probes_per_source = 5;
    harvest_after = Time.seconds 1.0;
    stagger = Time.seconds 0.010;
  }

(* A probe in its accounting window: sent, not yet harvested. *)
type pending = {
  p_src : Host_ref.t;
  p_group : Ipv4.t;
  p_seq : int;
  p_sent_at : Time.t;
  mutable p_waiting : Host_ref.t list;  (** expected receivers not yet heard from *)
}

type t = {
  engine : Engine.t;
  topo : Topo.t;
  fabric : Bgmp_fabric.t;
  cfg : config;
  matrix : Beacon_matrix.t;
  listeners : (Ipv4.t, Host_ref.t list ref) Hashtbl.t;  (** registration order *)
  mutable sources : (Ipv4.t * Host_ref.t) list;  (** reverse registration order *)
  pending : (int, pending) Hashtbl.t;  (** by payload id *)
  spf : (Domain.id, Spf.paths) Hashtbl.t;  (** BFS memo per source domain *)
  mutable n_sent : int;
  mutable n_delivered : int;
  mutable n_lost : int;
  mutable last_harvest : Time.t;
  m_sent : Metrics.counter;
  m_delivered : Metrics.counter;
  m_lost : Metrics.counter;
  m_outstanding : Metrics.gauge;
}

(* A narrative [note.*] record on the chain of [group]'s traffic from
   [src]; callers guard with [Recorder.is_enabled], so nothing is
   looked up or formatted while recording is off. *)
let note t ~src ~group label fmt =
  Recorder.recordf ~time:(Engine.now t.engine) ~label ~subject:"beacon"
    ~trace_id:(Bgmp_fabric.group_trace_id t.fabric src.Host_ref.host_domain group)
    fmt

let spf_dist t ~from ~to_ =
  if from = to_ then 0
  else begin
    let paths =
      match Hashtbl.find_opt t.spf from with
      | Some p -> p
      | None ->
          let p = Spf.bfs t.topo from in
          Hashtbl.replace t.spf from p;
          p
    in
    Spf.dist paths to_
  end

let on_delivery t ~group:_ ~source:_ ~payload ~host ~hops =
  match Hashtbl.find_opt t.pending payload with
  | None -> ()  (* not a probe, or already harvested: a straggler stays lost *)
  | Some p ->
      if List.exists (Host_ref.equal host) p.p_waiting then begin
        p.p_waiting <- List.filter (fun h -> not (Host_ref.equal host h)) p.p_waiting;
        t.n_delivered <- t.n_delivered + 1;
        Metrics.incr t.m_delivered;
        let latency = Engine.now t.engine -. p.p_sent_at in
        Beacon_matrix.deliver t.matrix ~src:p.p_src ~dst:host ~latency ~hops
          ~spf_dist:
            (spf_dist t ~from:p.p_src.Host_ref.host_domain ~to_:host.Host_ref.host_domain)
      end

let create ~engine ~topo ~fabric ?(config = default_config) () =
  let t =
    {
      engine;
      topo;
      fabric;
      cfg = config;
      matrix = Beacon_matrix.create ();
      listeners = Hashtbl.create 16;
      sources = [];
      pending = Hashtbl.create 256;
      spf = Hashtbl.create 16;
      n_sent = 0;
      n_delivered = 0;
      n_lost = 0;
      last_harvest = Time.zero;
      m_sent = Metrics.counter "beacon.probes_sent";
      m_delivered = Metrics.counter "beacon.deliveries";
      m_lost = Metrics.counter "beacon.lost";
      m_outstanding = Metrics.gauge "beacon.probes_outstanding";
    }
  in
  Bgmp_fabric.set_on_delivery fabric
    (Some (fun ~group ~source ~payload ~host ~hops -> on_delivery t ~group ~source ~payload ~host ~hops));
  t

let add_listener t ~group ~host =
  let l =
    match Hashtbl.find_opt t.listeners group with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace t.listeners group l;
        l
  in
  l := !l @ [ host ];
  Bgmp_fabric.host_join t.fabric ~host ~group

let add_source t ~group ~host = t.sources <- (group, host) :: t.sources

let harvest t payload =
  match Hashtbl.find_opt t.pending payload with
  | None -> ()
  | Some p ->
      let missing = List.length p.p_waiting in
      if missing > 0 then begin
        t.n_lost <- t.n_lost + missing;
        Metrics.add t.m_lost missing;
        (* Lost pairs stay as (sent > got) cells; the recording names them. *)
        if Recorder.is_enabled () then
          List.iter
            (fun dst ->
              note t ~src:p.p_src ~group:p.p_group "note.probe-lost"
                "%a seq %d payload %d never reached %a" Ipv4.pp p.p_group p.p_seq payload
                Host_ref.pp dst)
            p.p_waiting
      end;
      Hashtbl.remove t.pending payload;
      Metrics.set t.m_outstanding (float_of_int (Hashtbl.length t.pending));
      Bgmp_fabric.forget_payload t.fabric ~payload

let fire_probe t ~group ~host ~seq =
  let expected =
    match Hashtbl.find_opt t.listeners group with Some l -> !l | None -> []
  in
  let payload = Bgmp_fabric.next_payload_id t.fabric in
  let p =
    {
      p_src = host;
      p_group = group;
      p_seq = seq;
      p_sent_at = Engine.now t.engine;
      p_waiting = expected;
    }
  in
  List.iter (fun dst -> Beacon_matrix.expect t.matrix ~src:host ~dst) expected;
  Hashtbl.replace t.pending payload p;
  t.n_sent <- t.n_sent + 1;
  Metrics.incr t.m_sent;
  Metrics.set t.m_outstanding (float_of_int (Hashtbl.length t.pending));
  if Recorder.is_enabled () then
    note t ~src:host ~group "note.probe" "%a seq %d payload %d from %a (%d receivers)" Ipv4.pp
      group seq payload Host_ref.pp host (List.length expected);
  let sent = Bgmp_fabric.send t.fabric ~source:host ~group in
  assert (sent = payload);
  ignore
    (Engine.schedule_after ~label:"beacon.harvest" t.engine t.cfg.harvest_after (fun () ->
         harvest t sent))

let start t ~at =
  if at < Engine.now t.engine then invalid_arg "Beacon.start: start time in the past";
  let sources = List.rev t.sources in
  List.iteri
    (fun i (group, host) ->
      for k = 0 to t.cfg.probes_per_source - 1 do
        let when_ =
          at +. (float_of_int i *. t.cfg.stagger) +. (float_of_int k *. t.cfg.period)
        in
        let harvest_done = when_ +. t.cfg.harvest_after in
        if harvest_done > t.last_harvest then t.last_harvest <- harvest_done;
        ignore
          (Engine.schedule_at ~label:"beacon.probe" t.engine when_ (fun () ->
               fire_probe t ~group ~host ~seq:k))
      done)
    sources

let last_harvest_at t = t.last_harvest

let matrix t = t.matrix

let probes_sent t = t.n_sent

let deliveries t = t.n_delivered

let lost t = t.n_lost

let outstanding t = Hashtbl.length t.pending

let register_series t ts =
  Timeseries.register ts "beacon.probes_outstanding" (fun () ->
      float_of_int (Hashtbl.length t.pending));
  Timeseries.register ts "beacon.probes_sent" (fun () -> float_of_int t.n_sent);
  Timeseries.register ts "beacon.deliveries" (fun () -> float_of_int t.n_delivered);
  Timeseries.register ts "beacon.lost" (fun () -> float_of_int t.n_lost)
