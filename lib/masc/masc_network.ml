type t = {
  engine : Engine.t;
  net : Net.t;
  nodes : (Domain.id, Masc_node.t) Hashtbl.t;
  node_ids : Domain.id list;
  (* MASC talks along overlay edges (parent/child, top-sibling) that
     need not be topology links; channels are created on first use per
     directed pair. *)
  channels : (Domain.id * Domain.id, Masc_message.t Net.channel) Hashtbl.t;
  delay : Time.t;
}

let message_span = function
  | Masc_message.Claim_announce { span; _ } | Masc_message.Collision_announce { span; _ } -> span
  | Masc_message.Space_advertise _ | Masc_message.Claim_release _ | Masc_message.Need_space _ ->
      None

let channel_to t ~src ~dst =
  match Hashtbl.find_opt t.channels (src, dst) with
  | Some ch -> ch
  | None ->
      let ch =
        Net.channel t.net ~protocol:"masc" ~src ~dst ~delay:t.delay ~recv:(fun msg ->
            match Hashtbl.find_opt t.nodes dst with
            | Some receiver -> Masc_node.receive receiver ~from_:src msg
            | None -> ())
      in
      Hashtbl.add t.channels (src, dst) ch;
      ch

let exchange_partition ~tops ~exchanges =
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  let bits = log2 exchanges in
  if exchanges <= 0 || 1 lsl bits <> exchanges then
    invalid_arg "Masc_network.exchange_partition: exchange count must be a power of two";
  let len = Prefix.len Prefix.class_d + bits in
  let assignment = Hashtbl.create (List.length tops) in
  List.iteri
    (fun i top ->
      Hashtbl.replace assignment top (Prefix.nth_subprefix Prefix.class_d len (i mod exchanges)))
    tops;
  fun id ->
    match Hashtbl.find_opt assignment id with
    | Some p -> p
    | None -> Prefix.class_d

let create ~engine ~rng ?(config = Masc_node.default_config) ?(top_space = fun _ -> Prefix.class_d)
    ?net ~parent_of ~ids () =
  let net = match net with Some n -> n | None -> Net.create ~engine () in
  let t =
    {
      engine;
      net;
      nodes = Hashtbl.create (List.length ids);
      node_ids = ids;
      channels = Hashtbl.create 16;
      delay = Time.seconds 0.05;
    }
  in
  (* Create nodes. *)
  List.iter
    (fun id ->
      let role =
        match parent_of id with
        | Some p -> Masc_node.Child p
        | None -> Masc_node.Top
      in
      let node = Masc_node.create ~id ~role ~config ~engine ~rng:(Rng.split rng) in
      Hashtbl.replace t.nodes id node)
    ids;
  (* Children lists, top meshes, bootstrap, transport. *)
  let tops = List.filter (fun id -> parent_of id = None) ids in
  List.iter
    (fun id ->
      let node = Hashtbl.find t.nodes id in
      let children = List.filter (fun c -> parent_of c = Some id) ids in
      Masc_node.set_children node children;
      (match Masc_node.role node with
      | Masc_node.Top ->
          Masc_node.bootstrap_top node (top_space id);
          Masc_node.set_top_siblings node (List.filter (fun s -> s <> id) tops)
      | Masc_node.Child _ -> ());
      Masc_node.set_transport node (fun ~dst msg ->
          Net.send (channel_to t ~src:id ~dst) ?span:(message_span msg) msg))
    ids;
  t

let of_topo ~engine ~rng ?config ?net topo =
  let parent_of id =
    match Topo.providers_of topo id with
    | [] -> None
    | p :: _ -> Some p
  in
  let ids = List.map (fun d -> d.Domain.id) (Topo.domains topo) in
  create ~engine ~rng ?config ?net ~parent_of ~ids ()

let node t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None -> raise Not_found

let ids t = t.node_ids

let start t =
  (* Tops first so their space advertisements precede child activity. *)
  let tops, rest =
    List.partition (fun id -> Masc_node.role (node t id) = Masc_node.Top) t.node_ids
  in
  List.iter (fun id -> Masc_node.start (node t id)) tops;
  List.iter (fun id -> Masc_node.start (node t id)) rest

let reparent t ~child ~new_parent =
  let child_node = node t child in
  let parent_node =
    match Hashtbl.find_opt t.nodes new_parent with
    | Some n -> n
    | None -> invalid_arg "Masc_network.reparent: unknown parent"
  in
  (match Masc_node.role child_node with
  | Masc_node.Top -> invalid_arg "Masc_network.reparent: child is top-level"
  | Masc_node.Child old_parent -> (
      match Hashtbl.find_opt t.nodes old_parent with
      | Some old_node ->
          Masc_node.set_children old_node
            (List.filter
               (fun c -> c <> child)
               (List.filter_map
                  (fun id ->
                    match Masc_node.role (node t id) with
                    | Masc_node.Child p when p = old_parent -> Some id
                    | Masc_node.Child _ | Masc_node.Top -> None)
                  t.node_ids))
      | None -> ()));
  Masc_node.reparent child_node ~new_parent;
  let siblings =
    List.filter_map
      (fun id ->
        match Masc_node.role (node t id) with
        | Masc_node.Child p when p = new_parent -> Some id
        | Masc_node.Child _ | Masc_node.Top -> None)
      t.node_ids
  in
  Masc_node.set_children parent_node siblings;
  Masc_node.start parent_node;
  (* Push the new parent's space to all its children (including the
     newcomer) right away — over the transport, like any other
     advertisement. *)
  Net.send
    (channel_to t ~src:new_parent ~dst:child)
    (Masc_message.Space_advertise (Address_space.covers (Masc_node.children_view parent_node)))

let net t = t.net

let partition t a b = Net.fail_link t.net a b

let heal t a b = Net.restore_link t.net a b

let messages_sent t = Net.sent t.net ~protocol:"masc"

let messages_dropped t = Net.dropped t.net ~protocol:"masc"

let total_collisions t =
  List.fold_left (fun acc id -> acc + Masc_node.collisions_suffered (node t id)) 0 t.node_ids
