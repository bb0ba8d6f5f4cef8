(* Tests for the paper's §4.4 start-up scheme and §7 extensions:
   topology dumps, exchange-seeded top-level spaces, forwarding-state
   aggregation, remote address allocation, and MASC reparenting. *)

let check = Alcotest.check

let prefix_testable = Alcotest.testable Prefix.pp Prefix.equal

(* --- Topo_dump ---------------------------------------------------------- *)

let test_dump_roundtrip () =
  let topo = Gen.figure3 () in
  let text = Topo_dump.to_string topo in
  match Topo_dump.of_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok reloaded ->
      check Alcotest.int "same domain count" (Topo.domain_count topo)
        (Topo.domain_count reloaded);
      check Alcotest.int "same link count" (Topo.link_count topo) (Topo.link_count reloaded);
      List.iter2
        (fun (a : Domain.t) (b : Domain.t) ->
          check Alcotest.string "same name" a.Domain.name b.Domain.name;
          check Alcotest.bool "same kind" true (a.Domain.kind = b.Domain.kind))
        (Topo.domains topo) (Topo.domains reloaded);
      List.iter2
        (fun (la : Topo.link) (lb : Topo.link) ->
          check Alcotest.int "same a" la.Topo.a lb.Topo.a;
          check Alcotest.int "same b" la.Topo.b lb.Topo.b;
          check Alcotest.bool "same rel" true (la.Topo.rel = lb.Topo.rel);
          check (Alcotest.float 1e-9) "same delay" la.Topo.delay lb.Topo.delay)
        (Topo.links topo) (Topo.links reloaded)

let test_dump_parse_basics () =
  let text = "# comment\ndomain X backbone\ndomain Y stub # inline comment\nlink X Y provider 0.02\n" in
  match Topo_dump.of_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok topo ->
      check Alcotest.int "two domains" 2 (Topo.domain_count topo);
      check Alcotest.int "one link" 1 (Topo.link_count topo);
      let l = List.hd (Topo.links topo) in
      check (Alcotest.float 1e-9) "delay parsed" 0.02 (Time.to_seconds l.Topo.delay)

let test_dump_parse_errors () =
  let cases =
    [
      ("domain X nonsense\n", "unknown domain kind");
      ("link A B peer\n", "unknown domain");
      ("domain X stub\ndomain X stub\n", "duplicate domain");
      ("domain X stub\ndomain Y stub\nlink X Y friendship\n", "unknown relationship");
      ("domain X stub\ndomain Y stub\nlink X Y peer -1\n", "bad delay");
      ("frobnicate\n", "unknown record");
    ]
  in
  List.iter
    (fun (text, expected) ->
      match Topo_dump.of_string text with
      | Ok _ -> Alcotest.failf "expected failure for %S" text
      | Error e ->
          check Alcotest.bool
            (Printf.sprintf "error mentions %S (got %S)" expected e)
            true
            (let re = Str.regexp_string expected in
             try
               ignore (Str.search_forward re e 0);
               true
             with Not_found -> false))
    cases

let test_dump_file_io () =
  let topo = Gen.figure1 () in
  let path = Filename.temp_file "topo" ".dump" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Topo_dump.save topo ~path;
      match Topo_dump.load ~path with
      | Ok t -> check Alcotest.int "roundtrip via file" 7 (Topo.domain_count t)
      | Error e -> Alcotest.failf "load failed: %s" e)

let test_dot_rendering () =
  let topo = Gen.figure1 () in
  let dot = Topo_dot.to_dot ~highlight:[ 0; 1 ] ~highlight_edges:[ (0, 1) ] ~label:"t" topo in
  check Alcotest.bool "digraph header" true (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  let contains needle =
    let re = Str.regexp_string needle in
    try
      ignore (Str.search_forward re dot 0);
      true
    with Not_found -> false
  in
  check Alcotest.bool "every domain rendered" true
    (List.for_all (fun (d : Domain.t) -> contains (Printf.sprintf "n%d " d.Domain.id))
       (Topo.domains topo));
  check Alcotest.bool "highlight applied" true (contains "fillcolor");
  check Alcotest.bool "peer links dashed" true (contains "style=dashed");
  check Alcotest.bool "label present" true (contains "label=\"t\"");
  check Alcotest.bool "closed" true (String.length dot >= 2 && String.sub dot (String.length dot - 2) 2 = "}\n")

(* --- §4.4 exchange-seeded start-up -------------------------------------- *)

let test_exchange_partition_assignment () =
  let f = Masc_network.exchange_partition ~tops:[ 10; 20; 30; 40; 50 ] ~exchanges:4 in
  check prefix_testable "first top -> first quarter" (Prefix.of_string "224.0.0.0/6") (f 10);
  check prefix_testable "second top -> second quarter" (Prefix.of_string "228.0.0.0/6") (f 20);
  check prefix_testable "wraps around" (Prefix.of_string "224.0.0.0/6") (f 50);
  check prefix_testable "unknown id falls back to 224/4" Prefix.class_d (f 99);
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Masc_network.exchange_partition: exchange count must be a power of two")
    (fun () ->
      ignore (Masc_network.exchange_partition ~tops:[ 1 ] ~exchanges:3 : Domain.id -> Prefix.t))

let test_exchange_seeded_claims_stay_in_continent () =
  let engine = Engine.create () in
  let tops = [ 0; 1; 2; 3 ] in
  let top_space = Masc_network.exchange_partition ~tops ~exchanges:4 in
  let config =
    { Masc_node.default_config with Masc_node.claim_wait = Time.hours 1.0 }
  in
  let net =
    Masc_network.create ~engine ~rng:(Rng.create 4) ~config ~top_space
      ~parent_of:(fun _ -> None)
      ~ids:tops ()
  in
  Masc_network.start net;
  List.iter (fun id -> Masc_node.request_space (Masc_network.node net id) ~need:4096) tops;
  Engine.run ~until:(Time.days 1.0) engine;
  List.iter
    (fun id ->
      let continental = top_space id in
      let ranges = Masc_node.acquired_ranges (Masc_network.node net id) in
      check Alcotest.bool (Printf.sprintf "top %d acquired" id) true (ranges <> []);
      List.iter
        (fun (c : Masc_node.own_claim) ->
          check Alcotest.bool "claim inside the exchange's continental range" true
            (Prefix.subsumes continental c.Masc_node.claim_prefix))
        ranges)
    tops;
  (* Disjoint continents mean the start-up needs no top-level collision
     traffic at all. *)
  check Alcotest.int "no collisions during start-up" 0 (Masc_network.total_collisions net)

(* --- §7 forwarding-state aggregation ------------------------------------- *)

let test_state_aggregation_collapses_same_targets () =
  let r = Bgmp_router.create ~id:0 ~domain:0 ~name:"R" in
  Bgmp_router.set_classify_root r (fun _ -> Bgmp_router.External 9);
  (* 8 consecutive groups, all joined by the same child: one aggregated
     (star,G-prefix) entry. *)
  let base = Ipv4.of_string "224.1.0.0" in
  for i = 0 to 7 do
    ignore (Bgmp_router.handle_join r ~group:(base + i) ~from:(Bgmp_router.Peer 3))
  done;
  check Alcotest.int "raw entries" 8 (Bgmp_router.entry_count r);
  check Alcotest.int "aggregated to one prefix entry" 1 (Bgmp_router.aggregated_entry_count r);
  (* A group with a different child breaks the run into pieces. *)
  ignore (Bgmp_router.handle_join r ~group:(base + 3) ~from:(Bgmp_router.Peer 4));
  check Alcotest.bool "different targets split the aggregate" true
    (Bgmp_router.aggregated_entry_count r > 1);
  check Alcotest.bool "but far fewer than raw" true
    (Bgmp_router.aggregated_entry_count r < Bgmp_router.entry_count r)

let test_state_aggregation_alignment_matters () =
  let r = Bgmp_router.create ~id:0 ~domain:0 ~name:"R" in
  Bgmp_router.set_classify_root r (fun _ -> Bgmp_router.External 9);
  (* Two groups that are NOT CIDR buddies cannot collapse. *)
  ignore (Bgmp_router.handle_join r ~group:(Ipv4.of_string "224.1.0.1") ~from:(Bgmp_router.Peer 3));
  ignore (Bgmp_router.handle_join r ~group:(Ipv4.of_string "224.1.0.2") ~from:(Bgmp_router.Peer 3));
  check Alcotest.int "misaligned pair stays at two" 2 (Bgmp_router.aggregated_entry_count r)

(* --- §7 remote address allocation ---------------------------------------- *)

let test_remote_address_allocation () =
  let topo = Gen.figure1 () in
  let inet = Internet.create ~config:Internet.quick_config topo in
  Internet.start inet;
  Internet.run_for inet (Time.hours 2.0);
  let dom name = Option.get (Topo.find_by_name topo name) in
  (* Initiator in G knows the dominant source will be in B: allocate
     from B so the tree roots there.  The recorder's ring keeps the
     newest records, so the allocation note is still in it. *)
  let rec get tries =
    match Internet.request_address_in inet ~initiator:(dom "G") ~root:(dom "B") with
    | Some a -> a
    | None ->
        if tries > 30 then Alcotest.fail "allocation did not settle"
        else begin
          Internet.run_for inet (Time.hours 1.0);
          get (tries + 1)
        end
  in
  let alloc =
    Fun.protect ~finally:Recorder.disable (fun () ->
        Recorder.enable ();
        get 0)
  in
  check (Alcotest.option Alcotest.int) "rooted at B, not at the initiator" (Some (dom "B"))
    (Internet.root_domain_of inet alloc.Maas.address);
  check Alcotest.bool "recorded" true
    (List.exists (fun r -> r.Recorder.r_label = "note.remote-alloc") (Recorder.recent ()))

(* --- multi-provider reparenting ------------------------------------------ *)

let reparent_setup () =
  (* Two top-level providers 0 and 1; child 2 starts under 0. *)
  let engine = Engine.create () in
  let config =
    {
      Masc_node.default_config with
      Masc_node.claim_wait = Time.hours 1.0;
      claim_lifetime = Time.days 3.0;
      renew_margin = Time.hours 12.0;
    }
  in
  let net =
    Masc_network.create ~engine ~rng:(Rng.create 5) ~config
      ~parent_of:(fun id -> if id = 2 then Some 0 else None)
      ~ids:[ 0; 1; 2 ] ()
  in
  Masc_network.start net;
  (engine, net)

let test_reparent_reclaims_from_new_parent () =
  let engine, net = reparent_setup () in
  let child = Masc_network.node net 2 in
  Masc_node.request_space child ~need:256;
  Engine.run ~until:(Time.days 1.0) engine;
  let old_range =
    match Masc_node.acquired_ranges child with
    | [ c ] -> c.Masc_node.claim_prefix
    | _ -> Alcotest.fail "expected one range under the old parent"
  in
  (* Old provider 0's space covers the range. *)
  let covers0 =
    List.map (fun (c : Masc_node.own_claim) -> c.Masc_node.claim_prefix)
      (Masc_node.bgp_ranges (Masc_network.node net 0))
  in
  check Alcotest.bool "old range under provider 0" true
    (List.exists (fun p -> Prefix.subsumes p old_range) covers0);
  (* Switch to provider 1 and demand more space. *)
  Masc_network.reparent net ~child:2 ~new_parent:1;
  Masc_node.request_space child ~need:256;
  Engine.run ~until:(Time.days 2.0) engine;
  let fresh =
    List.filter
      (fun (c : Masc_node.own_claim) ->
        c.Masc_node.claim_active && not (Prefix.equal c.Masc_node.claim_prefix old_range))
      (Masc_node.acquired_ranges child)
  in
  check Alcotest.bool "fresh range acquired after reparent" true (fresh <> []);
  let covers1 =
    List.map (fun (c : Masc_node.own_claim) -> c.Masc_node.claim_prefix)
      (Masc_node.bgp_ranges (Masc_network.node net 1))
  in
  List.iter
    (fun (c : Masc_node.own_claim) ->
      check Alcotest.bool "fresh range under provider 1" true
        (List.exists (fun p -> Prefix.subsumes p c.Masc_node.claim_prefix) covers1))
    fresh

let test_reparent_drains_old_claims () =
  let engine, net = reparent_setup () in
  let child = Masc_network.node net 2 in
  Masc_node.request_space child ~need:256;
  Engine.run ~until:(Time.days 1.0) engine;
  (match Masc_node.acquired_ranges child with
  | [ c ] -> Masc_node.note_assigned child c.Masc_node.claim_prefix 5
  | _ -> Alcotest.fail "expected one range");
  Masc_network.reparent net ~child:2 ~new_parent:1;
  (* Usage drains: simulate the last addresses being freed. *)
  Engine.run ~until:(Time.days 2.0) engine;
  (match Masc_node.all_claims child with
  | c :: _ -> Masc_node.note_assigned child c.Masc_node.claim_prefix (-5)
  | [] -> ());
  (* Without renewal (outside the new parent's covers) the claim must
     lapse within a couple of lifetimes. *)
  Engine.run ~until:(Time.days 12.0) engine;
  List.iter
    (fun (c : Masc_node.own_claim) ->
      check Alcotest.bool "no active claim from the old provider's space" true
        (c.Masc_node.claim_active = false || c.Masc_node.claim_arena = Masc_node.Down
        ||
        let covers1 =
          List.map
            (fun (x : Masc_node.own_claim) -> x.Masc_node.claim_prefix)
            (Masc_node.bgp_ranges (Masc_network.node net 1))
        in
        List.exists (fun p -> Prefix.subsumes p c.Masc_node.claim_prefix) covers1))
    (Masc_node.all_claims child)

let test_reparent_rejects_top_level () =
  let _, net = reparent_setup () in
  Alcotest.check_raises "top-level cannot reparent"
    (Invalid_argument "Masc_network.reparent: child is top-level") (fun () ->
      Masc_network.reparent net ~child:0 ~new_parent:1)

let suite =
  [
    ("dump roundtrip", `Quick, test_dump_roundtrip);
    ("dump parse basics", `Quick, test_dump_parse_basics);
    ("dump parse errors", `Quick, test_dump_parse_errors);
    ("dump file io", `Quick, test_dump_file_io);
    ("dot rendering", `Quick, test_dot_rendering);
    ("exchange partition assignment", `Quick, test_exchange_partition_assignment);
    ("exchange-seeded claims stay continental", `Quick, test_exchange_seeded_claims_stay_in_continent);
    ("state aggregation collapses same targets", `Quick, test_state_aggregation_collapses_same_targets);
    ("state aggregation alignment matters", `Quick, test_state_aggregation_alignment_matters);
    ("remote address allocation", `Quick, test_remote_address_allocation);
    ("reparent reclaims from new parent", `Quick, test_reparent_reclaims_from_new_parent);
    ("reparent drains old claims", `Quick, test_reparent_drains_old_claims);
    ("reparent rejects top level", `Quick, test_reparent_rejects_top_level);
  ]
