let m_claims = Metrics.counter "masc.claims"

let m_collisions = Metrics.counter "masc.collisions"

let m_reclaims = Metrics.counter "masc.reclaims"

(* How long a MAAS-side space request waits before the claim machinery
   satisfies it (0 when existing space suffices immediately). *)
let m_request_wait =
  Metrics.histogram "masc.request_wait_s"
    ~limits:[| 0.0; Time.hours 1.0; Time.hours 12.0; Time.days 1.0; Time.days 2.0; Time.days 7.0 |]

type config = {
  claim_wait : Time.t;
  claim_lifetime : Time.t;
  renew_margin : Time.t;
  policy : Claim_policy.params;
  child_expand_headroom : float;
}

let default_config =
  {
    claim_wait = Time.hours 48.0;
    claim_lifetime = Time.days 30.0;
    renew_margin = Time.hours 24.0;
    policy = Claim_policy.default_params;
    child_expand_headroom = Claim_policy.default_params.Claim_policy.threshold;
  }

type role = Top | Child of Domain.id

type claim_state = Waiting | Acquired

type arena_kind = Up | Down

type own_claim = {
  claim_arena : arena_kind;
  claim_prefix : Prefix.t;
  mutable claim_lifetime_end : Time.t;
  mutable claim_state : claim_state;
  mutable claim_active : bool;
  claim_span : Span.t;  (** root of this claim's causal chain *)
}

(* Extra per-claim protocol state kept private to the implementation. *)
type claim_ctl = {
  claim : own_claim;
  mutable absorbing : Prefix.t option;  (** old prefix this claim doubles *)
  mutable consolidating : bool;
  mutable wait_timer : Engine.handle option;
  mutable renew_timer : Engine.handle option;
}

type foreign_claim = { f_owner : Domain.id; mutable f_expiry : Time.t }

type t = {
  self : Domain.id;
  mutable node_role : role;
  config : config;
  engine : Engine.t;
  rng : Rng.t;
  subject : string;  (** recorder subject of this node's notes *)
  mutable transport : dst:Domain.id -> Masc_message.t -> unit;
  mutable children : Domain.id list;
  mutable top_siblings : Domain.id list;
  up_space : Address_space.t;
  down_space : Address_space.t;
  up_foreign : (Prefix.t, foreign_claim) Hashtbl.t;
  down_foreign : (Prefix.t, foreign_claim) Hashtbl.t;
  mutable own : claim_ctl list;
  assigned_tbl : (Prefix.t, int) Hashtbl.t;
  mutable pending : (int * Time.t) list;
      (** outstanding MAAS needs: (address count, time enqueued) *)
  mutable child_needs : int list;
      (** children's unsatisfied space requests, retried as our own
          space grows (multi-level hierarchies: the grandparent's grant
          arrives after the child asked) *)
  mutable on_acquired : (Prefix.t -> lifetime_end:Time.t -> span:Span.t -> unit) list;
  mutable on_replaced : (old_prefix:Prefix.t -> by:Prefix.t -> unit) list;
  mutable on_lost : (Prefix.t -> unit) list;
  mutable on_space_changed : (unit -> unit) list;
  mutable collisions_suffered : int;
  mutable claims_made : int;
  mutable started : bool;
}

let create ~id ~role ~config ~engine ~rng =
  {
    self = id;
    node_role = role;
    config;
    engine;
    rng;
    subject = Printf.sprintf "masc-%d" id;
    transport = (fun ~dst:_ _ -> ());
    children = [];
    top_siblings = [];
    up_space = Address_space.create ();
    down_space = Address_space.create ();
    up_foreign = Hashtbl.create 16;
    down_foreign = Hashtbl.create 16;
    own = [];
    assigned_tbl = Hashtbl.create 8;
    pending = [];
    child_needs = [];
    on_acquired = [];
    on_replaced = [];
    on_lost = [];
    on_space_changed = [];
    collisions_suffered = 0;
    claims_made = 0;
    started = false;
  }

let id t = t.self

let role t = t.node_role

let set_transport t f = t.transport <- f

let set_children t children = t.children <- children

let set_top_siblings t sibs = t.top_siblings <- sibs

let add_on_acquired t f = t.on_acquired <- t.on_acquired @ [ f ]

let add_on_replaced t f = t.on_replaced <- t.on_replaced @ [ f ]

let add_on_lost t f = t.on_lost <- t.on_lost @ [ f ]

let add_on_space_changed t f = t.on_space_changed <- t.on_space_changed @ [ f ]

let bootstrap_top t prefix = Address_space.add_cover t.up_space prefix

let has_children t = t.children <> []

let arena_space t = function Up -> t.up_space | Down -> t.down_space

let foreign_tbl t = function Up -> t.up_foreign | Down -> t.down_foreign

(* The arena a local MAAS draws from: leaf domains use their MASC
   allocation directly; transit domains reserve self ranges against
   their children. *)
let maas_arena t = if has_children t then Down else Up

let own_in t arena = List.filter (fun c -> c.claim.claim_arena = arena) t.own

(* A narrative [note.*] record; formats nothing while recording is off. *)
let note t label ?span fmt =
  Recorder.recordf ~time:(Engine.now t.engine) ~label ~subject:t.subject ?span fmt

let send t dst msg = t.transport ~dst msg

let announce_targets t = function
  | Up -> ( match t.node_role with Child parent -> [ parent ] | Top -> t.top_siblings)
  | Down -> t.children

let assigned_in t prefix = Option.value ~default:0 (Hashtbl.find_opt t.assigned_tbl prefix)

(* Addresses in use inside one of our claims: MAAS assignments, plus (for
   Up claims of a transit domain) everything the children have claimed
   out of it. *)
let used_in t c =
  let direct = assigned_in t c.claim.claim_prefix in
  match c.claim.claim_arena with
  | Down -> direct
  | Up ->
      if has_children t then
        direct
        + List.fold_left
            (fun acc (p, _) ->
              if Prefix.subsumes c.claim.claim_prefix p then acc + Prefix.size p else acc)
            0
            (Address_space.claims t.down_space)
      else direct

let policy_claims t arena =
  List.map
    (fun c ->
      {
        Claim_policy.prefix = c.claim.claim_prefix;
        active = c.claim.claim_active && c.claim.claim_state = Acquired;
        used = used_in t c;
      })
    (own_in t arena)

let acquired_ranges t =
  List.rev
    (List.filter_map
       (fun c ->
         if c.claim.claim_arena = maas_arena t && c.claim.claim_state = Acquired then
           Some c.claim
         else None)
       t.own)

let bgp_ranges t =
  List.rev
    (List.filter_map
       (fun c ->
         if c.claim.claim_arena = Up && c.claim.claim_state = Acquired then Some c.claim
         else None)
       t.own)

let all_claims t = List.rev_map (fun c -> c.claim) t.own

let space_view t = t.up_space

let children_view t = t.down_space

let pending_requests t = List.length t.pending

let collisions_suffered t = t.collisions_suffered

let claims_made t = t.claims_made

let advertise_space_to_children t =
  if has_children t then begin
    let covers = Address_space.covers t.down_space in
    List.iter (fun child -> send t child (Masc_message.Space_advertise covers)) t.children
  end

let refresh_down_covers t =
  if has_children t then begin
    List.iter (Address_space.remove_cover t.down_space) (Address_space.covers t.down_space);
    List.iter
      (fun c ->
        if c.claim.claim_arena = Up && c.claim.claim_state = Acquired then
          Address_space.add_cover t.down_space c.claim.claim_prefix)
      t.own;
    advertise_space_to_children t
  end

let signal_space_changed t =
  ignore
    (Engine.schedule_after ~label:"masc.space_changed" t.engine Time.zero (fun () ->
         List.iter (fun f -> f ()) t.on_space_changed))

(* ------------------------------------------------------------------ *)
(* Claim lifecycle                                                     *)
(* ------------------------------------------------------------------ *)

let remove_own t ctl ~release ~lost =
  (match ctl.wait_timer with Some h -> Engine.cancel h | None -> ());
  (match ctl.renew_timer with Some h -> Engine.cancel h | None -> ());
  (* The registry slot for this prefix may already have been handed to a
     collision winner; only drop it when it is still ours. *)
  (let space = arena_space t ctl.claim.claim_arena in
   match Address_space.owner_of space ctl.claim.claim_prefix with
   | Some owner when owner = t.self -> Address_space.unregister space ctl.claim.claim_prefix
   | Some _ | None -> ());
  t.own <- List.filter (fun c -> c != ctl) t.own;
  if release then
    List.iter
      (fun dst ->
        send t dst
          (Masc_message.Claim_release { owner = t.self; prefix = ctl.claim.claim_prefix }))
      (announce_targets t ctl.claim.claim_arena);
  if lost && ctl.claim.claim_state = Acquired then begin
    if ctl.claim.claim_arena = Up then begin
      List.iter (fun f -> f ctl.claim.claim_prefix) t.on_lost;
      refresh_down_covers t
    end;
    signal_space_changed t
  end

let announce_claim t ctl =
  List.iter
    (fun dst ->
      send t dst
        (Masc_message.Claim_announce
           {
             owner = t.self;
             prefix = ctl.claim.claim_prefix;
             lifetime_end = ctl.claim.claim_lifetime_end;
             span = Some ctl.claim.claim_span;
           }))
    (announce_targets t ctl.claim.claim_arena)

let rec schedule_renewal t ctl =
  let at = max (Engine.now t.engine) (ctl.claim.claim_lifetime_end -. t.config.renew_margin) in
  ctl.renew_timer <-
    Some (Engine.schedule_at ~label:"masc.renew" t.engine at (fun () -> renewal_decision t ctl))

and renewal_decision t ctl =
  if List.memq ctl t.own then begin
    (* A claim may only be renewed while it still lies inside the space
       it was drawn from (§4.3.1: a child's lifetime is bounded by the
       parent's range) — after a reparent or a parent consolidation the
       claim drains instead. *)
    let inside_covers =
      List.exists
        (fun cover -> Prefix.subsumes cover ctl.claim.claim_prefix)
        (Address_space.covers (arena_space t ctl.claim.claim_arena))
    in
    let still_needed =
      inside_covers && (used_in t ctl > 0 || (ctl.claim.claim_active && t.pending <> []))
    in
    if still_needed then begin
      ctl.claim.claim_lifetime_end <- Engine.now t.engine +. t.config.claim_lifetime;
      note t "note.renew" "%a until %a" Prefix.pp ctl.claim.claim_prefix Time.pp
        ctl.claim.claim_lifetime_end;
      announce_claim t ctl;
      schedule_renewal t ctl
    end
    else begin
      (* Let the claim lapse at its lifetime end. *)
      let expiry = ctl.claim.claim_lifetime_end in
      ctl.claim.claim_active <- false;
      ctl.renew_timer <-
        Some
          (Engine.schedule_at ~label:"masc.expire" t.engine (max expiry (Engine.now t.engine))
             (fun () ->
               if List.memq ctl t.own && used_in t ctl = 0 then begin
                 note t "note.expire" "%a" Prefix.pp ctl.claim.claim_prefix;
                 remove_own t ctl ~release:true ~lost:true
               end
               else if List.memq ctl t.own then begin
                 if
                   List.exists
                     (fun cover -> Prefix.subsumes cover ctl.claim.claim_prefix)
                     (Address_space.covers (arena_space t ctl.claim.claim_arena))
                 then begin
                   (* Usage reappeared before expiry: renew after all. *)
                   ctl.claim.claim_lifetime_end <- Engine.now t.engine +. t.config.claim_lifetime;
                   announce_claim t ctl;
                   schedule_renewal t ctl
                 end
                 else
                   (* Still draining outside the covers: check again in a
                      lifetime; release happens once usage hits zero. *)
                   schedule_renewal t ctl
               end))
    end
  end

let rec finish_wait t ctl =
  if List.memq ctl t.own && ctl.claim.claim_state = Waiting then begin
    ctl.claim.claim_state <- Acquired;
    let acquired_span = Span.child ctl.claim.claim_span in
    note t "note.acquired" ~span:acquired_span "%a" Prefix.pp ctl.claim.claim_prefix;
    Engine.note_activity t.engine "masc";
    (* A doubling claim absorbs the prefix it grew from. *)
    (match ctl.absorbing with
    | Some old_prefix -> (
        match
          List.find_opt
            (fun c ->
              Prefix.equal c.claim.claim_prefix old_prefix
              && c.claim.claim_arena = ctl.claim.claim_arena)
            t.own
        with
        | Some old_ctl ->
            let moved = assigned_in t old_prefix in
            if moved > 0 then begin
              Hashtbl.remove t.assigned_tbl old_prefix;
              Hashtbl.replace t.assigned_tbl ctl.claim.claim_prefix
                (assigned_in t ctl.claim.claim_prefix + moved)
            end;
            remove_own t old_ctl ~release:true ~lost:false;
            if ctl.claim.claim_arena = Up || old_ctl.claim.claim_arena = ctl.claim.claim_arena
            then
              List.iter
                (fun f -> f ~old_prefix ~by:ctl.claim.claim_prefix)
                t.on_replaced
        | None -> ())
    | None -> ());
    if ctl.consolidating then
      List.iter
        (fun c ->
          if c != ctl && c.claim.claim_arena = ctl.claim.claim_arena then
            c.claim.claim_active <- false)
        t.own;
    if ctl.claim.claim_arena = Up then begin
      List.iter
        (fun f ->
          f ctl.claim.claim_prefix ~lifetime_end:ctl.claim.claim_lifetime_end
            ~span:acquired_span)
        t.on_acquired;
      refresh_down_covers t
    end;
    schedule_renewal t ctl;
    signal_space_changed t;
    process_pending t
  end

and start_claim t arena ~want_len ?(absorbing = None) ?(consolidating = false) () =
  let space = arena_space t arena in
  let candidate =
    match absorbing with
    | Some p -> if Address_space.can_double space p then Some (Prefix.double p) else None
    | None -> Address_space.choose_claim space ~rng:t.rng ~want_len
  in
  match candidate with
  | None -> false
  | Some prefix ->
      (* Doubling registers a prefix that covers our own old claim; the
         arena allows overlapping registrations, and same-owner overlap
         is not a collision. *)
      (match Address_space.owner_of space prefix with
      | Some _ -> Address_space.unregister space prefix
      | None -> ());
      Address_space.register space ~owner:t.self prefix;
      let claim_span = Span.root (Span.claim_id ~owner:t.self (Prefix.to_string prefix)) in
      let claim =
        {
          claim_arena = arena;
          claim_prefix = prefix;
          claim_lifetime_end = Engine.now t.engine +. t.config.claim_lifetime;
          claim_state = Waiting;
          claim_active = true;
          claim_span;
        }
      in
      let ctl = { claim; absorbing; consolidating; wait_timer = None; renew_timer = None } in
      t.own <- ctl :: t.own;
      t.claims_made <- t.claims_made + 1;
      Metrics.incr m_claims;
      Engine.note_activity t.engine "masc";
      note t "note.claim" ~span:claim_span "%a (%s)" Prefix.pp prefix
        (match (absorbing, consolidating) with
        | Some _, _ -> "double"
        | None, true -> "consolidate"
        | None, false -> "new");
      announce_claim t ctl;
      ctl.wait_timer <-
        Some
          (Engine.schedule_after ~label:"masc.claim_wait" t.engine t.config.claim_wait (fun () ->
               finish_wait t ctl));
      true

and escalate_up t ~need =
  match t.node_role with
  | Child parent ->
      note t "note.need-space" "%d addresses" need;
      send t parent (Masc_message.Need_space need)
  | Top -> note t "note.blocked" "224/4 exhausted for need %d" need

(* Apply the §4.3.3 policy for [need] addresses in [arena]; returns true
   when the demand is already satisfiable from existing space. *)
and try_grow t arena ~need =
  let growth_in_flight =
    List.exists
      (fun c -> c.claim.claim_arena = arena && c.claim.claim_state = Waiting)
      t.own
  in
  if growth_in_flight then false
  else begin
    let decision =
      Claim_policy.decide ~params:t.config.policy ~space:(arena_space t arena)
        ~claims:(policy_claims t arena) ~need
    in
    match decision with
    | Claim_policy.Assign _ -> true
    | Claim_policy.Double p ->
        if not (start_claim t arena ~want_len:(Prefix.len p - 1) ~absorbing:(Some p) ()) then
          grow_or_escalate t arena ~need ~want_len:(Prefix.mask_for_count need);
        false
    | Claim_policy.Claim_new len ->
        grow_or_escalate t arena ~need ~want_len:len;
        false
    | Claim_policy.Consolidate len ->
        if not (start_claim t arena ~want_len:len ~consolidating:true ()) then
          grow_or_escalate t arena ~need ~want_len:(Prefix.mask_for_count need);
        false
    | Claim_policy.Blocked ->
        grow_or_escalate t arena ~need ~want_len:(Prefix.mask_for_count need);
        false
  end

and grow_or_escalate t arena ~need ~want_len =
  if not (start_claim t arena ~want_len ()) then begin
    match arena with
    | Up -> escalate_up t ~need
    | Down ->
        (* Our own space is full: grow the Up arena, which on acquisition
           refreshes the Down covers and retries pending work. *)
        ignore (try_grow t Up ~need)
  end

and process_pending t =
  let arena = maas_arena t in
  let now = Engine.now t.engine in
  let still_pending =
    List.filter
      (fun (need, since) ->
        if try_grow t arena ~need then begin
          Metrics.observe m_request_wait (now -. since);
          false
        end
        else true)
      t.pending
  in
  let satisfied = List.length t.pending - List.length still_pending in
  t.pending <- still_pending;
  if satisfied > 0 then signal_space_changed t;
  retry_child_needs t

(* Children whose Need_space we could not satisfy yet: drop each once
   our space offers that much room, otherwise keep pushing our own
   growth. *)
and retry_child_needs t =
  if t.child_needs <> [] then
    t.child_needs <-
      List.filter
        (fun need ->
          if Address_space.free_addresses t.down_space >= need then false
          else begin
            ignore (try_grow t Up ~need);
            true
          end)
        t.child_needs

let request_space t ~need =
  if need <= 0 then invalid_arg "Masc_node.request_space: non-positive need";
  if try_grow t (maas_arena t) ~need then begin
    Metrics.observe m_request_wait 0.0;
    signal_space_changed t
  end
  else t.pending <- t.pending @ [ (need, Engine.now t.engine) ]

let note_assigned t prefix n =
  Hashtbl.replace t.assigned_tbl prefix (max 0 (assigned_in t prefix + n))

(* ------------------------------------------------------------------ *)
(* Parent-side behaviour                                               *)
(* ------------------------------------------------------------------ *)

(* Expand our own (Up) space when the children's claims crowd it. *)
let check_children_pressure t =
  if has_children t then begin
    let total = Address_space.total_addresses t.down_space in
    let used =
      List.fold_left (fun acc (p, _) -> acc + Prefix.size p) 0 (Address_space.claims t.down_space)
    in
    if total = 0 then ignore (try_grow t Up ~need:256)
    else begin
      let headroom = t.config.child_expand_headroom in
      if float_of_int used > headroom *. float_of_int total then begin
        let target = int_of_float (ceil (float_of_int used /. headroom)) in
        let need = max 256 (target - total) in
        ignore (try_grow t Up ~need)
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Collision machinery                                                 *)
(* ------------------------------------------------------------------ *)

let send_collision t ~arena ~victim ~victim_prefix ~winner_prefix ~span =
  let route =
    match arena with
    | Down -> [ victim ]  (* our child: direct *)
    | Up -> (
        match t.node_role with
        | Top -> [ victim ]
        | Child parent -> [ parent ]  (* the parent relays to the sibling *))
  in
  List.iter
    (fun dst ->
      send t dst
        (Masc_message.Collision_announce
           { victim; victim_prefix; winner = t.self; winner_prefix; span }))
    route

let register_foreign t arena ~owner ~prefix ~lifetime_end =
  let space = arena_space t arena in
  let tbl = foreign_tbl t arena in
  (match Address_space.owner_of space prefix with
  | Some existing when existing <> owner ->
      (* Exact-prefix conflict between two other domains: keep the
         deterministic winner (lower id) in our view. *)
      if owner < existing then begin
        Address_space.unregister space prefix;
        Address_space.register space ~owner prefix;
        Hashtbl.replace tbl prefix { f_owner = owner; f_expiry = lifetime_end }
      end
  | Some _ -> Hashtbl.replace tbl prefix { f_owner = owner; f_expiry = lifetime_end }
  | None ->
      Address_space.register space ~owner prefix;
      Hashtbl.replace tbl prefix { f_owner = owner; f_expiry = lifetime_end })

let unregister_foreign t arena prefix =
  Address_space.unregister (arena_space t arena) prefix;
  Hashtbl.remove (foreign_tbl t arena) prefix

(* Another domain claimed [prefix]; fight for any of our overlapping
   claims in that arena.  Returns [(foreign_wins, losers)]: whether the
   foreign claim survived every duel, and which of our own claims lost.
   Losers are NOT yet removed — the caller registers the winning foreign
   claim first so that re-claims cannot pick the contested range again. *)
let duel_own_claims t arena ~owner ~prefix =
  let overlapping =
    List.filter (fun c -> Prefix.overlaps c.claim.claim_prefix prefix) (own_in t arena)
  in
  List.fold_left
    (fun (foreign_wins, losers) ctl ->
      let we_win =
        match ctl.claim.claim_state with
        | Acquired -> true  (* established use beats a fresh claim (§4.1) *)
        | Waiting -> t.self < owner
      in
      if we_win then begin
        (* The collision continues the WINNING claim's chain, so the
           surviving allocation's timeline contains the duel. *)
        let cspan = Span.child ctl.claim.claim_span in
        note t "note.collision-sent" ~span:cspan "%a of %d loses to our %a" Prefix.pp prefix owner
          Prefix.pp ctl.claim.claim_prefix;
        send_collision t ~arena ~victim:owner ~victim_prefix:prefix
          ~winner_prefix:ctl.claim.claim_prefix ~span:(Some cspan);
        (false, losers)
      end
      else (foreign_wins, ctl :: losers))
    (true, []) overlapping

let handle_claim_announce_impl t arena ~owner ~prefix ~lifetime_end ~span =
  if owner = t.self then ()
  else begin
    (* Parent validation: a child claim outside our space is rejected
       with an explicit collision (§4.4). *)
    let out_of_space =
      arena = Down
      && not
           (List.exists
              (fun cover -> Prefix.subsumes cover prefix)
              (Address_space.covers t.down_space))
    in
    if out_of_space then
      (* No winning claim exists; the rejection stays on the claimant's
         own chain. *)
      send_collision t ~arena ~victim:owner ~victim_prefix:prefix
        ~winner_prefix:(Prefix.make (Prefix.base prefix) (Prefix.len prefix))
        ~span:(Option.map Span.child span)
    else begin
      let foreign_wins, losers = duel_own_claims t arena ~owner ~prefix in
      if foreign_wins then begin
        register_foreign t arena ~owner ~prefix ~lifetime_end;
        (* Now that the winner occupies the range in our view, yield our
           losing claims and pick replacements elsewhere. *)
        List.iter
          (fun ctl ->
            t.collisions_suffered <- t.collisions_suffered + 1;
            Metrics.incr m_collisions;
            Engine.note_activity t.engine "masc";
            if Recorder.is_enabled () then
              note t "note.collision-lost"
                ?span:(Option.map Span.child span)
                "our %a loses to %a of %d" Prefix.pp ctl.claim.claim_prefix Prefix.pp prefix owner;
            let want_len = Prefix.len ctl.claim.claim_prefix in
            remove_own t ctl ~release:false ~lost:true;
            Metrics.incr m_reclaims;
            if not (start_claim t arena ~want_len ()) then
              grow_or_escalate t arena ~need:(Prefix.size ctl.claim.claim_prefix)
                ~want_len)
          losers;
        if arena = Down then begin
          (* Relay the sibling claim to our other children and react to
             the extra pressure on our space. *)
          List.iter
            (fun child ->
              if child <> owner then
                send t child (Masc_message.Claim_announce { owner; prefix; lifetime_end; span }))
            t.children;
          check_children_pressure t
        end
      end
    end
  end

let handle_claim_announce t arena ~owner ~prefix ~lifetime_end ~span =
  if Prof.is_enabled () then
    Prof.span "masc.claim_announce" (fun () ->
        handle_claim_announce_impl t arena ~owner ~prefix ~lifetime_end ~span)
  else handle_claim_announce_impl t arena ~owner ~prefix ~lifetime_end ~span

let handle_collision_impl t ~victim ~victim_prefix ~winner ~winner_prefix ~span =
  if victim = t.self then begin
    match
      List.find_opt (fun c -> Prefix.equal c.claim.claim_prefix victim_prefix) t.own
    with
    | None -> ()  (* already given up *)
    | Some ctl ->
        let yield =
          match ctl.claim.claim_state with
          | Waiting -> true
          | Acquired -> t.self > winner  (* post-partition tie-break *)
        in
        if yield then begin
          t.collisions_suffered <- t.collisions_suffered + 1;
          Metrics.incr m_collisions;
          Engine.note_activity t.engine "masc";
          if Recorder.is_enabled () then
            note t "note.collision-yield"
              ?span:(Option.map Span.child span)
              "%a to %d's %a" Prefix.pp victim_prefix winner Prefix.pp winner_prefix;
          let arena = ctl.claim.claim_arena in
          let want_len = Prefix.len ctl.claim.claim_prefix in
          remove_own t ctl ~release:false ~lost:true;
          Metrics.incr m_reclaims;
          (* Record the winner's range before re-selecting so the
             replacement cannot land on the contested space again. *)
          (match Address_space.owner_of (arena_space t arena) winner_prefix with
          | Some _ -> ()
          | None ->
              register_foreign t arena ~owner:winner ~prefix:winner_prefix
                ~lifetime_end:(Engine.now t.engine +. t.config.claim_lifetime));
          if not (start_claim t arena ~want_len ()) then
            grow_or_escalate t arena ~need:(Prefix.size victim_prefix) ~want_len
        end
  end
  else if List.mem victim t.children then
    (* Relay a collision announcement toward our child. *)
    send t victim
      (Masc_message.Collision_announce { victim; victim_prefix; winner; winner_prefix; span })

let handle_collision t ~victim ~victim_prefix ~winner ~winner_prefix ~span =
  if Prof.is_enabled () then
    Prof.span "masc.collision" (fun () ->
        handle_collision_impl t ~victim ~victim_prefix ~winner ~winner_prefix ~span)
  else handle_collision_impl t ~victim ~victim_prefix ~winner ~winner_prefix ~span

let receive t ~from_ msg =
  let arena_of_sender () = if List.mem from_ t.children then Down else Up in
  match msg with
  | Masc_message.Space_advertise ranges ->
      List.iter (Address_space.remove_cover t.up_space) (Address_space.covers t.up_space);
      List.iter (Address_space.add_cover t.up_space) ranges;
      if Recorder.is_enabled () then
        note t "note.space" "parent space now [%s]"
          (String.concat " " (List.map Prefix.to_string ranges));
      process_pending t
  | Masc_message.Claim_announce { owner; prefix; lifetime_end; span } ->
      handle_claim_announce t (arena_of_sender ()) ~owner ~prefix ~lifetime_end ~span
  | Masc_message.Claim_release { owner; prefix } ->
      let arena = arena_of_sender () in
      (match Address_space.owner_of (arena_space t arena) prefix with
      | Some o when o = owner -> unregister_foreign t arena prefix
      | Some _ | None -> ());
      if arena = Down then
        List.iter
          (fun child ->
            if child <> owner then send t child (Masc_message.Claim_release { owner; prefix }))
          t.children;
      process_pending t
  | Masc_message.Collision_announce { victim; victim_prefix; winner; winner_prefix; span } ->
      handle_collision t ~victim ~victim_prefix ~winner ~winner_prefix ~span
  | Masc_message.Need_space need ->
      if List.mem from_ t.children then begin
        note t "note.child-needs" "%d addresses for %d" need from_;
        let total = Address_space.total_addresses t.down_space in
        let used =
          List.fold_left
            (fun acc (p, _) -> acc + Prefix.size p)
            0
            (Address_space.claims t.down_space)
        in
        let need_up = max need (used + need - (total - used)) in
        if not (List.mem need t.child_needs) then t.child_needs <- t.child_needs @ [ need ];
        ignore (try_grow t Up ~need:(max 256 need_up));
        retry_child_needs t
      end

let reparent t ~new_parent =
  match t.node_role with
  | Top -> invalid_arg "Masc_node.reparent: top-level node has no parent"
  | Child old_parent ->
      if old_parent <> new_parent then begin
        note t "note.reparent" "%d -> %d" old_parent new_parent;
        t.node_role <- Child new_parent;
        (* Forget the old parent's space and sibling registry; the new
           parent's Space_advertise repopulates the covers and its relays
           repopulate the registry. *)
        List.iter (Address_space.remove_cover t.up_space) (Address_space.covers t.up_space);
        Hashtbl.iter (fun p _ -> Address_space.unregister t.up_space p) t.up_foreign;
        Hashtbl.reset t.up_foreign;
        (* Deactivate own Up claims: they lie in the old parent's space;
           the renewal gate drains them. *)
        List.iter
          (fun c -> if c.claim.claim_arena = Up then c.claim.claim_active <- false)
          t.own;
        (* Ask the new parent for its space and for room to restart. *)
        send t new_parent (Masc_message.Need_space 256)
      end

(* Housekeeping: purge expired foreign claims so their space becomes
   claimable again. *)
let sweep t =
  let now = Engine.now t.engine in
  let purge arena tbl =
    let dead = Hashtbl.fold (fun p fc acc -> if fc.f_expiry <= now then p :: acc else acc) tbl [] in
    List.iter (fun p -> unregister_foreign t arena p) dead;
    dead <> []
  in
  let changed_up = purge Up t.up_foreign in
  let changed_down = purge Down t.down_foreign in
  if changed_up || changed_down then process_pending t

let start t =
  if not t.started then begin
    t.started <- true;
    refresh_down_covers t;
    advertise_space_to_children t;
    let interval = max (Time.hours 1.0) (t.config.claim_lifetime /. 10.0) in
    ignore (Engine.periodic ~label:"masc.sweep" t.engine ~interval (fun () -> sweep t))
  end
