(* A per-domain tree of sections.  The same section name under two
   different parents is two nodes, so total/self accounting stays a
   strict tree and folded stacks come out for free.  All mutation is
   behind the [on] flag: the disabled path of [span] is one load, one
   branch and a tail call.

   Each domain builds into its own tree (domain-local state), so
   workers can profile concurrently without racing; a Par task wraps
   its work in [capture] and the detached subtree is grafted back into
   the submitting domain's tree with [merge] at the join point.  The
   [on] flag itself is shared — it is flipped by the main domain while
   no workers run, and the pool's task hand-off (mutex) publishes it. *)

type node = {
  name : string;
  mutable count : int;
  mutable total_s : float;
  mutable total_bytes : float;
  children : (string, node) Hashtbl.t;
  (* first-entered order, reversed; hashtable iteration order is
     insertion-dependent but not specified, and reports must be
     deterministic for a deterministic run. *)
  mutable order : string list;
}

type tree = node

let make_node name =
  { name; count = 0; total_s = 0.0; total_bytes = 0.0; children = Hashtbl.create 8; order = [] }

type pstate = { mutable proot : node; mutable pcur : node }

let state_key : pstate Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let r = make_node "" in
      { proot = r; pcur = r })

let state () = Domain.DLS.get state_key

let on = ref false

let is_enabled () = !on

let reset () =
  let st = state () in
  st.proot <- make_node "";
  st.pcur <- st.proot

let enable () =
  reset ();
  on := true

let disable () = on := false

let child_of parent name =
  match Hashtbl.find_opt parent.children name with
  | Some n -> n
  | None ->
      let n = make_node name in
      Hashtbl.add parent.children name n;
      parent.order <- name :: parent.order;
      n

let span name f =
  if not !on then f ()
  else begin
    let st = state () in
    let parent = st.pcur in
    let node = child_of parent name in
    node.count <- node.count + 1;
    st.pcur <- node;
    let t0 = Unix.gettimeofday () in
    let a0 = Gc.allocated_bytes () in
    Fun.protect
      ~finally:(fun () ->
        node.total_s <- node.total_s +. (Unix.gettimeofday () -. t0);
        node.total_bytes <- node.total_bytes +. (Gc.allocated_bytes () -. a0);
        st.pcur <- parent)
      f
  end

(* --- Shard capture and merge ----------------------------------------- *)

let capture f =
  if not !on then (f (), make_node "")
  else begin
    let st = state () in
    let parent = st.pcur in
    let detached = make_node "" in
    st.pcur <- detached;
    let x = Fun.protect ~finally:(fun () -> st.pcur <- parent) f in
    (x, detached)
  end

let rec graft dst (src : node) =
  let d = child_of dst src.name in
  d.count <- d.count + src.count;
  d.total_s <- d.total_s +. src.total_s;
  d.total_bytes <- d.total_bytes +. src.total_bytes;
  List.iter (fun name -> graft d (Hashtbl.find src.children name)) (List.rev src.order)

let merge_tree ~into t = List.iter (fun name -> graft into (Hashtbl.find t.children name)) (List.rev t.order)

let merge t = if !on then merge_tree ~into:(state ()).pcur t

(* --- Reporting ------------------------------------------------------- *)

type row = {
  path : string list;
  count : int;
  total_s : float;
  self_s : float;
  total_bytes : float;
  self_bytes : float;
}

let children_in_order (node : node) : node list =
  List.rev_map (Hashtbl.find node.children) node.order

let rows_of_node root =
  let acc = ref [] in
  let rec walk path (node : node) =
    let kids = children_in_order node in
    let kid_s = List.fold_left (fun s (k : node) -> s +. k.total_s) 0.0 kids in
    let kid_b = List.fold_left (fun s (k : node) -> s +. k.total_bytes) 0.0 kids in
    if node.name <> "" then begin
      let path = path @ [ node.name ] in
      acc :=
        {
          path;
          count = node.count;
          total_s = node.total_s;
          self_s = Float.max 0.0 (node.total_s -. kid_s);
          total_bytes = node.total_bytes;
          self_bytes = Float.max 0.0 (node.total_bytes -. kid_b);
        }
        :: !acc;
      List.iter (walk path) kids
    end
    else List.iter (walk path) kids
  in
  walk [] root;
  List.rev !acc

let rows () = rows_of_node (state ()).proot

let tree_rows t = rows_of_node t

let pp_seconds ppf s =
  if s >= 1.0 then Format.fprintf ppf "%8.3fs" s
  else if s >= 1e-3 then Format.fprintf ppf "%7.3fms" (s *. 1e3)
  else Format.fprintf ppf "%7.1fus" (s *. 1e6)

let pp_bytes ppf b =
  if Float.abs b >= 1048576.0 then Format.fprintf ppf "%7.1fMB" (b /. 1048576.0)
  else if Float.abs b >= 1024.0 then Format.fprintf ppf "%7.1fkB" (b /. 1024.0)
  else Format.fprintf ppf "%7.0fB " b

let pp_rows ppf rows =
  Format.fprintf ppf "%-40s %10s %9s %9s %9s %9s@." "section" "count" "total" "self" "alloc"
    "self-alloc";
  List.iter
    (fun r ->
      let depth = List.length r.path - 1 in
      let name =
        String.make (2 * depth) ' ' ^ (match List.rev r.path with n :: _ -> n | [] -> "")
      in
      Format.fprintf ppf "%-40s %10d %a %a %a %a@." name r.count pp_seconds r.total_s pp_seconds
        r.self_s pp_bytes r.total_bytes pp_bytes r.self_bytes)
    rows

let pp ppf () = pp_rows ppf (rows ())

(* --- JSONL round-trip ------------------------------------------------ *)

let row_to_json r =
  let f = Json_line.float in
  Json_line.obj
    [
      ("path", Json_line.quote (String.concat ";" r.path));
      ("count", string_of_int r.count);
      ("total_s", f r.total_s);
      ("self_s", f r.self_s);
      ("total_bytes", f r.total_bytes);
      ("self_bytes", f r.self_bytes);
    ]

let row_of_json =
  Json_line.decode (fun o ->
      let open Json_line in
      {
        path = String.split_on_char ';' (str o "path");
        count = int o "count";
        total_s = num o "total_s";
        self_s = num o "self_s";
        total_bytes = num o "total_bytes";
        self_bytes = num o "self_bytes";
      })

let to_jsonl () =
  let b = Buffer.create 1024 in
  List.iter
    (fun r ->
      Buffer.add_string b (row_to_json r);
      Buffer.add_char b '\n')
    (rows ());
  Buffer.contents b

let write_jsonl file =
  let oc = open_out file in
  output_string oc (to_jsonl ());
  close_out oc

let load_jsonl = Json_line.load row_of_json

let folded rows =
  let b = Buffer.create 1024 in
  List.iter
    (fun r ->
      let us = int_of_float (Float.round (r.self_s *. 1e6)) in
      if us > 0 then Printf.bprintf b "%s %d\n" (String.concat ";" r.path) us)
    rows;
  Buffer.contents b

let find rows path = List.find_opt (fun r -> r.path = path) rows
