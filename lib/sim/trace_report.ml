(* Pure rendering over record lists: the [trace] subcommand, the
   explorer's triage and the walkthrough example all build their
   causal-chain output here, so a loaded recording and a live ring
   render identically. *)

let stable_sort_by_time records =
  List.stable_sort (fun a b -> Float.compare a.Recorder.r_time b.Recorder.r_time) records

let chain_ids records =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun e ->
      match e.Recorder.r_trace_id with
      | Some id when not (Hashtbl.mem seen id) ->
          Hashtbl.add seen id ();
          Some id
      | Some _ | None -> None)
    records

let chain records ~id =
  stable_sort_by_time (List.filter (fun e -> e.Recorder.r_trace_id = Some id) records)

let kind_of_id id =
  match String.index_opt id ':' with Some i -> String.sub id 0 i | None -> id

(* Depth of each record from its parent link; parents normally precede
   children in time, so one ordered pass suffices.  Orphans (parent not
   retained, e.g. the recorder's ring evicted it) sit at depth 0. *)
let depths chain =
  let depth_of_span = Hashtbl.create 16 in
  List.map
    (fun e ->
      let d =
        match e.Recorder.r_parent with
        | Some p -> ( match Hashtbl.find_opt depth_of_span p with Some d -> d + 1 | None -> 0)
        | None -> 0
      in
      (match e.Recorder.r_span with Some s -> Hashtbl.replace depth_of_span s d | None -> ());
      (e, d))
    chain

let pp_span_ref ppf e =
  match (e.Recorder.r_span, e.Recorder.r_parent) with
  | Some s, Some p -> Format.fprintf ppf "  (#%d<-%d)" s p
  | Some s, None -> Format.fprintf ppf "  (#%d)" s
  | None, _ -> ()

let pp_record ppf e =
  Format.fprintf ppf "[%a] %-14s %-18s %s" Time.pp e.Recorder.r_time e.Recorder.r_subject
    e.Recorder.r_label e.Recorder.r_detail

let pp_chain ppf records =
  List.iter
    (fun (e, depth) ->
      Format.fprintf ppf "%s%a%a@." (String.make (2 * depth) ' ') pp_record e pp_span_ref e)
    (depths records)

let pp_chain_for ppf records ~id =
  match chain records ~id with
  | [] -> Format.fprintf ppf "no records for trace id %s@." id
  | c ->
      Format.fprintf ppf "trace %s (%d records)@." id (List.length c);
      pp_chain ppf c

let pp_timelines ppf records =
  List.iter
    (fun id ->
      let c = chain records ~id in
      Format.fprintf ppf "%s@." id;
      List.iter (fun e -> Format.fprintf ppf "  %a@." pp_record e) c)
    (chain_ids records)

type latency = { kind : string; chains : int; min_s : float; mean_s : float; max_s : float }

let latencies records =
  let by_kind = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun id ->
      match chain records ~id with
      | [] -> ()
      | c ->
          let first = (List.hd c).Recorder.r_time in
          let last = List.fold_left (fun acc e -> max acc e.Recorder.r_time) first c in
          let k = kind_of_id id in
          let d = last -. first in
          (match Hashtbl.find_opt by_kind k with
          | None ->
              order := k :: !order;
              Hashtbl.add by_kind k (1, d, d, d)
          | Some (n, mn, mx, sum) -> Hashtbl.replace by_kind k (n + 1, min mn d, max mx d, sum +. d)))
    (chain_ids records);
  List.rev_map
    (fun k ->
      let n, mn, mx, sum = Hashtbl.find by_kind k in
      { kind = k; chains = n; min_s = mn; mean_s = sum /. float_of_int n; max_s = mx })
    !order

let pp_latencies ppf records =
  match latencies records with
  | [] -> Format.fprintf ppf "no causal chains in recording@."
  | ls ->
      Format.fprintf ppf "%-8s %7s %12s %12s %12s@." "kind" "chains" "min" "mean" "max";
      List.iter
        (fun l ->
          Format.fprintf ppf "%-8s %7d %12s %12s %12s@." l.kind l.chains
            (Format.asprintf "%a" Time.pp l.min_s)
            (Format.asprintf "%a" Time.pp l.mean_s)
            (Format.asprintf "%a" Time.pp l.max_s))
        ls
