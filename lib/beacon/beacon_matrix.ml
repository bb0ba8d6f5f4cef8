type acc = {
  mutable sent : int;
  mutable got : int;
  lat : Stats.t;
  hops : Stats.t;
  stretch : Stats.t;
}

type t = (Host_ref.t * Host_ref.t, acc) Hashtbl.t

let create () : t = Hashtbl.create 64

let acc_for t key =
  match Hashtbl.find_opt t key with
  | Some a -> a
  | None ->
      let a = { sent = 0; got = 0; lat = Stats.create (); hops = Stats.create (); stretch = Stats.create () } in
      Hashtbl.replace t key a;
      a

let expect t ~src ~dst =
  let a = acc_for t (src, dst) in
  a.sent <- a.sent + 1

let deliver t ~src ~dst ~latency ~hops ~spf_dist =
  let a = acc_for t (src, dst) in
  a.got <- a.got + 1;
  Stats.add a.lat latency;
  Stats.add a.hops (float_of_int hops);
  let stretch = if spf_dist <= 0 then 1.0 else float_of_int hops /. float_of_int spf_dist in
  Stats.add a.stretch stretch

let merge_into ~into src =
  Hashtbl.iter
    (fun key (a : acc) ->
      match Hashtbl.find_opt into key with
      | None ->
          Hashtbl.replace into key
            {
              sent = a.sent;
              got = a.got;
              lat = Stats.merge (Stats.create ()) a.lat;
              hops = Stats.merge (Stats.create ()) a.hops;
              stretch = Stats.merge (Stats.create ()) a.stretch;
            }
      | Some b ->
          Hashtbl.replace into key
            {
              sent = b.sent + a.sent;
              got = b.got + a.got;
              lat = Stats.merge b.lat a.lat;
              hops = Stats.merge b.hops a.hops;
              stretch = Stats.merge b.stretch a.stretch;
            })
    src

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type cell = {
  c_src : Host_ref.t;
  c_dst : Host_ref.t;
  c_sent : int;
  c_got : int;
  c_loss : float;
  c_lat_mean : float;
  c_lat_max : float;
  c_hops_mean : float;
  c_hops_max : float;
  c_stretch_mean : float;
  c_stretch_max : float;
}

let cell_of (src, dst) (a : acc) =
  let smax s = if Stats.count s = 0 then 0.0 else Stats.max s in
  {
    c_src = src;
    c_dst = dst;
    c_sent = a.sent;
    c_got = a.got;
    c_loss =
      (if a.sent = 0 then 0.0 else float_of_int (a.sent - a.got) /. float_of_int a.sent);
    c_lat_mean = Stats.mean a.lat;
    c_lat_max = smax a.lat;
    c_hops_mean = Stats.mean a.hops;
    c_hops_max = smax a.hops;
    c_stretch_mean = Stats.mean a.stretch;
    c_stretch_max = smax a.stretch;
  }

let cells t =
  Hashtbl.fold (fun key a l -> cell_of key a :: l) t []
  |> List.sort (fun a b ->
         match Host_ref.compare a.c_src b.c_src with
         | 0 -> Host_ref.compare a.c_dst b.c_dst
         | c -> c)

type summary = {
  s_pairs : int;
  s_sent : int;
  s_got : int;
  s_lost : int;
  s_loss : float;
  s_unreachable : int;
  s_asymmetric : int;
  s_complete : bool;
  s_lat_mean : float;
  s_lat_max : float;
  s_stretch_mean : float;
  s_stretch_max : float;
}

let summary cs =
  let sent = List.fold_left (fun a c -> a + c.c_sent) 0 cs in
  let got = List.fold_left (fun a c -> a + c.c_got) 0 cs in
  let unreachable = List.length (List.filter (fun c -> c.c_sent > 0 && c.c_got = 0) cs) in
  (* Loss asymmetry between the two directions of a host pair: dbeacon's
     tell-tale for one-way filtering.  Only pairs measured both ways
     count. *)
  let by_pair = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace by_pair (c.c_src, c.c_dst) c.c_loss) cs;
  let asym =
    List.fold_left
      (fun n c ->
        if Host_ref.compare c.c_src c.c_dst < 0 then
          match Hashtbl.find_opt by_pair (c.c_dst, c.c_src) with
          | Some back when Float.abs (back -. c.c_loss) > 1e-9 -> n + 1
          | Some _ | None -> n
        else n)
      0 cs
  in
  (* Delivery-weighted aggregate latency/stretch over all cells. *)
  let wsum f = List.fold_left (fun a c -> a +. (f c *. float_of_int c.c_got)) 0.0 cs in
  let fmax f = List.fold_left (fun a c -> Float.max a (f c)) 0.0 cs in
  {
    s_pairs = List.length cs;
    s_sent = sent;
    s_got = got;
    s_lost = sent - got;
    s_loss = (if sent = 0 then 0.0 else float_of_int (sent - got) /. float_of_int sent);
    s_unreachable = unreachable;
    s_asymmetric = asym;
    s_complete = sent > 0 && got = sent;
    s_lat_mean = (if got = 0 then 0.0 else wsum (fun c -> c.c_lat_mean) /. float_of_int got);
    s_lat_max = fmax (fun c -> c.c_lat_max);
    s_stretch_mean =
      (if got = 0 then 0.0 else wsum (fun c -> c.c_stretch_mean) /. float_of_int got);
    s_stretch_max = fmax (fun c -> c.c_stretch_max);
  }

let worst cs ~n =
  let cmp a b =
    match compare b.c_loss a.c_loss with
    | 0 -> (
        match compare b.c_lat_mean a.c_lat_mean with
        | 0 -> (
            match Host_ref.compare a.c_src b.c_src with
            | 0 -> Host_ref.compare a.c_dst b.c_dst
            | c -> c)
        | c -> c)
    | c -> c
  in
  List.filteri (fun i _ -> i < n) (List.sort cmp cs)

let pp_summary ppf s =
  Format.fprintf ppf
    "pairs %d  probes %d  delivered %d  lost %d (%.4f)  unreachable %d  asymmetric %d  %s@\n\
     latency mean %.6fs max %.6fs  stretch mean %.4f max %.4f"
    s.s_pairs s.s_sent s.s_got s.s_lost s.s_loss s.s_unreachable s.s_asymmetric
    (if s.s_complete then "COMPLETE" else "INCOMPLETE")
    s.s_lat_mean s.s_lat_max s.s_stretch_mean s.s_stretch_max

let pp_cells ppf cs =
  Format.fprintf ppf "%-10s %-10s %5s %5s %7s %10s %6s %8s@\n" "src" "dst" "sent" "got"
    "loss" "lat-mean" "hops" "stretch";
  List.iter
    (fun c ->
      Format.fprintf ppf "%-10s %-10s %5d %5d %7.4f %10.6f %6.2f %8.4f@\n"
        (Format.asprintf "%a" Host_ref.pp c.c_src)
        (Format.asprintf "%a" Host_ref.pp c.c_dst)
        c.c_sent c.c_got c.c_loss c.c_lat_mean c.c_hops_mean c.c_stretch_mean)
    cs

(* ------------------------------------------------------------------ *)
(* JSONL                                                               *)
(* ------------------------------------------------------------------ *)

let jf f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.9g" f

let cell_to_json c =
  let host h =
    Json_line.list string_of_int [ h.Host_ref.host_domain; h.Host_ref.host_index ]
  in
  Json_line.obj
    [
      ("src", host c.c_src);
      ("dst", host c.c_dst);
      ("sent", string_of_int c.c_sent);
      ("got", string_of_int c.c_got);
      ("loss", jf c.c_loss);
      ("lat_mean", jf c.c_lat_mean);
      ("lat_max", jf c.c_lat_max);
      ("hops_mean", jf c.c_hops_mean);
      ("hops_max", jf c.c_hops_max);
      ("stretch_mean", jf c.c_stretch_mean);
      ("stretch_max", jf c.c_stretch_max);
    ]

let write_jsonl ?(meta = []) file cs =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let meta = Json_line.obj (List.map (fun (k, v) -> (k, jf v)) meta) in
      output_string oc (Json_line.obj [ ("meta", meta) ]);
      output_char oc '\n';
      List.iter
        (fun c ->
          output_string oc (cell_to_json c);
          output_char oc '\n')
        cs)

(* A line is the meta object or one cell; cells need both endpoints,
   and absent numeric fields read as zero. *)
type line = Meta of (string * float) list | Cell of cell

let line_of_json =
  Json_line.decode (fun o ->
      let open Json_line in
      match field o "meta" with
      | Some (Obj kvs) ->
          Meta (List.filter_map (function k, Num v -> Some (k, v) | _ -> None) kvs)
      | Some _ -> raise Bad
      | None ->
          let host k =
            match arr o k with
            | [ Num d; Num i ] -> Host_ref.make (int_of_float d) (int_of_float i)
            | _ -> raise Bad
          in
          let f k = Option.value ~default:0.0 (optional num o k) in
          Cell
            {
              c_src = host "src";
              c_dst = host "dst";
              c_sent = int_of_float (f "sent");
              c_got = int_of_float (f "got");
              c_loss = f "loss";
              c_lat_mean = f "lat_mean";
              c_lat_max = f "lat_max";
              c_hops_mean = f "hops_mean";
              c_hops_max = f "hops_max";
              c_stretch_mean = f "stretch_mean";
              c_stretch_max = f "stretch_max";
            })

let load_jsonl file =
  let lines, bad = Json_line.load line_of_json file in
  let meta = List.fold_left (fun acc l -> match l with Meta m -> m | Cell _ -> acc) [] lines in
  (meta, List.filter_map (function Cell c -> Some c | Meta _ -> None) lines, bad)
