(* The simulator's benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload (see Pb_workload) and prints, as the last line of
   standard output, one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0, the per-layer metrics (Pb_layers) with
   --trace 1.  The line before it stamps the host and run facts.

   Every rep runs in a fresh child process (this executable with
   --child), so one rep's heap and peak RSS cannot carry into the next.
   A child times the workload call alone, checks its result outside the
   timing, and hands back a [rep] through a file.

   --trace 0:  set-up reps at one unit of work give setup_s; measured
               reps at the workload's length run until S seconds are
               spent and give ops_per_s (their ops over their wall
               time) and peak_mem_mb (median).  Both times are
               corrected for the host's speed, which a probe measures
               between reps and, pausing the rep, within long ones
               (see "host speed" below).
   --trace 1:  pairs of an untraced rep (counts, GC deltas) and a
               traced rep (Prof on: self time and bytes per span),
               until S seconds are spent; medians per metric.

   A rep fails when its child crashes, overruns the deadline, or its
   result fails a check; the run is correct when no rep failed and all
   reps of one length agree on the result digest. *)

type rep = {
  wall_s : float;
  ops : int;
  peak_mb : float;
  digest : string;
  problems : string list;
  values : (string * float) list;
  started : float;  (* the timed call's start and end, on the clock *)
  ended : float;  (* every process shares *)
}

let workload = ref ""
let seed = ref 1998
let seconds = ref 10.0
let trace = ref 0
let child = ref ""
let length = ref 0
let out = ref ""
let workdir = ref ".bench_build/perfbench-run"
let rev = ref "unknown"

let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1"

let args =
  [
    ("--workload", Arg.Set_string workload, "NAME fig2-alloc | beacon-data | fig4m-churn | explore-ctl");
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_float seconds, "S measuring time");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ("--workdir", Arg.Set_string workdir, "DIR scratch directory for rep files");
    ("--rev", Arg.Set_string rev, "REV source revision to stamp");
    ("--child", Arg.Set_string child, "MODE run one rep: run | traced | check");
    ("--length", Arg.Set_int length, "L length of a child's rep, in the workload's unit");
    ("--out", Arg.Set_string out, "FILE where a child writes its rep");
  ]

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* ---------------- host facts ------------------------------------------- *)

let read_lines file =
  try
    let ic = open_in file in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
        go [])
  with Sys_error _ -> []

(* The value of the first "key: value" / "key:\tvalue" line of a /proc
   file whose key is [key]. *)
let proc_field file key =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.trim (String.sub l 0 i) = key ->
          Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None)
    (read_lines file)

(* Peak resident set of this process, from the kernel's high-water
   mark; the GC's top heap size where /proc is missing. *)
let peak_mb () =
  match proc_field "/proc/self/status" "VmHWM" with
  | Some v -> (try Scanf.sscanf v "%f kB" (fun kb -> kb /. 1024.0) with _ -> 0.0)
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let stamp w ~rep_length =
  let g = Gc.get () in
  Pb_json.Obj
    [
      ("workload", Pb_json.Str (Pb_workload.name w));
      ("seed", Pb_json.Int !seed);
      ("length", Pb_json.Int rep_length);
      ("length_unit", Pb_json.Str (Pb_workload.unit_of w));
      ("seconds", Pb_json.Num !seconds);
      ("trace", Pb_json.Int !trace);
      ("jobs", Pb_json.Int 1);
      ("nproc", Pb_json.Int (Stdlib.Domain.recommended_domain_count ()));
      ("cpu", Pb_json.Str (Option.value ~default:"unknown" (proc_field "/proc/cpuinfo" "model name")));
      ("ocaml", Pb_json.Str Sys.ocaml_version);
      ( "gc",
        Pb_json.Obj
          [
            ("minor_heap_words", Pb_json.Int g.Gc.minor_heap_size);
            ("space_overhead", Pb_json.Int g.Gc.space_overhead);
            ("OCAMLRUNPARAM", Pb_json.Str (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")));
          ] );
      ("build_profile", Pb_json.Str Pb_build.profile);
      ("rev", Pb_json.Str !rev);
    ]

(* ---------------- child: one rep --------------------------------------- *)

let run_child w mode =
  Par.set_jobs 1;
  Metrics.reset Metrics.default;
  let traced = mode = "traced" in
  let wall = ref 0.0 and cpu = ref 0.0 and gc = ref None and window = ref (0.0, 0.0) in
  let timer =
    {
      Pb_workload.timed =
        (fun f ->
          if traced then Prof.enable ();
          let g0 = Gc.quick_stat () and c0 = Unix.times () and t0 = Unix.gettimeofday () in
          let x = if traced then Prof.span Pb_layers.root f else f () in
          let t1 = Unix.gettimeofday () and c1 = Unix.times () and g1 = Gc.quick_stat () in
          if traced then Prof.disable ();
          wall := t1 -. t0;
          window := (t0, t1);
          cpu := c1.Unix.tms_utime +. c1.Unix.tms_stime -. c0.Unix.tms_utime -. c0.Unix.tms_stime;
          gc := Some (Pb_layers.gc_delta g0 g1);
          x);
    }
  in
  let ledger = Filename.concat !workdir (Printf.sprintf "ledger-%d.jsonl" (Unix.getpid ())) in
  let o = Pb_workload.exec w ~timer ~seed:!seed ~length:!length ~check:(mode = "check") ~ledger in
  let values =
    if traced then Pb_layers.traced ~ops:o.Pb_workload.ops (Prof.rows ())
    else
      Pb_layers.untraced ~ops:o.Pb_workload.ops ~wall_s:!wall ~cpu_s:!cpu ~gc:(Option.get !gc)
        ~snap:(Metrics.snapshot Metrics.default) ~extras:o.Pb_workload.extras
  in
  let rep =
    {
      wall_s = !wall;
      ops = o.Pb_workload.ops;
      peak_mb = peak_mb ();
      digest = o.Pb_workload.digest;
      problems = o.Pb_workload.problems;
      values;
      started = fst !window;
      ended = snd !window;
    }
  in
  let oc = open_out_bin !out in
  Marshal.to_channel oc (rep : rep) [];
  close_out oc

(* ---------------- parent: spawn and collect ---------------------------- *)

(* A benchmark run must end within 180 s; a child still running past
   this is killed and its rep counted as failed. *)
let hard_limit_s = 170.0
let run_started = Unix.gettimeofday ()
let elapsed () = Unix.gettimeofday () -. run_started
let spawned = ref 0
let failed = ref 0
let running = ref []  (* live children: a rep, and a probe while it is paused *)

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !running;
  running := []

(* A parent stopped by a signal takes its children with it. *)
let stop_child_on signal =
  Sys.set_signal signal
    (Sys.Signal_handle
       (fun _ ->
         kill_children ();
         exit 130))

(* ---------------- host speed ------------------------------------------ *)

(* The host's speed drifts by up to 1.6x over tens of seconds, as its
   neighbours load the caches and memory, and the drift is as large
   between runs as within one.  So end-to-end reps are measured against
   the probe calib.exe, which times a fixed allocating kernel, at least
   every [probe_every_s]: before a rep starts, and, for a longer rep,
   while its child is paused.  Each rep's wall time, less its pauses,
   is scaled to the probe's [reference_s]:
   corrected = wall * reference_s / mean probe time over the rep.  The
   probe links nothing of the simulator, so only the host moves it. *)

(* The probe's time on an unloaded Xeon (Sapphire Rapids) vCPU; it sets
   the scale only. *)
let reference_s = 0.05

let probe_every_s = 1.5

let probing = ref false
let probes = ref []  (* (time, probe seconds), newest first *)

let probe () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "calib.exe" in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe |] Unix.stdin wr Unix.stderr in
  Unix.close wr;
  running := pid :: !running;
  let ic = Unix.in_channel_of_descr rd in
  let line = try Some (input_line ic) with End_of_file -> None in
  close_in ic;
  let status = snd (Unix.waitpid [] pid) in
  running := List.filter (( <> ) pid) !running;
  match (status, Option.bind line float_of_string_opt) with
  | Unix.WEXITED 0, Some s when s > 0.0 -> probes := (Unix.gettimeofday (), s) :: !probes
  | _ -> failwith "the host-speed probe calib.exe failed"

let probe_due () =
  !probing && match !probes with (t, _) :: _ -> Unix.gettimeofday () -. t >= probe_every_s | [] -> true

(* Mean probe time over a rep: the probes just before and after it, and
   any in between. *)
let probe_over (r : rep) = Pb_stats.bracket_mean (List.rev !probes) ~t0:r.started ~t1:r.ended

let corrected_wall r = Pb_stats.host_corrected ~reference:reference_s ~probe:(probe_over r) r.wall_s

(* (from, to) of each pause of the running rep's child. *)
let pauses = ref []

let rec wait_child pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
      if elapsed () > hard_limit_s then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        snd (Unix.waitpid [] pid)
      end
      else if probe_due () then pause_and_probe pid
      else begin
        Unix.sleepf 0.01;
        wait_child pid
      end
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_child pid

(* Stops the child, probes the host, and lets the child go on; a child
   that ends before it stops is reaped as usual. *)
and pause_and_probe pid =
  Unix.kill pid Sys.sigstop;
  match Unix.waitpid [ Unix.WUNTRACED ] pid with
  | _, Unix.WSTOPPED _ ->
      let t0 = Unix.gettimeofday () in
      probe ();
      Unix.kill pid Sys.sigcont;
      pauses := (t0, Unix.gettimeofday ()) :: !pauses;
      wait_child pid
  | _, status -> status

(* One rep in a child process; [None] when it failed in any way. *)
let spawn w mode ~len =
  if probe_due () then probe ();
  incr spawned;
  let file = Filename.concat !workdir (Printf.sprintf "rep-%d-%d.bin" (Unix.getpid ()) !spawned) in
  let argv =
    [|
      Sys.executable_name; "--child"; mode; "--workload"; Pb_workload.name w; "--seed"; string_of_int !seed;
      "--length"; string_of_int len; "--out"; file; "--workdir"; !workdir;
    |]
  in
  pauses := [];
  (* The child's stdout goes to our stderr: only this process writes
     the result lines. *)
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stderr Unix.stderr in
  running := [ pid ];
  let status = wait_child pid in
  running := [];
  let rep =
    match status with
    | Unix.WEXITED 0 when Sys.file_exists file ->
        let ic = open_in_bin file in
        let (r : rep) = Marshal.from_channel ic in
        close_in ic;
        (* The rep's clock ran on while its child was paused. *)
        Some { r with wall_s = r.wall_s -. Pb_stats.overlap !pauses ~t0:r.started ~t1:r.ended }
    | Unix.WEXITED n ->
        log "%s rep exited with code %d" mode n;
        None
    | Unix.WSIGNALED n | Unix.WSTOPPED n ->
        log "%s rep killed by signal %d" mode n;
        None
  in
  (try Sys.remove file with Sys_error _ -> ());
  match rep with
  | Some r when r.problems = [] -> Some r
  | Some r ->
      List.iter (log "%s rep failed its check: %s" mode) r.problems;
      incr failed;
      None
  | None ->
      incr failed;
      None

(* Calls [f 0], [f 1], ... until [seconds] are spent: a new call starts
   only while it should end within half a call of the budget.  At least
   one always runs. *)
let repeat ~seconds f =
  let t0 = Unix.gettimeofday () in
  let rec go acc n =
    let spent = Unix.gettimeofday () -. t0 in
    if n > 0 && (spent +. (0.5 *. spent /. float_of_int n) >= seconds || elapsed () > hard_limit_s /. 2.0)
    then List.rev acc
    else go (f n :: acc) (n + 1)
  in
  go [] 0

(* Set-up reps: at least [setup_reps], and for millisecond set-ups as
   many more as fit in [setup_budget_s], so the median is steady. *)
let setup_reps = 7
let setup_budget_s = 2.5

let setup_times w =
  let t0 = Unix.gettimeofday () in
  let rec go acc n =
    if n >= setup_reps && Unix.gettimeofday () -. t0 >= setup_budget_s then acc
    else go (Option.to_list (spawn w "run" ~len:1) @ acc) (n + 1)
  in
  go [] 0

let value name (r : rep) = Option.value ~default:0.0 (List.assoc_opt name r.values)
let median_of f reps = if reps = [] then 0.0 else Pb_stats.median (List.map f reps)

let metric name unit_ v = (name, Pb_json.Obj [ ("value", Pb_json.Num v); ("unit", Pb_json.Str unit_) ])

(* Every rep of one length must produce the same result. *)
let agree what reps =
  match List.sort_uniq compare (List.map (fun r -> r.digest) reps) with
  | [] | [ _ ] -> true
  | ds ->
      log "%s reps disagree: %d distinct result digests" what (List.length ds);
      false

let end_to_end w ~len =
  probing := true;
  let setup = setup_times w in
  let measured = List.filter_map Fun.id (repeat ~seconds:!seconds (fun _ -> spawn w "run" ~len)) in
  let checked =
    if Pb_workload.has_check_run w then Option.to_list (spawn w "check" ~len) else []
  in
  probe ();
  let rates = List.map (fun r -> Pb_stats.ops_per_s ~ops:r.ops ~wall_s:(corrected_wall r)) measured in
  log "%d measured reps, host-corrected ops_per_s %s" (List.length rates)
    (String.concat " " (List.map (Printf.sprintf "%.1f") rates));
  (* The rate of the whole measuring time uses every rep, which a median
     of rates does not. *)
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 measured in
  let ops = List.fold_left (fun acc r -> acc + r.ops) 0 measured in
  let ok = agree "set-up" setup && agree "measured" (measured @ checked) in
  let probe_s = List.map snd !probes in
  let host =
    [
      ("raw_ops_per_s", Pb_json.Num (Pb_stats.ops_per_s ~ops ~wall_s:(total (fun r -> r.wall_s))));
      ("raw_setup_s", Pb_json.Num (median_of (fun r -> r.wall_s) setup));
      ("probe_reference_s", Pb_json.Num reference_s);
      ("probes", Pb_json.Int (List.length probe_s));
      ("probe_median_s", Pb_json.Num (Pb_stats.median probe_s));
      ("probe_spread", Pb_json.Num (Pb_stats.spread probe_s));
    ]
  in
  ( ok,
    [
      metric "ops_per_s" "1/s" (Pb_stats.ops_per_s ~ops ~wall_s:(total corrected_wall));
      metric "setup_s" "s" (median_of corrected_wall setup);
      metric "peak_mem_mb" "MB" (median_of (fun r -> r.peak_mb) measured);
    ],
    rates,
    host )

let per_layer w ~len =
  (* Which side of a pair runs first alternates, so drift in the host's
     speed does not bias the overhead ratio. *)
  let pairs =
    repeat ~seconds:!seconds (fun n ->
        if n mod 2 = 0 then
          let u = spawn w "run" ~len in
          (u, spawn w "traced" ~len)
        else
          let t = spawn w "traced" ~len in
          (spawn w "run" ~len, t))
  in
  let plain = List.filter_map fst pairs and traced = List.filter_map snd pairs in
  let overheads =
    List.filter_map
      (function Some u, Some t -> Some (Pb_stats.ratio t.wall_s u.wall_s) | _ -> None)
      pairs
  in
  let ok = agree "untraced and traced" (plain @ traced) in
  let metrics =
    List.map
      (fun (s : Pb_layers.spec) ->
        let v =
          match s.Pb_layers.source with
          | Pb_layers.Counter | Pb_layers.Computed -> median_of (value s.Pb_layers.name) plain
          | Pb_layers.Self _ | Pb_layers.Traced -> median_of (value s.Pb_layers.name) traced
          | Pb_layers.Pair -> if overheads = [] then 0.0 else Pb_stats.median overheads
        in
        metric s.Pb_layers.name s.Pb_layers.unit_ v)
      Pb_layers.specs
  in
  (ok, metrics, overheads, [])

let run_parent w =
  List.iter stop_child_on [ Sys.sigterm; Sys.sigint ];
  let len = Pb_workload.length w in
  (try Unix.mkdir !workdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let ok, metrics, samples, host = if !trace = 0 then end_to_end w ~len else per_layer w ~len in
  let spread = Pb_stats.spread samples in
  print_endline
    (Pb_json.to_string
       (Pb_json.Obj
          [
            ("stamp", stamp w ~rep_length:len);
            ("reps", Pb_json.Int (List.length samples));
            ("rep_spread", Pb_json.Num spread);
            ("host", Pb_json.Obj host);
          ]));
  print_endline
    (Pb_json.to_string
       (Pb_json.Obj
          [
            ("correct", Pb_json.Bool (ok && !failed = 0));
            ("attempted", Pb_json.Int !spawned);
            ("failed", Pb_json.Int !failed);
            ("metrics", Pb_json.Obj metrics);
          ]))

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match Pb_workload.of_name !workload with
  | None ->
      prerr_endline ("perfbench: unknown workload " ^ Filename.quote !workload ^ "\n" ^ usage);
      exit 2
  | Some w when !child <> "" -> run_child w !child
  | Some w -> (
      (* A parent that fails takes its children with it, paused or not. *)
      try run_parent w
      with e ->
        kill_children ();
        prerr_endline ("perfbench: " ^ Printexc.to_string e);
        exit 2)
