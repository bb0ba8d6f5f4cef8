(* The host-speed probe.

     calib.exe

   times a fixed kernel and prints its median time in seconds over
   [runs] runs.  The kernel does the kind of work the simulator does:
   it allocates, and it walks and rebuilds a balanced map and a hash
   table of a few MB.  On a shared host the speed of exactly that work
   drifts by up to 1.6x over tens of seconds, as neighbours load the
   caches and memory.  The benchmark runs this probe between reps and
   scales each rep's wall time by it (see bench.ml).

   It links nothing of the simulator and is built with flags of its
   own, so no change to the program can change its speed. *)

module M = Map.Make (Int)

let kernel () =
  let h = Hashtbl.create 16 in
  let m = ref M.empty and acc = ref 0 in
  for i = 1 to 50_000 do
    let k = i * 2654435761 land 0xfffff in
    m := M.add k i !m;
    Hashtbl.replace h k [ i; k ];
    if i mod 3 = 0 then m := M.remove ((i - 7) * 2654435761 land 0xfffff) !m
  done;
  M.iter (fun _ v -> acc := !acc + v) !m;
  !acc + Hashtbl.length h

let runs = 3

let () =
  let time () =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (kernel ()));
    Unix.gettimeofday () -. t0
  in
  let ts = List.sort Float.compare (List.init runs (fun _ -> time ())) in
  Printf.printf "%.9f\n" (List.nth ts (runs / 2))
