(* Order statistics and rates the benchmark reports.

   [quartiles] follows Python's [statistics.quantiles(data, n=4)]
   (the default "exclusive" method), so the spreads printed here match
   the ones computed over a set of benchmark runs from their JSON. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Pb_stats.median: empty"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Needs at least two points, like its Python counterpart. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Pb_stats.quartiles: fewer than two points";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  (q 1, q 2, q 3)

(* Interquartile range as a share of the median; 0 below two points. *)
let spread xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
      let q1, _, q3 = quartiles xs in
      let m = median xs in
      if m = 0.0 then 0.0 else (q3 -. q1) /. m

(* [num /. den], or 0 when there is nothing to divide by: every value
   the benchmark prints must be a finite JSON number. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den

let ops_per_s ~ops ~wall_s = ratio (float_of_int ops) wall_s

(* Mean value of the timed samples [(time, value)], in time order, that
   bracket the interval [t0, t1]: the last at or before [t0], the first
   at or after [t1], and any in between. *)
let bracket_mean samples ~t0 ~t1 =
  let before = List.filter (fun (t, _) -> t <= t0) samples in
  let inside = List.filter (fun (t, _) -> t > t0 && t < t1) samples in
  let after = List.filter (fun (t, _) -> t >= t1) samples in
  let last = function [] -> [] | l -> [ List.nth l (List.length l - 1) ] in
  let first = function [] -> [] | x :: _ -> [ x ] in
  match last before @ inside @ first after with
  | [] -> invalid_arg "Pb_stats.bracket_mean: no samples"
  | b -> List.fold_left (fun acc (_, v) -> acc +. v) 0.0 b /. float_of_int (List.length b)

(* A wall time scaled to the host speed at which the probe takes
   [reference] seconds, from a probe that took [probe] seconds around it. *)
let host_corrected ~reference ~probe wall_s = wall_s *. reference /. probe

(* Total length of the parts of the intervals [(from, to)] that fall
   inside [t0, t1]; the intervals do not overlap each other. *)
let overlap intervals ~t0 ~t1 =
  List.fold_left (fun acc (a, b) -> acc +. Float.max 0.0 (Float.min b t1 -. Float.max a t0)) 0.0 intervals
