let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let nonempty what xs =
  if Array.length xs = 0 then invalid_arg ("Stats." ^ what ^ ": no samples")

let percentile xs p =
  nonempty "percentile" xs;
  let a = sorted xs in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 1 (min n rank) - 1)

let median xs =
  nonempty "median" xs;
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles xs =
  nonempty "quartiles" xs;
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, median a, cut 3)

let spread xs =
  let q1, med, q3 = quartiles xs in
  if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med

let windows ~times ~values ~start ~width ~stop =
  let n_windows = max 0 (int_of_float ((stop -. start) /. width)) in
  let buckets = Array.make n_windows [] in
  Array.iteri
    (fun i t ->
      let k = int_of_float (Float.floor ((t -. start) /. width)) in
      if t >= start && k < n_windows then buckets.(k) <- values.(i) :: buckets.(k))
    times;
  Array.to_list buckets |> List.filter (( <> ) []) |> List.map Array.of_list

let subrun_latency subruns =
  let subruns = List.filter (fun a -> Array.length a > 0) subruns in
  if subruns = [] then invalid_arg "Stats.subrun_latency: no samples";
  let each p = Array.of_list (List.map (fun a -> percentile a p) subruns) in
  let q1, _, _ = quartiles (each 99.0) in
  (median (each 50.0), q1)

type better = Lower | Higher

type verdict = Agree | Better | Worse | Unresolved

let verdict_name = function
  | Agree -> "agree"
  | Better -> "better"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let verdict ~better ~bound ~before ~after =
  nonempty "verdict" before;
  nonempty "verdict" after;
  (* [worse_by a b]: how much worse [a] is than [b], positive = worse. *)
  let worse_by a b = match better with Lower -> a -. b | Higher -> b -. a in
  let all_after pred =
    Array.for_all (fun a -> Array.for_all (fun b -> pred (worse_by a b)) before) after
  in
  if spread before > bound || spread after > bound then
    if all_after (fun d -> d < 0.0) then Better
    else if all_after (fun d -> d > 0.0) then Worse
    else Unresolved
  else
    let mb = median before in
    let change = worse_by (median after) mb in
    let rel = if mb = 0.0 then change else change /. Float.abs mb in
    if rel > bound then Worse else if rel < -.bound then Better else Agree
