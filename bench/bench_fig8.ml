(* Fig 8: latency vs throughput, four systems x four workloads (the
   grid is Figure.fig8), plus the SLO-bounded maximum-throughput
   summary.  The paper bounds p99 by 200x the average latency of a
   stable (lightly loaded) system, whose runs are Figure.fig8_slo.  We
   additionally require p99.9 <= 10x that bound: with A1's 0.5% long
   requests, a saturated system can starve the longs entirely — they
   hide beyond the 99th percentile while the shorts flow through, so
   the p99 bound alone would accept throughput above physical
   capacity. *)

let names axis = List.map (fun (l, _) -> snd (List.hd l)) axis
let workloads = names (List.nth Figure.fig8.axes 0)
let systems = names (List.nth Figure.fig8.axes 1)

let all (r : Preemptible.Server.result) = r.Preemptible.Server.all

(* The max-throughput and p99-at-90% tables; LP is the first system,
   Shinjuku the third. *)
let summary slos results =
  let key l = (Bench_util.label "workload" l, Bench_util.label "system" l) in
  let max_tput w s =
    let slo = 200.0 *. (all (snd (List.find (fun (l, _) -> key l = (w, s)) slos))).mean in
    List.fold_left
      (fun best (l, r) ->
        let a = all r in
        if
          key l = (w, s)
          && a.Stat.Summary.p99 <= slo
          && a.Stat.Summary.p999 <= 10.0 *. slo
          && r.Preemptible.Server.throughput_rps > best
        then r.Preemptible.Server.throughput_rps
        else best)
      0.0 results
  in
  Bench_util.header
    "Fig 8 summary: max tput with p99 <= 200x stable mean (and p99.9 <= 10x that)";
  Format.printf "%-10s" "workload";
  List.iter (fun s -> Format.printf "%26s" s) systems;
  Format.printf "%22s@." "LP vs Shinjuku";
  List.iter
    (fun w ->
      Format.printf "%-10s" w;
      let tputs =
        List.map
          (fun s ->
            let t = max_tput w s in
            Bench_report.point ~fig:"fig8_summary"
              ~labels:[ ("workload", w); ("system", s) ]
              ~metrics:[ ("max_tput_rps", t) ];
            Format.printf "%25.0fk" (t /. 1e3);
            t)
          systems
      in
      let lp = List.nth tputs 0 and sh = List.nth tputs 2 in
      if sh > 0.0 then Format.printf "%21.0f%%@." (100.0 *. (lp -. sh) /. sh)
      else Format.printf "%22s@." "-")
    workloads;
  Format.printf "@.p99 at 90%% load (tail-latency headline):@.";
  Format.printf "%-10s %16s %16s %12s@." "workload" "LP p99(us)" "Shinjuku p99(us)" "ratio";
  List.iter
    (fun w ->
      let p99 s =
        let at (l, _) = key l = (w, s) && Bench_util.label "load" l = "0.9" in
        (all (snd (List.find at results))).Stat.Summary.p99
      in
      let lp = p99 (List.nth systems 0) and sh = p99 (List.nth systems 2) in
      Format.printf "%-10s %16.1f %16.1f %11.1fx@." w (lp /. 1e3) (sh /. 1e3) (sh /. lp))
    workloads

let run ~jobs () =
  Bench_util.header "Fig 8: latency vs throughput, four systems x four workloads";
  let slo = Figure.fig8_slo in
  let slos = Bench_util.run ~jobs ~label:slo.name slo.run (Figure.points slo) in
  Bench_util.figure ~jobs ~hook:(summary slos) Figure.fig8
