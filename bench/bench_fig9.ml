(* Fig 9: SLO violations over time on workload C — adaptive time quanta
   (Algorithm 1) against a static quantum.  The controller runs at the
   stats-window boundary, off the critical path.

   The common scenario: workload C under a two-phase arrival (heavy at
   900 kRPS for the first half, light at 250 kRPS after); each variant
   only swaps the quantum fields in.  The controller state is built
   inside the task (from the spec), so parallel variants never share a
   controller. *)

let slo_ns = Engine.Units.us 50
let window = Engine.Units.ms 40

type run = {
  r : Preemptible.Server.result;
  windows : (int * int * int * int) list;  (** start, violations, completions, quantum *)
  rate : float;  (** violation rate over the run, % *)
}

let run_one spec =
  let violations = Stat.Timeseries.create ~window_ns:window in
  let totals = Stat.Timeseries.create ~window_ns:window in
  let quanta = ref [] in
  let probes =
    {
      Preemptible.Server.on_complete =
        (fun ~now ~latency_ns ~cls:_ ->
          Stat.Timeseries.mark totals ~time:now;
          if latency_ns > slo_ns then Stat.Timeseries.mark violations ~time:now);
      on_window =
        (fun snapshot ~quantum_ns ->
          quanta := (snapshot.Preemptible.Stats_window.window_start_ns, quantum_ns) :: !quanta);
      on_tick = ignore;
    }
  in
  let r = Scenario.run_server ~probes spec in
  let viol = Stat.Timeseries.points violations and quanta = List.rev !quanta in
  let windows =
    List.map
      (fun (p : Stat.Timeseries.point) ->
        let t = p.Stat.Timeseries.t_start in
        let v =
          match List.find_opt (fun (q : Stat.Timeseries.point) -> q.t_start = t) viol with
          | Some q -> q.Stat.Timeseries.count
          | None -> 0
        in
        (t, v, p.Stat.Timeseries.count, Option.value ~default:0 (List.assoc_opt t quanta)))
      (Stat.Timeseries.points totals)
  in
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 windows in
  let v = sum (fun (_, v, _, _) -> v) and n = sum (fun (_, _, n, _) -> n) in
  { r; windows; rate = 100.0 *. float_of_int v /. float_of_int (max n 1) }

let figure =
  {
    Figure.name = "fig9";
    base =
      "src=c; arrival=piecewise(200ms:poisson:900000,400ms:poisson:250000); \
       dur=400ms; window=40ms";
    axes =
      [
        Figure.axis "variant"
          [
            ("static 40us", "quantum=40us");
            ( "adaptive (Algorithm 1)",
              "quantum=adaptive:40us; maxload=1300000; \
               ctl={k1=8us;k2=8us;k3=8us;tmax=60us;lhigh=0.6;llow=0.25}" );
          ];
      ];
    run = (fun _ spec -> run_one spec);
    metrics =
      ("violation_rate_pct", fun w -> w.rate)
      :: Bench_util.server_metrics (fun w -> w.r) [ "p99_us"; "preemptions" ];
    (* quotes the measured rates, so the window hook prints it *)
    expected = "";
  }

let print_windows results =
  List.iter
    (fun (l, w) ->
      Format.printf "@.%s: overall p99=%.1fus preemptions=%d@." (Bench_util.label "variant" l)
        (w.r.Preemptible.Server.all.Stat.Summary.p99 /. 1e3)
        w.r.Preemptible.Server.preemptions;
      Format.printf "  %8s %12s %10s@." "window" "violations" "quantum";
      List.iter
        (fun (t, v, n, q) ->
          Format.printf "  %6.0fms %11.2f%% %9s@." (Engine.Units.to_ms t)
            (100.0 *. float_of_int v /. float_of_int (max n 1))
            (if q = 0 then "-" else Printf.sprintf "%dus" (q / 1000)))
        w.windows;
      Format.printf "  total violation rate: %.2f%%@." w.rate)
    results;
  Format.printf
    "@.(expected: the controller tightens the quantum in the heavy-tailed phase —\n\
    \ cutting violations vs static — and relaxes it in the light/low phase,\n\
    \ saving preemption cycles; static %.2f%% vs adaptive %.2f%% here)@."
    (snd (List.nth results 0)).rate (snd (List.nth results 1)).rate

let run ~jobs () =
  Bench_util.header "Fig 9: SLO (50us) violations on workload C, static vs adaptive quanta";
  Bench_util.figure ~jobs ~hook:print_windows figure
