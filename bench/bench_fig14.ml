(* Fig 14: average LC / BE latency over time under a bursty load, with
   a constant 50us preemption interval, a constant 10us interval, and
   scheduling policy #2 — the dynamic interval set from a QPS monitor. *)

let us = Engine.Units.us
let window = Engine.Units.ms 100

(* Policy #2: the QPS monitor interpolates the preemption interval
   between 50us at <=40 kRPS and 10us at >=110 kRPS, re-evaluated at
   each stats-window boundary. *)
let dynamic_policy () =
  let quantum = ref (us 50) in
  {
    Preemptible.Policy.name = "fcfs-preempt-dynamic(10..50us)";
    pick = (fun ~new_ready:_ ~preempted_ready:_ -> Preemptible.Policy.Run_new);
    quantum_ns = (fun ~now:_ ~cls:_ -> !quantum);
    on_window =
      (fun snapshot ->
        let qps = snapshot.Preemptible.Stats_window.arrival_rate_per_s in
        let frac = (qps -. 40_000.0) /. 70_000.0 in
        let frac = Float.max 0.0 (Float.min 1.0 frac) in
        quantum := us 50 - int_of_float (frac *. float_of_int (us 40)));
  }

(* A run and its per-window completions and LC / BE latencies. *)
let run_one spec tweak =
  let ts () = Stat.Timeseries.create ~window_ns:window in
  let ((qps, lc, be) as tr) = (ts (), ts (), ts ()) in
  let probes =
    {
      Preemptible.Server.no_probes with
      Preemptible.Server.on_complete =
        (fun ~now ~latency_ns ~cls ->
          Stat.Timeseries.mark qps ~time:now;
          Stat.Timeseries.record
            (match cls with Workload.Request.Latency_critical -> lc | Best_effort -> be)
            ~time:now (float_of_int latency_ns));
    }
  in
  let r =
    Preemptible.Server.run ~probes (tweak (Scenario.server_config spec))
      ~arrival:(Scenario.arrival_process spec) ~source:(Scenario.source_sampler spec)
      ~duration_ns:spec.Scenario.duration_ns
  in
  (r, tr)

let mean_of series t =
  match
    List.find_opt
      (fun (p : Stat.Timeseries.point) -> p.Stat.Timeseries.t_start = t)
      (Stat.Timeseries.points series)
  with
  | Some p when p.Stat.Timeseries.count > 0 -> p.Stat.Timeseries.mean /. 1e3
  | Some _ | None -> nan

let metrics = Bench_util.server_metrics fst [ "lc_mean_us"; "be_p50_us"; "preemptions" ]

let print_trace name ((_, (qps, lc, be)) as run) =
  Format.printf "@.%s  (LC overall mean %.1fus, BE overall p50 %.1fus)@." name
    (List.assoc "lc_mean_us" metrics run)
    (List.assoc "be_p50_us" metrics run);
  Format.printf "  %8s %10s %12s %12s@." "t(ms)" "kQPS" "LC avg(us)" "BE avg(us)";
  List.iter
    (fun (p : Stat.Timeseries.point) ->
      let t = p.Stat.Timeseries.t_start in
      Format.printf "  %8.0f %10.1f %12.2f %12.1f@." (Engine.Units.to_ms t)
        (Stat.Timeseries.rate_per_sec p ~window_ns:window /. 1e3)
        (mean_of lc t) (mean_of be t))
    (Stat.Timeseries.points qps)

let dynamic = "dynamic 10..50us (policy #2)"

(* QPS oscillates 40 -> 110 kRPS with periodic spikes; one worker over
   the MICA/zlib colocation mix, 50ms stats windows.  The dynamic
   variant's QPS-tracking policy lives outside the DSL, so its run
   swaps it into the lowered config; policies carry mutable interval
   state, so each task builds its own inside the pool worker. *)
let figure =
  {
    Figure.name = "fig14";
    base =
      "workers=1; src=mix(0.98*mica,0.02*zlib); arrival=bursty:40000:110000:500ms:0.3; \
       dur=2s; window=50ms";
    axes =
      [
        Figure.axis "variant"
          [
            ("constant 50us", "quantum=50us");
            ("constant 10us", "quantum=10us");
            (dynamic, "quantum=50us");
          ];
      ];
    run =
      (fun l spec ->
        run_one spec (fun cfg ->
            if Bench_util.label "variant" l = dynamic then
              { cfg with Preemptible.Server.policy = dynamic_policy () }
            else cfg));
    metrics;
    expected =
      "(expected: 50us keeps BE cheap but LC average spikes with the bursts; 10us\n\
      \ holds LC low at a higher BE cost; the dynamic policy tracks the spikes —\n\
      \ near-10us LC latency during bursts, near-50us BE cost when load is low)";
  }

let run ~jobs () =
  Bench_util.header
    "Fig 14: bursty load (40->110 kRPS), constant vs dynamic preemption interval";
  Bench_util.figure ~jobs
    ~hook:(List.iter (fun (l, res) -> print_trace (Bench_util.label "variant" l) res))
    figure
