(* Traced run: one LibPreemptible configuration (workload A1, 4
   workers, LibUtimer over UINTR) with the observability layer enabled.
   Exports the Perfetto trace_event JSON and prints the per-request
   latency breakdown — the software analogue of Table IV, measured on
   the running system rather than asserted. *)

let us = Engine.Units.us
let ms = Engine.Units.ms

let run ?out () =
  let out =
    match out with
    | Some f -> f
    | None -> (
      match Bench_util.getenv_nonempty "LP_TRACE_OUT" with
      | Some f -> f
      | None -> "trace.json")
  in
  Bench_util.header "Traced run: workload A1 on LibPreemptible (Perfetto export)";
  let duration_ns = ms 200 in
  let dist = Workload.Service_dist.workload_a1 in
  let rate = 0.7 *. Bench_util.capacity ~dist:Scenario.A1 ~workers:4 ~duration_ns in
  let cfg =
    Preemptible.Server.default_config ~n_workers:4
      ~policy:(Preemptible.Policy.fcfs_preempt ~quantum_ns:(us 5))
      ~mechanism:(Preemptible.Server.Uintr_utimer Utimer.default_config)
  in
  let cfg =
    {
      cfg with
      Preemptible.Server.trace = Some Obs.Trace.default_config;
      stats_window_ns = ms 10;
    }
  in
  let r =
    Preemptible.Server.run cfg
      ~arrival:(Workload.Arrival.poisson ~rate_per_sec:rate)
      ~source:(Bench_util.lc_source dist) ~duration_ns
  in
  Format.printf "%a@." Preemptible.Server.pp_result r;
  match r.Preemptible.Server.trace with
  | None -> failwith "bench_trace: tracing was configured but no trace came back"
  | Some trace ->
    let bd = Obs.Breakdown.of_trace trace in
    Format.printf "%a@." Obs.Breakdown.pp bd;
    Format.printf "breakdown telescopes to total (1 ns): %b@." (Obs.Breakdown.sums_ok bd);
    Obs.Export.perfetto_to_file trace ~path:out;
    Format.printf "trace: %d events recorded, %d dropped -> %s@." (Obs.Trace.recorded trace)
      (Obs.Trace.dropped trace) out;
    Format.printf "metrics:@.%a@." Obs.Metrics.pp_snapshot r.Preemptible.Server.metrics
