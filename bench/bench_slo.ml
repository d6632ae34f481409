(* SLO telemetry figure (bench --slo).

   A flash crowd hits an unguarded server and the latency SLO starts
   burning.  Two detectors watch the same completion stream: the
   multi-window burn-rate alert (Obs.Slo; fast and slow windows both
   burning above threshold) and a naive static alert (the cumulative
   error budget is exhausted, i.e. the SLO is already lost).  The gated
   headline is the lead time: the burn-rate alert fires during the
   ramp, the static alert only after the healthy history has been
   eaten through.

   A second case re-runs the scenario with telemetry off and checks the
   latency results are bit-identical (results_identical = 1.0): the
   telemetry tick is passive. *)

let us = Engine.Units.us
let ms = Engine.Units.ms

let flash_start_ns = ms 50
let tick_ns = us 500
let threshold_ns = us 250

(* The whole experiment as one declarative scenario: 4 adaptive-quantum
   workers on workload B, flash crowd 0.5x -> 3x capacity at 50ms.
   Telemetry (the object of the figure) sits outside the DSL and is
   record-updated onto the lowered config below. *)
let spec =
  Bench_util.spec_of_string
    "workers=4; quantum=adaptive:20us; ctl={k1=2us;k2=10us;k3=8us;lhigh=0.95}; \
     src=b; arrival=flash:0.5x:3x:50ms:5ms:5ms:5ms; dur=70ms; warmup=2ms; \
     window=2ms; seed=11"

(* "90% of requests under 250us": a loose objective so the pre-flash
   history accumulates real budget for the static alert to chew
   through. *)
let slo_spec =
  {
    Obs.Slo.name = "p90_250us";
    threshold_ns;
    objective = 0.9;
    window_ns = tick_ns;
    fast_windows = 2;
    slow_windows = 6;
    burn_threshold = 3.0;
  }

let telemetry_config =
  {
    Preemptible.Telemetry.default with
    Preemptible.Telemetry.tick_ns;
    slos = [ slo_spec ];
  }

let run_case ~telemetry =
  Bench_util.run_with spec (fun cfg ->
      {
        cfg with
        Preemptible.Server.telemetry = (if telemetry then Some telemetry_config else None);
      })

let run ~jobs:_ () =
  Bench_util.header
    (Printf.sprintf
       "SLO telemetry: burn-rate vs static alerting through a flash crowd\n\
        (workload B, %d workers, flash 0.5x -> 3x capacity at %.0fms, SLO %s)"
       spec.Scenario.workers
       (float_of_int flash_start_ns /. 1e6)
       slo_spec.Obs.Slo.name);
  let r = run_case ~telemetry:true in
  let tel =
    match r.Preemptible.Server.telemetry with
    | Some t -> t
    | None -> failwith "bench_slo: telemetry report missing"
  in
  let slo =
    match tel.Preemptible.Telemetry.t_slos with
    | [ s ] -> s
    | _ -> failwith "bench_slo: expected exactly one SLO report"
  in
  let to_ms = function Some ns -> float_of_int ns /. 1e6 | None -> nan in
  let first_burn_ms = to_ms slo.Obs.Slo.first_burn_alert_ns in
  let first_static_ms = to_ms slo.Obs.Slo.first_static_alert_ns in
  let lead_ms = first_static_ms -. first_burn_ms in
  Format.printf "  flash-crowd ramp starts at %.1fms (capacity crossed mid-ramp)@."
    (float_of_int flash_start_ns /. 1e6);
  Format.printf "  burn-rate alert (fast %d / slow %d windows, burn >= %.0fx):%10.3fms@."
    slo_spec.Obs.Slo.fast_windows slo_spec.Obs.Slo.slow_windows
    slo_spec.Obs.Slo.burn_threshold first_burn_ms;
  Format.printf "  naive static alert (cumulative budget exhausted):        %10.3fms@."
    first_static_ms;
  Format.printf "  lead time: burn-rate pages %.3fms earlier@." lead_ms;
  Format.printf "  %a@." Obs.Slo.pp_report slo;
  (* Scheduler introspection recorded alongside: controller decisions
     and where the cores' time went. *)
  let audits = List.length tel.Preemptible.Telemetry.t_audit in
  let quanta =
    List.map (fun a -> a.Preemptible.Telemetry.a_quantum_after_ns)
      tel.Preemptible.Telemetry.t_audit
  in
  let qmin = List.fold_left min max_int quanta and qmax = List.fold_left max 0 quanta in
  Format.printf "  controller audit: %d decisions, quantum %d..%dns over the run@." audits
    qmin qmax;
  Array.iteri
    (fun i c ->
      Format.printf "  core %d: %a@." i Preemptible.Telemetry.pp_core_attr c)
    tel.Preemptible.Telemetry.t_cores;
  (* Passivity: the same seed with telemetry off must land on the same
     latencies, bit for bit. *)
  let r_off = run_case ~telemetry:false in
  let identical =
    r.Preemptible.Server.all = r_off.Preemptible.Server.all
    && r.Preemptible.Server.completed = r_off.Preemptible.Server.completed
    && r.Preemptible.Server.preemptions = r_off.Preemptible.Server.preemptions
  in
  Format.printf "  telemetry on vs off: results %s@."
    (if identical then "bit-identical" else "DIVERGED");
  let p99_us = r.Preemptible.Server.all.Stat.Summary.p99 /. 1e3 in
  Bench_report.point ~fig:"slo"
    ~labels:[ ("case", "flash") ]
    ~metrics:
      [
        ("first_burn_ms", first_burn_ms);
        ("first_static_ms", first_static_ms);
        ("lead_ms", lead_ms);
        ("burn_alerts", float_of_int slo.Obs.Slo.burn_alerts);
        ("budget_consumed", slo.Obs.Slo.budget_consumed);
        ("p99_us", p99_us);
        ("ticks", float_of_int tel.Preemptible.Telemetry.t_ticks);
      ];
  Bench_report.point ~fig:"slo"
    ~labels:[ ("case", "overhead") ]
    ~metrics:
      [
        ("results_identical", (if identical then 1.0 else 0.0));
        ("completed", float_of_int r.Preemptible.Server.completed);
      ];
  Format.printf
    "@.(expected: the burn-rate alert fires during the ramp, the static alert only after\n\
    \ the pre-flash budget is spent; lead time > 0 and telemetry on/off bit-identical)@."
