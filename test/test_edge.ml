(* Edge-case coverage for paths the main suites don't reach. *)

open Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Engine *)

let test_rng_uniform_bounds () =
  let r = Rng.create 2L in
  for _ = 1 to 5_000 do
    let x = Rng.uniform r ~lo:(-3.0) ~hi:7.0 in
    check_bool "in range" true (x >= -3.0 && x < 7.0)
  done;
  Alcotest.check_raises "lo > hi" (Invalid_argument "Rng.uniform: lo > hi") (fun () ->
      ignore (Rng.uniform r ~lo:1.0 ~hi:0.0))

let test_rng_bool_balanced () =
  let r = Rng.create 3L in
  let heads = ref 0 in
  for _ = 1 to 20_000 do
    if Rng.bool r then incr heads
  done;
  check_bool "roughly balanced" true (abs (!heads - 10_000) < 500)

let test_sim_event_introspection () =
  let sim = Sim.create () in
  let ev = Sim.at sim 500 (fun () -> ()) in
  check_int "time_of" 500 (Sim.time_of ev);
  check_bool "pending" true (Sim.is_pending ev);
  check_int "queue count" 1 (Sim.live_events sim);
  Sim.run sim;
  check_bool "fired" false (Sim.is_pending ev);
  check_int "clock" 500 (Sim.now sim)

let test_sim_run_until_advances_clock_when_idle () =
  let sim = Sim.create () in
  Sim.run_until sim 12_345;
  check_int "clock moved with no events" 12_345 (Sim.now sim)

(* Stat *)

let test_histogram_merge_mismatch () =
  let a = Stat.Histogram.create ~buckets_per_decade:90 () in
  let b = Stat.Histogram.create ~buckets_per_decade:45 () in
  Alcotest.check_raises "mismatch" (Invalid_argument "Histogram.merge_into: parameter mismatch")
    (fun () -> Stat.Histogram.merge_into ~dst:a ~src:b)

let test_summary_pp_format () =
  let s = Stat.Summary.create () in
  Stat.Summary.record s 1_000.0;
  Stat.Summary.record s 3_000.0;
  let out = Format.asprintf "%a" Stat.Summary.pp_report_us (Stat.Summary.report s) in
  check_bool "mentions count" true (Astring_contains.contains out "n=2");
  check_bool "prints microseconds" true (Astring_contains.contains out "us")

let test_timeseries_sum () =
  let ts = Stat.Timeseries.create ~window_ns:100 in
  Stat.Timeseries.record ts ~time:10 2.5;
  Stat.Timeseries.record ts ~time:20 1.5;
  match Stat.Timeseries.points ts with
  | [ p ] -> Alcotest.(check (float 1e-9)) "sum" 4.0 p.Stat.Timeseries.sum
  | _ -> Alcotest.fail "one window expected"

(* Workload *)

let test_pareto_dist_sampling () =
  let rng = Rng.create 4L in
  let d = Workload.Service_dist.pareto ~scale_ns:1_000 ~shape:1.5 in
  for _ = 1 to 2_000 do
    check_bool "above scale" true (Workload.Service_dist.sample d rng ~now:0 >= 1_000)
  done;
  check_bool "finite analytic mean for shape>1" true
    (Float.is_finite (Workload.Service_dist.mean_ns d ~now:0));
  let heavy = Workload.Service_dist.pareto ~scale_ns:1_000 ~shape:0.9 in
  check_bool "infinite mean for shape<=1" true
    (Workload.Service_dist.mean_ns heavy ~now:0 = infinity)

let test_source_of_fn_guard () =
  let bad = Workload.Source.of_fn ~name:"bad" (fun _ ~now:_ -> (0, Workload.Request.Latency_critical)) in
  Alcotest.check_raises "non-positive service"
    (Invalid_argument "Source.draw: sampler returned non-positive service time") (fun () ->
      ignore (Workload.Source.draw bad (Rng.create 1L) ~now:0))

let test_bursty_gap_follows_phase () =
  let rng = Rng.create 5L in
  let a =
    Workload.Arrival.bursty ~base_rate_per_sec:10_000.0 ~spike_rate_per_sec:1_000_000.0
      ~period_ns:(Units.ms 10) ~spike_fraction:0.5
  in
  (* average gaps in each phase differ by ~the rate ratio *)
  let mean_gap now =
    let acc = ref 0 in
    for _ = 1 to 3_000 do
      acc := !acc + Workload.Arrival.next_gap a rng ~now
    done;
    float_of_int !acc /. 3_000.0
  in
  let spike = mean_gap 100 in
  let base = mean_gap (Units.ms 9) in
  check_bool "spike gaps much shorter" true (base > 20.0 *. spike)

(* Policy / server odds and ends *)

let test_policy_names () =
  check_bool "fcfs name has quantum" true
    (Astring_contains.contains (Preemptible.Policy.fcfs_preempt ~quantum_ns:30_000).Preemptible.Policy.name "30");
  check_bool "be quantum name" true
    (Astring_contains.contains
       (Preemptible.Policy.with_be_quantum
          (Preemptible.Policy.fcfs_preempt ~quantum_ns:5_000)
          ~be_quantum_ns:50_000)
         .Preemptible.Policy.name "be")

let test_server_ps_policy_runs () =
  let cfg =
    Preemptible.Server.default_config ~n_workers:2
      ~policy:(Preemptible.Policy.processor_sharing ~quantum_ns:5_000)
      ~mechanism:(Preemptible.Server.Uintr_utimer Utimer.default_config)
  in
  let r =
    Preemptible.Server.run cfg
      ~arrival:(Workload.Arrival.poisson ~rate_per_sec:300_000.0)
      ~source:
        (Workload.Source.of_dist Workload.Service_dist.workload_a1
           ~cls:Workload.Request.Latency_critical)
      ~duration_ns:(Units.ms 20)
  in
  check_int "conserves" r.Preemptible.Server.offered r.Preemptible.Server.completed

let test_server_signal_utimer_validation () =
  let cfg =
    Preemptible.Server.default_config ~n_workers:1 ~policy:Preemptible.Policy.no_preempt
      ~mechanism:(Preemptible.Server.Signal_utimer { poll_ns = 0 })
  in
  Alcotest.check_raises "poll must be positive"
    (Invalid_argument "Server: Signal_utimer poll must be positive") (fun () ->
      ignore
        (Preemptible.Server.run cfg
           ~arrival:(Workload.Arrival.poisson ~rate_per_sec:1_000.0)
           ~source:
             (Workload.Source.of_dist (Workload.Service_dist.constant 100)
                ~cls:Workload.Request.Latency_critical)
           ~duration_ns:1_000_000))

let test_cancel_needs_preemption () =
  (* Without a preemption mechanism nothing can be cancelled: the hook
     only runs at preemption time. *)
  let cfg =
    Preemptible.Server.default_config ~n_workers:1 ~policy:Preemptible.Policy.no_preempt
      ~mechanism:Preemptible.Server.No_mechanism
  in
  let cfg = { cfg with Preemptible.Server.cancel_after_slo = Some 1_000 } in
  let r =
    Preemptible.Server.run cfg
      ~arrival:(Workload.Arrival.poisson ~rate_per_sec:100_000.0)
      ~source:
        (Workload.Source.of_dist Workload.Service_dist.workload_a1
           ~cls:Workload.Request.Latency_critical)
      ~duration_ns:(Units.ms 10)
  in
  check_int "no cancellations possible" 0 r.Preemptible.Server.cancelled

(* Fiber *)

let test_fiber_result_none_while_suspended () =
  let clock = Fiber_rt.Deadline_clock.virtual_ () in
  let rt = Fiber_rt.Fiber.create ~quantum_ns:100 ~clock () in
  let fn =
    Fiber_rt.Fiber.fn_launch rt (fun () ->
        Fiber_rt.Deadline_clock.advance clock 200;
        Fiber_rt.Fiber.checkpoint rt;
        42)
  in
  Alcotest.(check (option int)) "no result yet" None (Fiber_rt.Fiber.result fn);
  Fiber_rt.Fiber.fn_resume fn;
  Alcotest.(check (option int)) "result after resume" (Some 42) (Fiber_rt.Fiber.result fn)

let test_fiber_launch_quantum_validation () =
  let clock = Fiber_rt.Deadline_clock.virtual_ () in
  let rt = Fiber_rt.Fiber.create ~clock () in
  Alcotest.check_raises "bad per-fn quantum"
    (Invalid_argument "Fiber.fn_launch: quantum must be positive") (fun () ->
      ignore (Fiber_rt.Fiber.fn_launch rt ~quantum_ns:0 (fun () -> ())))

(* Additional cross-checks *)

let test_context_free_list_is_lifo () =
  let pool = Preemptible.Context.create_pool ~capacity:3 ~stack_kb:16 in
  let a = Preemptible.Context.alloc pool in
  let b = Preemptible.Context.alloc pool in
  Preemptible.Context.release pool b;
  Preemptible.Context.release pool a;
  (* cache-friendly reuse: most recently released comes back first *)
  let c = Preemptible.Context.alloc pool in
  check_int "lifo reuse" (Preemptible.Context.ctx_id a) (Preemptible.Context.ctx_id c)

let test_fn_deadline_tracks_resume () =
  let pool = Preemptible.Context.create_pool ~capacity:1 ~stack_kb:16 in
  let req =
    Workload.Request.make ~id:0 ~arrival_ns:0 ~service_ns:10_000
      ~cls:Workload.Request.Latency_critical
  in
  let fn = Preemptible.Fn.create req ~ctx:(Preemptible.Context.alloc pool) in
  Preemptible.Fn.launch fn ~now:100 ~quantum_ns:1_000;
  Preemptible.Fn.note_progress fn ~executed_ns:1_000;
  Preemptible.Fn.preempt fn;
  check_int "deadline cleared on preempt" max_int (Preemptible.Fn.deadline_ns fn);
  Preemptible.Fn.resume fn ~now:5_000 ~quantum_ns:2_000;
  check_int "deadline re-set on resume" 7_000 (Preemptible.Fn.deadline_ns fn)

let test_stats_window_accessor () =
  let w = Preemptible.Stats_window.create ~window_ns:123 in
  check_int "window_ns" 123 (Preemptible.Stats_window.window_ns w)

let test_ipc_pp_result () =
  let r = Ksim.Ipc.run_pingpong Ksim.Ipc.Mq ~n:100 in
  let out = Format.asprintf "%a" Ksim.Ipc.pp_result r in
  check_bool "names mechanism" true (Astring_contains.contains out "mq");
  check_bool "prints rate" true (Astring_contains.contains out "msg/s")

let test_quantile_p2_extremes () =
  (* All-equal observations must not divide by zero. *)
  let p2 = Stat.Quantile.P2.create 0.9 in
  for _ = 1 to 100 do
    Stat.Quantile.P2.add p2 5.0
  done;
  Alcotest.(check (float 1e-9)) "degenerate stream" 5.0 (Stat.Quantile.P2.get p2)

let test_units_negative_pp () =
  let out = Format.asprintf "%a" Units.pp_duration (-500) in
  check_bool "negative printable" true (Astring_contains.contains out "-500")

let test_tsc_roundtrip_property () =
  let p = Hw.Params.default in
  for ns = 0 to 1_000 do
    let c = Hw.Params.tsc_of_ns p (ns * 997) in
    let back = Hw.Params.ns_of_tsc p c in
    check_bool "roundtrip within 1ns" true (abs (back - (ns * 997)) <= 1)
  done

let test_libinger_matches_server_kernel_mech () =
  (* The Libinger wrapper is exactly Server + Kernel_timer; same seed,
     same answer. *)
  let arrival = Workload.Arrival.poisson ~rate_per_sec:200_000.0 in
  let source =
    Workload.Source.of_dist Workload.Service_dist.workload_a1
      ~cls:Workload.Request.Latency_critical
  in
  let via_wrapper =
    Baselines.Libinger.run
      (Baselines.Libinger.default_config ~n_workers:3 ~quantum_ns:(Units.us 20))
      ~arrival ~source ~duration_ns:(Units.ms 20)
  in
  let via_server =
    let cfg =
      Preemptible.Server.default_config ~n_workers:3
        ~policy:(Preemptible.Policy.fcfs_preempt ~quantum_ns:(Units.us 20))
        ~mechanism:Preemptible.Server.Kernel_timer
    in
    Preemptible.Server.run cfg ~arrival ~source ~duration_ns:(Units.ms 20)
  in
  Alcotest.(check (float 0.0)) "identical p99"
    via_server.Preemptible.Server.all.Stat.Summary.p99
    via_wrapper.Preemptible.Server.all.Stat.Summary.p99

let test_hill_rejects_bad_k () =
  Alcotest.check_raises "k out of range" (Invalid_argument "Tail_index.hill: k out of range")
    (fun () -> ignore (Stat.Tail_index.hill [| 1.0; 2.0 |] ~k:5))

let suites =
  [
    ( "edge",
      [
        Alcotest.test_case "rng uniform" `Quick test_rng_uniform_bounds;
        Alcotest.test_case "rng bool" `Quick test_rng_bool_balanced;
        Alcotest.test_case "sim event introspection" `Quick test_sim_event_introspection;
        Alcotest.test_case "run_until idle clock" `Quick test_sim_run_until_advances_clock_when_idle;
        Alcotest.test_case "histogram merge mismatch" `Quick test_histogram_merge_mismatch;
        Alcotest.test_case "summary pp" `Quick test_summary_pp_format;
        Alcotest.test_case "timeseries sum" `Quick test_timeseries_sum;
        Alcotest.test_case "pareto dist" `Quick test_pareto_dist_sampling;
        Alcotest.test_case "source guard" `Quick test_source_of_fn_guard;
        Alcotest.test_case "bursty phases" `Quick test_bursty_gap_follows_phase;
        Alcotest.test_case "policy names" `Quick test_policy_names;
        Alcotest.test_case "ps policy server" `Slow test_server_ps_policy_runs;
        Alcotest.test_case "signal_utimer validation" `Quick test_server_signal_utimer_validation;
        Alcotest.test_case "cancel needs preemption" `Quick test_cancel_needs_preemption;
        Alcotest.test_case "fiber result states" `Quick test_fiber_result_none_while_suspended;
        Alcotest.test_case "fiber quantum validation" `Quick test_fiber_launch_quantum_validation;
        Alcotest.test_case "context lifo reuse" `Quick test_context_free_list_is_lifo;
        Alcotest.test_case "fn deadline on resume" `Quick test_fn_deadline_tracks_resume;
        Alcotest.test_case "stats window accessor" `Quick test_stats_window_accessor;
        Alcotest.test_case "ipc pp" `Quick test_ipc_pp_result;
        Alcotest.test_case "p2 degenerate stream" `Quick test_quantile_p2_extremes;
        Alcotest.test_case "units negative pp" `Quick test_units_negative_pp;
        Alcotest.test_case "tsc roundtrip" `Quick test_tsc_roundtrip_property;
        Alcotest.test_case "libinger = server+kernel_timer" `Slow
          test_libinger_matches_server_kernel_mech;
        Alcotest.test_case "hill bad k" `Quick test_hill_rejects_bad_k;
      ] );
  ]
