(* bench --perf: engine hot-path throughput and allocation budget.

   Two probes, recorded under the report's [meta.perf] block — never
   under "figures":

   - engine micro: a fixed population of self-rescheduling callbacks
     pushed through one [Sim.t].  The callbacks are preallocated, so
     every word of garbage the probe observes is engine-internal
     (heap, event records, queue cells) — the alloc budget DESIGN §9
     commits to.

   - server macro: one mid-load Fig 8-style point (workload A2,
     LibPreemptible q=5us).  This exercises the full dispatch path:
     arrivals, rqueues, context pool, utimer scan, preemption.

   Events/sec numbers are host wall-clock facts; the minor-word and
   event counts depend only on the compiled program (simulated-time
   normalisation), which is what lets CI gate them next to the
   determinism job (see EXPERIMENTS.md). *)

let micro_events = 2_000_000

let micro_population = 4096
(* Live-event population during the probe.  Sized like a loaded server:
   thousands of outstanding arrivals, quanta and timer polls in flight
   at once (a mid-load Fig 8 point keeps live_events in the thousands),
   so the heap works at realistic depth. *)

let engine_micro () =
  let sim = Engine.Sim.create ~seed:7L () in
  let fired = ref 0 in
  let cbs =
    Array.init micro_population (fun i ->
        let gap = (i * 37 mod 97) + 1 in
        let rec cb () =
          incr fired;
          if !fired + micro_population <= micro_events then
            ignore (Engine.Sim.after sim gap cb)
        in
        cb)
  in
  Array.iteri (fun i cb -> ignore (Engine.Sim.after sim (i + 1) cb)) cbs;
  Gc.full_major ();
  let alloc = Obs.Alloc.start () in
  let t0 = Unix.gettimeofday () in
  Engine.Sim.run sim;
  let wall = Unix.gettimeofday () -. t0 in
  let words = Obs.Alloc.words alloc in
  (!fired, wall, words)

let server_macro () =
  let dist = Workload.Service_dist.workload_a2 in
  let duration_ns = Engine.Units.ms 100 in
  let warmup_ns = Engine.Units.ms 20 in
  let rate = 0.8 *. Bench_util.capacity ~dist:Scenario.A2 ~workers:4 ~duration_ns in
  let cfg =
    Preemptible.Server.default_config ~n_workers:4
      ~policy:(Preemptible.Policy.fcfs_preempt ~quantum_ns:(Engine.Units.us 5))
      ~mechanism:(Preemptible.Server.Uintr_utimer Utimer.default_config)
  in
  Gc.full_major ();
  let alloc = Obs.Alloc.start () in
  let t0 = Unix.gettimeofday () in
  let r =
    Preemptible.Server.run ~warmup_ns cfg
      ~arrival:(Workload.Arrival.poisson ~rate_per_sec:rate)
      ~source:(Bench_util.lc_source dist) ~duration_ns
  in
  let wall = Unix.gettimeofday () -. t0 in
  let words = Obs.Alloc.words alloc in
  (r, wall, words, float_of_int duration_ns /. 1e9)

let run () =
  Bench_util.header "perf: engine hot-path throughput and allocation budget";
  let fired, wall, words = engine_micro () in
  let eps = float_of_int fired /. wall in
  let wpe = words /. float_of_int fired in
  Format.printf "engine micro: %d events in %.3fs = %.2f Mev/s, %.2f minor words/event@."
    fired wall (eps /. 1e6) wpe;
  Bench_report.perf "micro_events_per_s" eps;
  Bench_report.perf "micro_minor_words_per_event" wpe;
  let r, swall, swords, sim_s = server_macro () in
  let swps = swords /. sim_s in
  let sim_events = float_of_int r.Preemptible.Server.sim_events in
  Format.printf
    "server macro: %d completed, %.0f sim events, wall %.3fs (%.3f sim s)@."
    r.Preemptible.Server.completed sim_events swall sim_s;
  Format.printf "server macro: %.2f Mev/s wall, %.3g minor words/sim s@."
    (sim_events /. swall /. 1e6) swps;
  Bench_report.perf "server_events_per_s" (sim_events /. swall);
  Bench_report.perf "server_sim_events" sim_events;
  Bench_report.perf "server_minor_words_per_sim_s" swps
