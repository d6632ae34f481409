(* Bechamel micro-benchmarks: host-machine cost of the core operations
   each table/figure leans on.  One Test.make per reproduced element:

   - Table IV        -> the UINTR fabric post/delivery path
   - Fig 2 / Fig 8   -> event-heap operations and one server-sim event
   - Fig 9 / Alg 1   -> controller observation + P2 quantile updates
   - Fig 11 / Fig 12 -> LibUtimer slot arming, timing-wheel add/advance
   - Fig 13 / Tab V  -> MICA zipfian service-time sampling
   - Fig 7 API       -> real fn_launch/fn_resume on the effects runtime *)

open Bechamel
open Toolkit

let test_event_heap =
  Test.make ~name:"fig2/8: event_heap push+pop"
    (Staged.stage (fun () ->
         let h = Engine.Event_heap.create () in
         for i = 0 to 63 do
           Engine.Event_heap.add h ~time:((i * 7919) mod 1021) ~seq:i i
         done;
         let rec drain () = match Engine.Event_heap.pop h with Some _ -> drain () | None -> () in
         drain ()))

let test_uintr_path =
  let sim = Engine.Sim.create () in
  let fabric = Hw.Uintr.create sim Hw.Params.default in
  let r = Hw.Uintr.register_receiver fabric ~handler:(fun _ ~vector:_ -> ()) () in
  let s = Hw.Uintr.create_sender fabric () in
  let idx = Hw.Uintr.connect s r ~vector:1 in
  Test.make ~name:"table4: senduipi post+delivery"
    (Staged.stage (fun () ->
         Hw.Uintr.senduipi s idx;
         Engine.Sim.run sim))

let test_timing_wheel =
  Test.make ~name:"fig11: timing_wheel add+advance"
    (Staged.stage (fun () ->
         let w = Utimer.Timing_wheel.create ~tick:100 () in
         for i = 1 to 64 do
           ignore (Utimer.Timing_wheel.add w ~deadline:(i * 137) i)
         done;
         ignore (Utimer.Timing_wheel.advance w ~upto:10_000)))

let test_p2 =
  Test.make ~name:"fig9: P2 quantile update x64"
    (Staged.stage
       (let rng = Engine.Rng.create 3L in
        fun () ->
          let p2 = Stat.Quantile.P2.create 0.99 in
          for _ = 1 to 64 do
            Stat.Quantile.P2.add p2 (Engine.Rng.float rng)
          done))

let test_controller =
  let controller =
    Preemptible.Quantum_controller.create ~max_load_per_s:1e6 ~initial_quantum_ns:50_000 ()
  in
  let snapshot =
    {
      Preemptible.Stats_window.window_start_ns = 0;
      window_ns = 1_000_000;
      arrivals = 1000;
      completions = 1000;
      arrival_rate_per_s = 800_000.0;
      median_ns = 1_000.0;
      p99_ns = 80_000.0;
      service_median_ns = 900.0;
      service_p99_ns = 60_000.0;
      max_qlen = 10;
    }
  in
  Test.make ~name:"alg1: controller observe"
    (Staged.stage (fun () -> ignore (Preemptible.Quantum_controller.observe controller snapshot)))

let test_mica =
  let mica = Workload.Mica.create () in
  let rng = Engine.Rng.create 17L in
  Test.make ~name:"table5/fig13: mica sample"
    (Staged.stage (fun () -> ignore (Workload.Mica.sample_ns mica rng)))

let test_fiber =
  let clock = Fiber_rt.Deadline_clock.virtual_ () in
  let rt = Fiber_rt.Fiber.create ~quantum_ns:1_000 ~clock () in
  Test.make ~name:"fig7: fn_launch+resume (effects)"
    (Staged.stage (fun () ->
         let fn =
           Fiber_rt.Fiber.fn_launch rt (fun () ->
               Fiber_rt.Deadline_clock.advance clock 1_500;
               Fiber_rt.Fiber.checkpoint rt;
               Fiber_rt.Deadline_clock.advance clock 1_500;
               Fiber_rt.Fiber.checkpoint rt)
         in
         while not (Fiber_rt.Fiber.fn_completed fn) do
           Fiber_rt.Fiber.fn_resume fn
         done))

let all_tests =
  [
    test_event_heap;
    test_uintr_path;
    test_timing_wheel;
    test_p2;
    test_controller;
    test_mica;
    test_fiber;
  ]

let run () =
  Bench_util.header "Bechamel micro-benchmarks (host cost of core operations, ns/op)";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:None () in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ])
      in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) -> Format.printf "%-40s %12.1f ns/op@." name est
          | Some [] | None -> Format.printf "%-40s %12s@." name "n/a")
        analyzed)
    all_tests
