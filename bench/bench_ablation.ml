(* Ablations for the design choices called out in DESIGN.md:
   AB1 — LibUtimer linear scan vs timing wheel at large slot counts;
   AB2 — Algorithm 1 step-size (k) sensitivity on workload C;
   AB3 — timer-core poll interval;
   AB4 — queue disciplines and SLO cancellation;
   AB5 — hardware timer offload. *)

let us = Engine.Units.us
let ms = Engine.Units.ms

(* AB1: arm N slots periodically and measure firing lateness. *)
let ab1_one ~scan ~slots =
  let sim = Engine.Sim.create () in
  let hw = { Hw.Params.default with Hw.Params.uitt_size = 16_384 } in
  let fabric = Hw.Uintr.create sim hw in
  let config =
    match scan with
    | `Linear -> Utimer.default_config
    | `Wheel -> { Utimer.default_config with Utimer.scan = Utimer.Wheel; wheel_tick_ns = 500 }
  in
  let ut = Utimer.create sim ~uintr:fabric ~config () in
  let interval = us 100 in
  let rounds = 50 in
  let remaining = Array.make slots rounds in
  let slot_arr = Array.make slots None in
  for i = 0 to slots - 1 do
    let receiver =
      Hw.Uintr.register_receiver fabric
        ~handler:(fun _ ~vector:_ ->
          remaining.(i) <- remaining.(i) - 1;
          if remaining.(i) > 0 then
            match slot_arr.(i) with
            | Some slot -> Utimer.arm_after slot ~ns:interval
            | None -> ())
        ()
    in
    let slot = Utimer.register ut ~receiver ~vector:0 in
    slot_arr.(i) <- Some slot;
    Utimer.arm_after slot ~ns:(interval + (i * 37 mod interval))
  done;
  Utimer.start ut;
  let rec watchdog () =
    if Array.exists (fun r -> r > 0) remaining then
      ignore (Engine.Sim.after sim interval watchdog)
    else Utimer.stop ut
  in
  watchdog ();
  Engine.Sim.run sim;
  Stat.Summary.report (Utimer.lateness ut)

let ab1 ~jobs () =
  Format.printf "@.AB1: LibUtimer scan strategy — firing lateness (us) vs armed slots@.";
  ignore
    (Bench_util.points ~jobs ~name:"ab1"
       ~metrics:
         [
           ("mean_us", fun (r : Stat.Summary.report) -> r.Stat.Summary.mean /. 1e3);
           ("p99_us", fun r -> r.Stat.Summary.p99 /. 1e3);
         ]
       (fun _ (scan, slots) -> ab1_one ~scan ~slots)
       (List.concat_map
          (fun slots ->
            List.map
              (fun (name, scan) ->
                ([ ("scan", name); ("slots", string_of_int slots) ], (scan, slots)))
              [ ("linear", `Linear); ("wheel", `Wheel) ])
          [ 16; 64; 256; 1024; 4096 ]));
  Format.printf
    "(the wheel's lateness stays near the poll period as slot counts grow; the\n\
    \ linear scan's grows with the scan cost — the paper's 'timing wheel' opt-in)@."

(* AB2–AB5 run one server; the knobs the scenario language has no field
   for (poll interval, hardware offload) are set by the figure's run. *)
let ablation name ~base axis metrics run =
  {
    Figure.name = name;
    base;
    axes = [ axis ];
    run;
    metrics = List.map Figure.server_metric metrics;
    expected = "";
  }

let run_server _ spec = Scenario.run_server spec

(* AB2: Algorithm 1 k-step sensitivity on workload C. *)
let ab2 =
  ablation "ab2"
    ~base:
      "workers=4; src=c; arrival=poisson:900000; dur=200ms; warmup=20ms; window=10ms; \
       quantum=adaptive:40us; maxload=1300000"
    (Figure.axis "k_us"
       (List.map
          (fun k -> (string_of_int k, Printf.sprintf "ctl={k1=%dus;k2=%dus;k3=%dus}" k k k))
          [ 2; 8; 20 ]))
    [ "p99_us"; "preemptions" ] run_server

(* AB3: poll interval of the timer core. *)
let ab3 =
  ablation "ab3"
    ~base:"workers=4; quantum=5us; src=a1; arrival=poisson:1000000; dur=80ms; warmup=10ms"
    (Figure.axis "poll_ns" (List.map (fun p -> (string_of_int p, "")) [ 100; 500; 2_000; 10_000 ]))
    [ "p99_us"; "preemptions" ]
    (fun l spec ->
      let poll_ns = int_of_string (Bench_util.label "poll_ns" l) in
      Bench_util.run_with spec (fun cfg ->
          {
            cfg with
            Preemptible.Server.mechanism =
              Preemptible.Server.Uintr_utimer { Utimer.default_config with Utimer.poll_ns };
          }))

(* AB4: queue disciplines and SLO cancellation on workload A1; one
   worker so the local queue actually builds depth — with JSQ across
   several workers the disciplines rarely see a choice. *)
let ab4 =
  ablation "ab4"
    ~base:"workers=1; quantum=5us; src=a1; arrival=poisson:0.8x; dur=80ms; warmup=10ms"
    (Figure.axis "variant"
       [
         ("FCFS-P (paper default)", "discipline=fifo");
         ("SRPT oracle", "discipline=srpt");
         ("EDF (slo=1ms)", "discipline=edf:1ms");
         ("FCFS-P + cancel(>2ms)", "discipline=fifo; cancel=2ms");
       ])
    [ "p50_us"; "p99_us"; "p999_us"; "cancelled" ] run_server

(* AB5: Sec VII-C hardware offload — the timer core's worth.  Same
   total core budget: 5 cores = 4 workers + timer core, or 5 workers
   with the hardware comparators; both face the same offered rate
   (~94% of the 4-worker configuration's capacity). *)
let offload = "hw offload (5 workers, comparators)"

let ab5 =
  ablation "ab5" ~base:"quantum=5us; src=a1; arrival=poisson:1250000; dur=80ms; warmup=10ms"
    (Figure.axis "variant"
       [ ("timer core (4 workers + LibUtimer)", "workers=4"); (offload, "workers=5") ])
    [ "tput_rps"; "p99_us"; "p999_us"; "preemptions" ]
    (fun l spec ->
      Bench_util.run_with spec (fun cfg ->
          if Bench_util.label "variant" l = offload then
            { cfg with Preemptible.Server.mechanism = Preemptible.Server.Uintr_hw_offload }
          else cfg))

let run ~jobs () =
  Bench_util.header
    "Ablations (AB1 timing wheel, AB2 controller steps, AB3 poll interval,\n\
    \     AB4 disciplines/cancellation, AB5 hardware offload)";
  ab1 ~jobs ();
  Format.printf "@.AB2: adaptive controller step size (k1=k2=k3) on workload C@.";
  Bench_util.figure ~jobs ab2;
  Format.printf "@.AB3: timer-core poll interval on workload A1 at 80%% load, q=5us@.";
  Bench_util.figure ~jobs ab3;
  Format.printf "@.AB4: queue discipline / cancellation on A1, one worker at 80%% load, q=5us@.";
  Bench_util.figure ~jobs ab4;
  Format.printf
    "(FCFS-with-preemption already approximates SRPT here — exactly the paper's\n\
    \     argument that preemption removes the need for service-time knowledge;\n\
    \     cancellation trims the extreme tail by shedding SLO-doomed requests)@.";
  Format.printf "@.AB5: hardware timer offload (Sec VII-C) on A1, q=5us@.";
  Bench_util.figure ~jobs ab5;
  (* The power side of the same trade-off. *)
  let sim = Engine.Sim.create () in
  let fabric = Hw.Uintr.create sim Hw.Params.default in
  let ut = Utimer.create sim ~uintr:fabric () in
  Format.printf
    "timer-core power: %.1f W (UMWAIT-parked poll loop; Sec V-B measures ~1.2 W);\n\
    \     the hardware comparators spend silicon area instead (Sec VII-C)@."
    (Utimer.power_watts ut)
