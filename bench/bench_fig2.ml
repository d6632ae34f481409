(* Fig 2: p99 latency vs load for different preemption quanta, on a
   heavy-tailed bimodal workload and a light-tailed exponential
   workload, 16 cores.  The crossover the paper motivates adaptivity
   with: small quanta win under heavy tails, large (or no) quanta win
   under light tails.

   16 workers at ~5 Mrps would saturate the default 250ns dispatcher
   before the workers; the dispatch path is not the object of this
   experiment, so it is made cheap. *)

let figure =
  {
    Figure.name = "fig2";
    base = "workers=16; dispatch=50ns; dur=60ms; warmup=10ms";
    axes =
      [
        Figure.axis "workload"
          [
            ("bimodal 99.5%x0.5us + 0.5%x500us (heavy)", "src=a1");
            ("exponential mean 5us (light)", "src=b");
          ];
        Figure.loads [ 0.2; 0.4; 0.6; 0.7; 0.8; 0.9 ];
        Figure.quanta [ 0; 5; 25; 100 ];
      ];
    run = (fun _ spec -> Scenario.run_server spec);
    metrics = List.map Figure.server_metric [ "p50_us"; "p99_us"; "p999_us"; "tput_rps" ];
    expected =
      "(expected: on the bimodal workload lower quanta give lower p99; on the\n\
      \ exponential workload preemption only adds overhead, so larger quanta win)";
  }

let run ~jobs () =
  Bench_util.header
    "Fig 2: p99 latency (us) vs load for preemption quanta, 16 cores (0 = no preemption)";
  Bench_util.figure ~jobs figure
