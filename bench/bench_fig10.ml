(* Fig 10: deployment overhead of LibPreemptible on a server that does
   not need preemption (the paper uses a gRPC thread-pool server with
   exponential service times behind wrk2).

   We measure the latency distribution of the same light-tailed
   workload with the preemption machinery armed (LibUtimer + UINTR,
   various quanta standing in for user-thread densities) against a
   no-preemption baseline, across load levels.  The paper reports
   ~1.2% tail overhead at 89% load.  Each armed point also reports its
   p99 overhead over the baseline at the same load. *)

let figure =
  {
    Figure.name = "fig10";
    base = "workers=8; src=exp:20us; dur=400ms; warmup=20ms";
    axes =
      [
        Figure.loads [ 0.3; 0.5; 0.7; 0.8; 0.89 ];
        Figure.quanta [ 0; 100; 50; 25 ];
      ];
    run = (fun _ spec -> Scenario.run_server spec);
    metrics = List.map Figure.server_metric [ "p50_us"; "p99_us" ];
    expected =
      "(expected: with q=100us — the deployment setting, where preemption is armed\n\
      \ but rarely fires — overhead stays within the histogram's ~2.6% resolution\n\
      \ even at 89% load, matching the paper's ~1.2%; the q=50/25us columns show\n\
      \ the separate policy cost of slicing light-tailed work, cf. Fig 2)";
  }

let run ~jobs () =
  Bench_util.header
    "Fig 10: deployment overhead vs no preemption (exponential service, p99 ratio)";
  let results = Bench_util.run ~jobs ~label:figure.name figure.run (Figure.points figure) in
  let p99 (r : Preemptible.Server.result) = r.Preemptible.Server.all.Stat.Summary.p99 in
  Bench_util.emit figure.name
    (List.map2
       (fun (l, r) (_, metrics) ->
         if Bench_util.label "quantum_ns" l = "0" then (l, metrics)
         else
           let base = p99 (Bench_util.find results l ~keys:[ "load" ] ("quantum_ns", "0")) in
           (l, metrics @ [ ("overhead_pct", 100.0 *. (p99 r -. base) /. base) ]))
       results
       (Bench_util.rows figure.metrics results));
  Format.printf "@.%s@." figure.expected
