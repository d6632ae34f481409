(* Fig 10: deployment overhead of LibPreemptible on a server that does
   not need preemption (the paper uses a gRPC thread-pool server with
   exponential service times behind wrk2).

   We measure the latency distribution of the same light-tailed
   workload with the preemption machinery armed (LibUtimer + UINTR,
   various quanta standing in for user-thread densities) against a
   no-preemption baseline, across load levels.  The paper reports
   ~1.2%% tail overhead at 89%% load. *)

let us = Bench_util.us
let ms = Bench_util.ms

let dist = Scenario.Exp (us 20)
let workers = 8

let run_one ~policy ~mechanism ~rate =
  let cfg = Preemptible.Server.default_config ~n_workers:workers ~policy ~mechanism in
  Preemptible.Server.run ~warmup_ns:(ms 20) cfg
    ~arrival:(Workload.Arrival.poisson ~rate_per_sec:rate)
    ~source:(Bench_util.lc_source (Scenario.service_dist Scenario.default dist))
    ~duration_ns:(ms 400)

let run ~jobs () =
  Bench_util.header
    "Fig 10: deployment overhead vs no preemption (exponential service, p99 ratio)";
  let cap = Bench_util.capacity ~dist ~workers ~duration_ns:0 in
  let loads = [ 0.3; 0.5; 0.7; 0.8; 0.89 ] in
  let quanta = [ us 100; us 50; us 25 ] in
  (* One sweep point per cell: the baseline column (quantum = 0) plus
     each armed quantum, at every load. *)
  let specs =
    List.concat_map (fun load -> List.map (fun q -> (load, q)) (0 :: quanta)) loads
  in
  let results =
    Bench_util.sweep ~label:"fig10" ~jobs
      (fun (load, q) ->
        let rate = load *. cap in
        if q = 0 then
          run_one ~policy:Preemptible.Policy.no_preempt
            ~mechanism:Preemptible.Server.No_mechanism ~rate
        else
          run_one
            ~policy:(Preemptible.Policy.fcfs_preempt ~quantum_ns:q)
            ~mechanism:(Preemptible.Server.Uintr_utimer Utimer.default_config)
            ~rate)
      specs
  in
  let by_key = Hashtbl.create 32 in
  List.iter2 (fun spec r -> Hashtbl.replace by_key spec r) specs results;
  Format.printf "%8s %14s" "load" "baseline p99";
  List.iter (fun q -> Format.printf "%14s" (Printf.sprintf "LP q=%dus" (q / 1000))) quanta;
  Format.printf "@.";
  List.iter
    (fun load ->
      let base = Hashtbl.find by_key (load, 0) in
      let bp99 = base.Preemptible.Server.all.Stat.Summary.p99 in
      Format.printf "%7.0f%% %12.1fus" (100.0 *. load) (bp99 /. 1e3);
      Bench_report.point ~fig:"fig10"
        ~labels:[ ("load", Printf.sprintf "%g" load); ("quantum_ns", "0") ]
        ~metrics:
          [
            ("p50_us", base.Preemptible.Server.all.Stat.Summary.p50 /. 1e3);
            ("p99_us", bp99 /. 1e3);
          ];
      List.iter
        (fun q ->
          let r = Hashtbl.find by_key (load, q) in
          let p99 = r.Preemptible.Server.all.Stat.Summary.p99 in
          let overhead = 100.0 *. (p99 -. bp99) /. bp99 in
          Bench_report.point ~fig:"fig10"
            ~labels:
              [ ("load", Printf.sprintf "%g" load); ("quantum_ns", string_of_int q) ]
            ~metrics:
              [
                ("p50_us", r.Preemptible.Server.all.Stat.Summary.p50 /. 1e3);
                ("p99_us", p99 /. 1e3);
                ("overhead_pct", overhead);
              ];
          Format.printf "%+13.1f%%" overhead)
        quanta;
      Format.printf "@.")
    loads;
  Format.printf
    "@.(expected: with q=100us — the deployment setting, where preemption is armed\n\
    \ but rarely fires — overhead stays within the histogram's ~2.6%% resolution\n\
    \ even at 89%% load, matching the paper's ~1.2%%; the q=50/25us columns show\n\
    \ the separate policy cost of slicing light-tailed work, cf. Fig 2)@."
