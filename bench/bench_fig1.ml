(* Fig 1 (left): software- vs hardware-based IPC delivery.
   Fig 1 (right): normalized preemption overhead on Shinjuku for
   workloads of increasing dispersion, each at its best-tail-latency
   time quantum. *)

let us = Engine.Units.us
let ms = Engine.Units.ms

let left () =
  Bench_util.header "Fig 1 (left): software vs hardware IPC delivery latency";
  let signal = Ksim.Ipc.run_pingpong Ksim.Ipc.Signal_ipc ~n:100_000 in
  let uintr = Ksim.Ipc.run_pingpong Ksim.Ipc.Uintrfd ~n:100_000 in
  Format.printf "software (signal) : %6.3f us@." signal.Ksim.Ipc.avg_us;
  Format.printf "hardware (UINTR)  : %6.3f us@." uintr.Ksim.Ipc.avg_us;
  Format.printf "gap               : %6.1fx@."
    (signal.Ksim.Ipc.avg_us /. uintr.Ksim.Ipc.avg_us)

(* Dispersion ladder: squared coefficient of variation increases down
   the list. *)
let dispersion_ladder =
  [
    ("constant 5us", Workload.Service_dist.constant (us 5));
    ("exponential 5us", Workload.Service_dist.workload_b);
    ("lognormal 5us cv2", Workload.Service_dist.lognormal ~mean_ns:(us 5) ~std_ns:(us 10));
    ("bimodal A2 (5/500)", Workload.Service_dist.workload_a2);
    ("bimodal A1 (0.5/500)", Workload.Service_dist.workload_a1);
  ]

let shinjuku_run ~quantum ~dist ~rate =
  let cfg = Baselines.Shinjuku.default_config ~n_workers:5 ~quantum_ns:quantum in
  Baselines.Shinjuku.run ~warmup_ns:(ms 10) cfg
    ~arrival:(Workload.Arrival.poisson ~rate_per_sec:rate)
    ~source:(Workload.Source.of_dist dist ~cls:Workload.Request.Latency_critical)
    ~duration_ns:(ms 80)

let right ~jobs () =
  Bench_util.header
    "Fig 1 (right): preemption overhead / lean execution on Shinjuku (best-tail quantum)";
  let cfg0 = Baselines.Shinjuku.default_config ~n_workers:5 ~quantum_ns:1 in
  let per_preempt_ns =
    Hw.Params.default.Hw.Params.ipi_send_ns + Hw.Params.default.Hw.Params.ipi_delivery_ns
    + cfg0.Baselines.Shinjuku.worker_preempt_cost_ns
    + Ksim.Costs.default.Ksim.Costs.fcontext_swap_ns
  in
  (* The quantum search is a (workload x candidate) grid of independent
     runs; the argmin over p99 picks each workload's point. *)
  let candidates = [ us 5; us 10; us 25; us 50; us 100; max_int ] in
  let results =
    Bench_util.run ~jobs ~label:"fig1"
      (fun _ (dist, q) ->
        let mean = Workload.Service_dist.mean_ns dist ~now:0 in
        shinjuku_run ~quantum:q ~dist ~rate:(0.7 *. 5.0 *. 1e9 /. mean))
      (List.concat_map
         (fun (name, dist) ->
           List.map
             (fun q -> ([ ("workload", name); ("q", string_of_int q) ], (dist, q)))
             candidates)
         dispersion_ladder)
  in
  let p99 (r : Preemptible.Server.result) = r.Preemptible.Server.all.Stat.Summary.p99 in
  Bench_util.emit "fig1"
    (List.map
       (fun (name, dist) ->
         let runs = List.filter (fun (l, _) -> Bench_util.label "workload" l = name) results in
         let best, r =
           List.fold_left
             (fun (bl, br) (l, r) -> if p99 r < p99 br then (l, r) else (bl, br))
             (List.hd runs) (List.tl runs)
         in
         let best_q = int_of_string (Bench_util.label "q" best) in
         let lean_ns =
           float_of_int r.Preemptible.Server.completed *. Workload.Service_dist.mean_ns dist ~now:0
         in
         let preempt_ns = float_of_int (r.Preemptible.Server.preemptions * per_preempt_ns) in
         ( [ ("workload", name) ],
           [
             ("best_quantum_us", if best_q = max_int then 0.0 else float_of_int (best_q / 1000));
             ("p99_us", p99 r /. 1e3);
             ("overhead_pct", 100.0 *. preempt_ns /. lean_ns);
           ] ))
       dispersion_ladder);
  Format.printf
    "(expected shape: overhead grows with workload dispersion — heavy tails need\n\
    \ aggressive quanta, so more cycles go to preemption)@."

let run ~jobs () =
  left ();
  right ~jobs ()
