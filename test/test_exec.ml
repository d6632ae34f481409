(* The parallel sweep engine: pool semantics (ordering, failure
   propagation, stats), the determinism contract (sweep at any worker
   count = List.map), merge associativity of the statistics the sweeps
   fold, and the seeding helper. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Pool semantics                                                      *)
(* ------------------------------------------------------------------ *)

let test_run_all_order () =
  (* Adversarial durations: early tasks are the slowest, so with >1
     worker they complete out of submission order — results must come
     back in submission order regardless. *)
  List.iter
    (fun jobs ->
      let pool = Exec.Pool.create ~jobs () in
      let n = 20 in
      let tasks =
        List.init n (fun i () ->
            let spin = (n - i) * 2000 in
            let acc = ref 0 in
            for k = 1 to spin do
              acc := (!acc + k) land 0xffff
            done;
            ignore !acc;
            i * i)
      in
      let results = Exec.Pool.run_all pool tasks in
      Exec.Pool.shutdown pool;
      Alcotest.(check (list int))
        (Printf.sprintf "submission order at jobs=%d" jobs)
        (List.init n (fun i -> i * i))
        results)
    [ 1; 2; 4 ]

exception Boom of int

let test_failure_propagates () =
  List.iter
    (fun jobs ->
      let pool = Exec.Pool.create ~jobs () in
      let p_ok = Exec.Pool.submit pool (fun () -> 1) in
      let p_bad = Exec.Pool.submit pool (fun () -> raise (Boom 7)) in
      let p_ok2 = Exec.Pool.submit pool (fun () -> 2) in
      check_int "before failure" 1 (Exec.Pool.await p_ok);
      (match Exec.Pool.await p_bad with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 7 -> ());
      (* One task failing must not poison the rest of the batch. *)
      check_int "after failure" 2 (Exec.Pool.await p_ok2);
      let s = Exec.Pool.stats pool in
      Exec.Pool.shutdown pool;
      check_int "failed count" 1 s.Exec.Pool.failed;
      check_int "completed count" 2 s.Exec.Pool.completed)
    [ 1; 2 ]

let test_submit_after_shutdown () =
  let pool = Exec.Pool.create ~jobs:2 () in
  Exec.Pool.shutdown pool;
  match Exec.Pool.submit pool (fun () -> 0) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_stats_accounting () =
  let pool = Exec.Pool.create ~jobs:3 () in
  let n = 30 in
  let _ = Exec.Pool.run_all pool (List.init n (fun i () -> i)) in
  let s = Exec.Pool.stats pool in
  Exec.Pool.shutdown pool;
  check_int "jobs" 3 s.Exec.Pool.jobs;
  check_int "submitted" n s.Exec.Pool.submitted;
  check_int "completed" n s.Exec.Pool.completed;
  check_int "failed" 0 s.Exec.Pool.failed;
  check_int "per-worker totals"
    n
    (Array.fold_left ( + ) 0 s.Exec.Pool.tasks_per_worker);
  check_bool "occupancy within worker count" true
    (s.Exec.Pool.max_occupancy >= 1 && s.Exec.Pool.max_occupancy <= 3)

let test_sequential_occupancy () =
  (* jobs=1 runs inline: never more than one task in flight. *)
  let pool = Exec.Pool.create ~jobs:1 () in
  let _ = Exec.Pool.run_all pool (List.init 10 (fun i () -> i)) in
  let s = Exec.Pool.stats pool in
  Exec.Pool.shutdown pool;
  check_int "peak occupancy" 1 s.Exec.Pool.max_occupancy

(* ------------------------------------------------------------------ *)
(* Trace probes                                                        *)
(* ------------------------------------------------------------------ *)

let test_trace_spans_balance () =
  let now = ref 0 in
  let trace =
    Obs.Trace.create
      ~config:{ Obs.Trace.capacity = 1024; categories = [ Obs.Trace.Exec ] }
      ~clock:(fun () -> incr now; !now)
      ()
  in
  let pool = Exec.Pool.create ~trace ~label:"unit" ~jobs:2 () in
  let n = 8 in
  let _ = Exec.Pool.run_all pool (List.init n (fun i () -> i)) in
  Exec.Pool.shutdown pool;
  let begins = ref 0 and ends = ref 0 and counters = ref 0 in
  Obs.Trace.iter trace (fun ev ->
      match ev.Obs.Trace.kind with
      | Obs.Trace.Span_begin -> incr begins
      | Obs.Trace.Span_end -> incr ends
      | Obs.Trace.Counter -> incr counters
      | _ -> ());
  check_int "span begins" n !begins;
  check_int "span ends" n !ends;
  (* occupancy counter on both edges of every task *)
  check_int "occupancy counters" (2 * n) !counters

(* ------------------------------------------------------------------ *)
(* Sweep determinism                                                   *)
(* ------------------------------------------------------------------ *)

(* A miniature simulation: deterministic function of the input alone,
   but with enough RNG churn to notice shared state. *)
let mini_sim seed =
  let rng = Engine.Rng.create seed in
  let acc = ref 0L in
  for _ = 1 to 1000 do
    acc := Int64.add !acc (Engine.Rng.bits64 rng)
  done;
  !acc

let test_sweep_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Exec.Sweep.run ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 9 ] (Exec.Sweep.run ~jobs:4 (fun x -> x * x) [ 3 ])

let qcheck_sweep_is_map =
  QCheck.Test.make ~count:30 ~name:"Sweep.run ~jobs:n f xs = List.map f xs"
    QCheck.(pair (int_range 1 8) (small_list int64))
    (fun (jobs, seeds) ->
      let f = mini_sim in
      Exec.Sweep.run ~jobs f seeds = List.map f seeds)

let test_sweep_real_sim_parallel_eq_sequential () =
  (* The actual acceptance property on a real (small) server run: the
     full simulation pipeline, not just a toy RNG loop. *)
  let run_point rate =
    let cfg =
      Preemptible.Server.default_config ~n_workers:2
        ~policy:(Preemptible.Policy.fcfs_preempt ~quantum_ns:5_000)
        ~mechanism:(Preemptible.Server.Uintr_utimer Utimer.default_config)
    in
    let r =
      Preemptible.Server.run cfg
        ~arrival:(Workload.Arrival.poisson ~rate_per_sec:rate)
        ~source:
          (Workload.Source.of_dist Workload.Service_dist.workload_b
             ~cls:Workload.Request.Latency_critical)
        ~duration_ns:2_000_000
    in
    (r.Preemptible.Server.completed, r.Preemptible.Server.all.Stat.Summary.p99)
  in
  let rates = [ 100_000.0; 200_000.0; 300_000.0; 400_000.0 ] in
  let seq = Exec.Sweep.run ~jobs:1 run_point rates in
  let par = Exec.Sweep.run ~jobs:4 run_point rates in
  check_bool "parallel = sequential (bit-identical)" true (seq = par)

(* ------------------------------------------------------------------ *)
(* Merge combinators                                                   *)
(* ------------------------------------------------------------------ *)

let summary_of values =
  let s = Stat.Summary.create () in
  List.iter (Stat.Summary.record s) values;
  s

let qcheck_summary_merge_assoc =
  QCheck.Test.make ~count:50 ~name:"Summary.merge_into is associative"
    QCheck.(
      triple
        (small_list (float_range 1.0 1e6))
        (small_list (float_range 1.0 1e6))
        (small_list (float_range 1.0 1e6)))
    (fun (a, b, c) ->
      QCheck.assume (a <> [] || b <> [] || c <> []);
      (* (a <- b) <- c versus a' <- (b' <- c') *)
      let left =
        let sa = summary_of a and sb = summary_of b and sc = summary_of c in
        Stat.Summary.merge_into ~dst:sa ~src:sb;
        Stat.Summary.merge_into ~dst:sa ~src:sc;
        Stat.Summary.report sa
      in
      let right =
        let sa = summary_of a and sb = summary_of b and sc = summary_of c in
        Stat.Summary.merge_into ~dst:sb ~src:sc;
        Stat.Summary.merge_into ~dst:sa ~src:sb;
        Stat.Summary.report sa
      in
      left.Stat.Summary.count = right.Stat.Summary.count
      && left.Stat.Summary.p50 = right.Stat.Summary.p50
      && left.Stat.Summary.p99 = right.Stat.Summary.p99
      && Float.abs (left.Stat.Summary.mean -. right.Stat.Summary.mean)
         <= 1e-9 *. Float.abs left.Stat.Summary.mean)

(* ------------------------------------------------------------------ *)
(* Env helpers                                                         *)
(* ------------------------------------------------------------------ *)

let test_getenv_nonempty () =
  Unix.putenv "LP_TEST_ENV_X" "";
  check_bool "empty is unset" true (Exec.Env.getenv_nonempty "LP_TEST_ENV_X" = None);
  Unix.putenv "LP_TEST_ENV_X" "v";
  check_bool "set" true (Exec.Env.getenv_nonempty "LP_TEST_ENV_X" = Some "v")

let suites =
  [
    ( "exec.pool",
      [
        Alcotest.test_case "results in submission order" `Quick test_run_all_order;
        Alcotest.test_case "failure propagates to awaiter" `Quick test_failure_propagates;
        Alcotest.test_case "submit after shutdown rejected" `Quick test_submit_after_shutdown;
        Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
        Alcotest.test_case "sequential peak occupancy = 1" `Quick test_sequential_occupancy;
        Alcotest.test_case "trace spans balance" `Quick test_trace_spans_balance;
      ] );
    ( "exec.sweep",
      [
        Alcotest.test_case "empty and singleton" `Quick test_sweep_empty_and_singleton;
        QCheck_alcotest.to_alcotest qcheck_sweep_is_map;
        Alcotest.test_case "server sweep: parallel = sequential" `Quick
          test_sweep_real_sim_parallel_eq_sequential;
      ] );
    ( "exec.env",
      [
        QCheck_alcotest.to_alcotest qcheck_summary_merge_assoc;
        Alcotest.test_case "getenv_nonempty" `Quick test_getenv_nonempty;
      ] );
  ]
