(* Tests for the multicore pool (work stealing, preemption across
   domains, blocking-aware parking) and the schedule-driven real-time
   executor, plus the scenario -> rt lowering. *)

module Pool = Fiber_rt.Pool
module Sched = Fiber_rt.Sched

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_pool_executes_all () =
  let pool = Pool.create ~workers:2 () in
  let hits = Atomic.make 0 in
  for _ = 1 to 100 do
    Pool.submit pool (fun () -> Atomic.incr hits)
  done;
  Pool.drain pool;
  let st = Pool.stats pool in
  Pool.shutdown pool;
  check_int "all bodies ran" 100 (Atomic.get hits);
  check_int "all counted executed" 100 (Array.fold_left ( + ) 0 st.Pool.executed);
  check_int "none failed" 0 st.Pool.failed

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~workers:2 () in
  Pool.submit pool (fun () -> ());
  Pool.drain pool;
  Pool.shutdown pool;
  Pool.shutdown pool;
  check_bool "submit after shutdown rejected" true
    (match Pool.submit pool (fun () -> ()) with
    | () -> false
    | exception Invalid_argument _ -> true)

(* A preemption-heavy job computes the right answer even though its
   slices bounce between domains (fn_resume_on correctness): the sum is
   carried in the fiber's own stack across preemptions. *)
let test_preempted_job_correct_across_domains () =
  let pool = Pool.create ~quantum_ns:50_000 ~workers:2 () in
  let results = Array.make 4 0 in
  let busy_sum n =
    (* Checkpointed spinning, ~2 us a step; jobs are ms-long so the
       shared timer domain provably sweeps their slots even when the
       host schedules it lazily. *)
    let acc = ref 0 in
    for i = 1 to n do
      let t0 = Unix.gettimeofday () in
      while Unix.gettimeofday () -. t0 < 2e-6 do
        ()
      done;
      acc := !acc + i;
      Pool.checkpoint ()
    done;
    !acc
  in
  for j = 0 to 3 do
    Pool.submit pool (fun () -> results.(j) <- busy_sum 1000)
  done;
  Pool.drain pool;
  let st = Pool.stats pool in
  Pool.shutdown pool;
  Array.iteri
    (fun j r -> check_int (Printf.sprintf "job %d sum" j) 500500 r)
    results;
  check_bool "preemption actually happened" true (st.Pool.preemptions > 0)

let test_failed_job_counted () =
  let pool = Pool.create ~workers:2 () in
  Pool.submit pool (fun () -> failwith "boom");
  Pool.submit pool (fun () -> ());
  Pool.drain pool;
  let st = Pool.stats pool in
  Pool.shutdown pool;
  check_int "one failure" 1 st.Pool.failed;
  check_int "one success" 1 (Array.fold_left ( + ) 0 st.Pool.executed)

(* Blocking-awareness: on ONE worker, three fibers that each sleep
   20 ms must overlap their sleeps (a sleeping fiber parks and frees
   the domain), so the whole batch takes far less than the 60 ms a
   blocking pool would need. *)
let test_sleep_parks_fiber () =
  let pool = Pool.create ~workers:1 () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 3 do
    Pool.submit pool (fun () -> Pool.sleep_ns 20_000_000)
  done;
  Pool.drain pool;
  let elapsed = Unix.gettimeofday () -. t0 in
  Pool.shutdown pool;
  check_bool
    (Printf.sprintf "sleeps overlapped (%.0f ms < 50 ms)" (elapsed *. 1e3))
    true (elapsed < 0.050)

let test_sleep_off_pool_rejected () =
  check_bool "sleep_ns off-pool raises" true
    (match Pool.sleep_ns 1 with
    | () -> false
    | exception Invalid_argument _ -> true)

let executed (st : Pool.stats) = Array.fold_left ( + ) 0 st.Pool.executed

(* Checkpointed spinning for [s] seconds of wall time, or until [until]
   holds. *)
let spin ?(until = fun () -> false) s =
  let stop = Unix.gettimeofday () +. s in
  while (not (until ())) && Unix.gettimeofday () < stop do
    Pool.checkpoint ()
  done

(* Fresh-first: on one worker, a job submitted while a long job runs
   must not wait for the long one.  The long job spins until the short
   one has finished, so it ends early only if the timer preempted it
   and the worker took the fresh inbox job before resuming it; a 2 s
   safety deadline bounds it on a pathologically loaded host. *)
let test_fresh_job_escapes_hol () =
  let pool = Pool.create ~quantum_ns:200_000 ~workers:1 () in
  let started = Atomic.make false and short_done = Atomic.make false in
  let order = ref [] (* appended on the single worker domain only *) in
  let long_saw_short = ref false in
  Pool.submit pool (fun () ->
      Atomic.set started true;
      spin 2.0 ~until:(fun () -> Atomic.get short_done);
      long_saw_short := Atomic.get short_done;
      order := "long" :: !order);
  while not (Atomic.get started) do
    Unix.sleepf 1e-4
  done;
  Pool.submit pool (fun () ->
      order := "short" :: !order;
      Atomic.set short_done true);
  Pool.drain pool;
  let st = Pool.stats pool in
  Pool.shutdown pool;
  Alcotest.(check (list string)) "short escaped HoL" [ "short"; "long" ] (List.rev !order);
  check_bool "long job ended because the short one finished" true !long_saw_short;
  check_bool "long job was preempted" true (st.Pool.preemptions >= 1);
  check_int "both executed" 2 (executed st)

let test_nested_submit () =
  let pool = Pool.create ~workers:2 () in
  let child_ran = Atomic.make false in
  Pool.submit pool (fun () -> Pool.submit pool (fun () -> Atomic.set child_ran true));
  Pool.drain pool;
  let st = Pool.stats pool in
  Pool.shutdown pool;
  check_bool "child ran before drain returned" true (Atomic.get child_ran);
  check_int "parent and child executed" 2 (executed st)

let test_per_job_quantum () =
  let pool = Pool.create ~workers:1 () in
  Pool.submit pool ~quantum_ns:200_000 (fun () -> spin 0.020);
  Pool.drain pool;
  let st = Pool.stats pool in
  Pool.shutdown pool;
  check_bool "per-job quantum preempted it" true (st.Pool.preemptions >= 1)

(* Shutdown with work still queued: five 10 ms checkpointing jobs on
   one worker with a 1 ms quantum, shut down at once.  Every job still
   runs to completion, including the ones preempted mid-flight. *)
let test_shutdown_runs_queued_jobs () =
  let pool = Pool.create ~quantum_ns:1_000_000 ~workers:1 () in
  let finished = Atomic.make 0 in
  for _ = 1 to 5 do
    Pool.submit pool (fun () ->
        spin 0.010;
        Atomic.incr finished)
  done;
  Pool.shutdown pool;
  check_int "every queued job finished" 5 (Atomic.get finished);
  check_int "every queued job counted" 5 (executed (Pool.stats pool))

(* A job parked in sleep_ns at shutdown is abandoned, and drain must
   then return, whether it started before or after the shutdown.  Each
   drain runs on its own domain, so a regression fails the test after
   1 s instead of hanging the suite. *)
let test_drain_after_shutdown_returns () =
  let pool = Pool.create ~workers:1 () in
  Pool.submit pool (fun () -> Pool.sleep_ns 500_000_000);
  let drain_in_domain () =
    let returned = Atomic.make false in
    ignore
      (Domain.spawn (fun () ->
           Pool.drain pool;
           Atomic.set returned true));
    returned
  in
  let returns_within_1s returned =
    let deadline = Unix.gettimeofday () +. 1.0 in
    while (not (Atomic.get returned)) && Unix.gettimeofday () < deadline do
      Unix.sleepf 1e-3
    done;
    Atomic.get returned
  in
  let before = drain_in_domain () in
  Unix.sleepf 0.050;
  Pool.shutdown pool;
  check_bool "drain started before shutdown returns" true (returns_within_1s before);
  check_bool "drain after shutdown returns" true (returns_within_1s (drain_in_domain ()));
  check_int "the sleeping job was abandoned" 0 (executed (Pool.stats pool))

(* ------------------------------------------------------------------ *)
(* Sched: schedule replay                                              *)
(* ------------------------------------------------------------------ *)

let mk_items n ~gap_ns ~service_ns =
  Array.init n (fun i -> { Sched.at_ns = i * gap_ns; service_ns; lc = i mod 2 = 0 })

let test_sched_runs_schedule () =
  let r = Sched.run ~workers:1 (mk_items 40 ~gap_ns:200_000 ~service_ns:50_000) in
  check_int "offered" 40 r.Sched.offered;
  check_int "completed" 40 r.Sched.completed;
  check_int "failed" 0 r.Sched.failed;
  check_int "all samples" 40 r.Sched.all.Stat.Summary.count;
  check_int "lc samples" 20
    (match r.Sched.lc with Some rep -> rep.Stat.Summary.count | None -> 0);
  (* Latency is at least the service time. *)
  check_bool "p50 >= service" true (r.Sched.all.Stat.Summary.p50 >= 50_000.0)

let test_sched_warmup_excluded () =
  let items = mk_items 20 ~gap_ns:100_000 ~service_ns:10_000 in
  let r = Sched.run ~workers:1 ~warmup_ns:1_000_000 items in
  (* at_ns 0..1.9ms; warmup 1ms excludes at_ns in [0, 1ms) = 10 items. *)
  check_int "completed includes warmup" 20 r.Sched.completed;
  check_int "samples exclude warmup" 10 r.Sched.all.Stat.Summary.count

let test_sched_rejects_negative () =
  check_bool "negative service rejected" true
    (match Sched.run ~workers:1 [| { Sched.at_ns = 0; service_ns = -1; lc = true } |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Scenario -> rt lowering                                             *)
(* ------------------------------------------------------------------ *)

let spec_of_string s =
  match Scenario.of_string s with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "parse failed: %s" (Scenario.error_to_string e)

let test_rt_schedule_deterministic () =
  let spec =
    spec_of_string "workers=1;quantum=50us;src=exp:20us;arrival=poisson:30000;dur=20ms"
  in
  let a = Scenario.rt_schedule spec in
  let b = Scenario.rt_schedule spec in
  check_bool "non-empty" true (Array.length a > 0);
  check_bool "same seed, same schedule" true (a = b);
  Array.iter
    (fun it ->
      check_bool "arrival inside dur" true
        (it.Sched.at_ns >= 0 && it.Sched.at_ns < 20_000_000))
    a

let test_rt_schedule_seed_sensitivity () =
  let base = "workers=1;src=exp:20us;arrival=poisson:30000;dur=20ms" in
  let a = Scenario.rt_schedule (spec_of_string (base ^ ";seed=1")) in
  let b = Scenario.rt_schedule (spec_of_string (base ^ ";seed=2")) in
  check_bool "different seed, different schedule" true (a <> b)

let test_rt_rejects_unsupported () =
  let rejected txt =
    match Scenario.validate_rt (spec_of_string txt) with
    | Ok () -> false
    | Error _ -> true
  in
  check_bool "adaptive quantum" true (rejected "quantum=adaptive;dur=1ms");
  check_bool "guard" true (rejected "guard={timeout=1ms};dur=1ms");
  check_bool "fleet" true (rejected "fleet={n=2};dur=1ms");
  check_bool "baseline system" true (rejected "sys=go;dur=1ms");
  check_bool "faults" true (rejected "faults={uipi.drop=p:0.01};dur=1ms");
  check_bool "plain spec accepted" true
    (not (rejected "workers=1;quantum=20us;src=a1;arrival=poisson:0.3x;dur=5ms"))

let test_run_rt_end_to_end () =
  let spec =
    spec_of_string
      "workers=1;quantum=100us;src=const:20us;arrival=uniform:10000;dur=30ms;warmup=5ms"
  in
  let plan = Scenario.rt_schedule spec in
  let r = Scenario.run_rt spec in
  check_int "offered = schedule" (Array.length plan) r.Sched.offered;
  check_int "all completed" r.Sched.offered r.Sched.completed;
  check_bool "recorded post-warmup samples" true (r.Sched.all.Stat.Summary.count > 0);
  check_bool "median at least the service time" true
    (r.Sched.all.Stat.Summary.p50 >= 20_000.0)

let suites =
  [
    ( "fiber_pool",
      [
        Alcotest.test_case "executes every submitted job" `Quick test_pool_executes_all;
        Alcotest.test_case "shutdown is idempotent; submit after rejected" `Quick
          test_pool_shutdown_idempotent;
        Alcotest.test_case "preempted jobs stay correct across domains" `Quick
          test_preempted_job_correct_across_domains;
        Alcotest.test_case "failing job counted, pool survives" `Quick
          test_failed_job_counted;
        Alcotest.test_case "sleeping fibers park and overlap" `Quick
          test_sleep_parks_fiber;
        Alcotest.test_case "sleep_ns off the pool raises" `Quick
          test_sleep_off_pool_rejected;
        Alcotest.test_case "fresh job escapes head-of-line blocking" `Quick
          test_fresh_job_escapes_hol;
        Alcotest.test_case "nested submit drains both" `Quick test_nested_submit;
        Alcotest.test_case "per-job quantum preempts" `Quick test_per_job_quantum;
        Alcotest.test_case "shutdown runs queued jobs" `Quick test_shutdown_runs_queued_jobs;
        Alcotest.test_case "drain after shutdown returns" `Quick
          test_drain_after_shutdown_returns;
      ] );
    ( "rt_sched",
      [
        Alcotest.test_case "replays a schedule and measures latency" `Quick
          test_sched_runs_schedule;
        Alcotest.test_case "warmup samples excluded from reports" `Quick
          test_sched_warmup_excluded;
        Alcotest.test_case "negative times rejected" `Quick test_sched_rejects_negative;
        Alcotest.test_case "rt_schedule is deterministic in the seed" `Quick
          test_rt_schedule_deterministic;
        Alcotest.test_case "rt_schedule varies with the seed" `Quick
          test_rt_schedule_seed_sensitivity;
        Alcotest.test_case "unsupported specs rejected with pointed errors" `Quick
          test_rt_rejects_unsupported;
        Alcotest.test_case "run_rt end to end on a tiny spec" `Quick
          test_run_rt_end_to_end;
      ] );
  ]
