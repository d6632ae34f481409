(* Resilience suite: fault-rate sweep with the recovery layer on/off.

   The headline experiment injects UIPI notification loss on the
   SENDUIPI path ("uipi.drop") at increasing rates and compares three
   configurations under the same seed and load:

   - fault-free baseline (no plan, no watchdog);
   - faults with recovery OFF: a lost preemption interrupt silently
     turns the current function into run-to-completion, so long
     requests re-introduce the head-of-line blocking the whole system
     exists to prevent — the p99 grows without bound as the rate rises;
   - faults with recovery ON: the LibUtimer watchdog notices the
     missing delivery within its grace window and re-issues, bounding
     the damage to roughly (grace + one retry) per lost interrupt.

   A second demo kills the timer core outright ("utimer.crash") and
   shows spare-core failover, then — with no spare configured — the
   graceful degradation to kernel-timer preemption. *)

let us = Engine.Units.us
let ms = Engine.Units.ms

let dist = Workload.Service_dist.workload_a1
let workers = 4

let run_case ~seed ~rate ~duration_ns ~warmup_ns ~spec ~watchdog =
  let faults =
    match spec with
    | None -> None
    | Some s ->
      let f = Fault.create ~seed () in
      (match Fault.parse f s with
      | Ok () -> ()
      | Error msg -> invalid_arg ("bench_faults: bad fault spec: " ^ msg));
      Some f
  in
  let cfg =
    Preemptible.Server.default_config ~n_workers:workers
      ~policy:(Preemptible.Policy.fcfs_preempt ~quantum_ns:(us 5))
      ~mechanism:(Preemptible.Server.Uintr_utimer Utimer.default_config)
  in
  let cfg = { cfg with Preemptible.Server.faults; watchdog; seed } in
  Preemptible.Server.run ~warmup_ns cfg
    ~arrival:(Workload.Arrival.poisson ~rate_per_sec:rate)
    ~source:(Bench_util.lc_source dist) ~duration_ns

(* Surface the ledger in bench --report meta.resilience so CI artifacts
   carry the injected/detected/recovered accounting, not just stdout. *)
let record_ledger ~name (r : Preemptible.Server.result) =
  match r.Preemptible.Server.resilience with
  | None -> ()
  | Some res -> Bench_report.resilience ~name res.Preemptible.Server.fault_report

let ledger_line r =
  match r.Preemptible.Server.resilience with
  | None -> "-"
  | Some res ->
    let fr = res.Preemptible.Server.fault_report in
    Printf.sprintf "inj=%d det=%d rec=%d undet=%d" fr.Fault.injected fr.Fault.detected
      fr.Fault.recovered fr.Fault.undetected

let sweep ~seed ~rate ~duration_ns ~warmup_ns =
  Bench_util.header "Resilience: UIPI loss sweep (workload A1, 4 workers, q=5us)";
  let base = run_case ~seed ~rate ~duration_ns ~warmup_ns ~spec:None ~watchdog:None in
  let base_p99 = base.Preemptible.Server.all.Stat.Summary.p99 in
  Format.printf "  %-28s p99=%8.1fus  (fault-free baseline)@." "drop=0" (base_p99 /. 1e3);
  let rows = ref [] in
  List.iter
    (fun drop ->
      let spec = Some (Printf.sprintf "uipi.drop=p:%g" drop) in
      let off = run_case ~seed ~rate ~duration_ns ~warmup_ns ~spec ~watchdog:None in
      let on =
        run_case ~seed ~rate ~duration_ns ~warmup_ns ~spec
          ~watchdog:(Some Utimer.default_watchdog)
      in
      record_ledger ~name:(Printf.sprintf "faults.uipi.drop=%g/recovery=off" drop) off;
      record_ledger ~name:(Printf.sprintf "faults.uipi.drop=%g/recovery=on" drop) on;
      let p99_off = off.Preemptible.Server.all.Stat.Summary.p99 in
      let p99_on = on.Preemptible.Server.all.Stat.Summary.p99 in
      Format.printf
        "  drop=%-5g recovery=off  p99=%8.1fus (%5.1fx)   [%s]@." drop (p99_off /. 1e3)
        (p99_off /. base_p99) (ledger_line off);
      Format.printf
        "  drop=%-5g recovery=on   p99=%8.1fus (%5.1fx)   [%s]@." drop (p99_on /. 1e3)
        (p99_on /. base_p99) (ledger_line on);
      rows :=
        Printf.sprintf "%g,off,%.1f,%.3f" drop (p99_off /. 1e3) (p99_off /. base_p99)
        :: Printf.sprintf "%g,on,%.1f,%.3f" drop (p99_on /. 1e3) (p99_on /. base_p99)
        :: !rows)
    [ 0.001; 0.01; 0.05 ];
  Bench_util.csv ~name:"faults"
    ~header:"drop_rate,recovery,p99_us,ratio_vs_fault_free"
    ~rows:(List.rev !rows)

let crash_demo ~seed ~rate ~duration_ns ~warmup_ns =
  Bench_util.header "Resilience: timer-core crash";
  let spec = Some "utimer.crash=once:2000" in
  let failover =
    run_case ~seed ~rate ~duration_ns ~warmup_ns ~spec
      ~watchdog:(Some Utimer.default_watchdog)
  in
  let degraded =
    run_case ~seed ~rate ~duration_ns ~warmup_ns ~spec
      ~watchdog:(Some { Utimer.default_watchdog with Utimer.wd_spare_cores = 0 })
  in
  let show name (r : Preemptible.Server.result) =
    match r.Preemptible.Server.resilience with
    | Some res ->
      Format.printf "  %-22s p99=%8.1fus  %a@." name
        (r.Preemptible.Server.all.Stat.Summary.p99 /. 1e3)
        Preemptible.Server.pp_resilience res
    | None -> ()
  in
  record_ledger ~name:"faults.utimer.crash/failover" failover;
  record_ledger ~name:"faults.utimer.crash/degraded" degraded;
  show "crash, 1 spare core" failover;
  show "crash, no spare" degraded

let run () =
  let seed = 7L in
  let duration_ns = ms 60 and warmup_ns = ms 10 in
  let rate = 0.6 *. Bench_util.capacity ~dist:Scenario.A1 ~workers ~duration_ns in
  sweep ~seed ~rate ~duration_ns ~warmup_ns;
  crash_demo ~seed ~rate ~duration_ns ~warmup_ns
