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

(* Every case is the same spec (workload A1 at 0.6x on 4 workers,
   q=5us, seed 7) plus fault and watchdog overrides. *)
let run_case overrides tweak =
  Bench_util.run_with
    (Bench_util.spec_of_string
       (String.concat "; "
          ("workers=4; quantum=5us; src=a1; arrival=poisson:0.6x; dur=60ms; warmup=10ms; seed=7"
          :: overrides)))
    tweak

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

let sweep () =
  Bench_util.header "Resilience: UIPI loss sweep (workload A1, 4 workers, q=5us)";
  let base_p99 = (run_case [] Fun.id).Preemptible.Server.all.Stat.Summary.p99 in
  Format.printf "  %-28s p99=%8.1fus  (fault-free baseline)@." "drop=0" (base_p99 /. 1e3);
  let rows = ref [] in
  List.iter
    (fun drop ->
      let faults = Printf.sprintf "faults={uipi.drop=p:%g}" drop in
      List.iter
        (fun (recovery, overrides) ->
          let r = run_case overrides Fun.id in
          record_ledger ~name:(Printf.sprintf "faults.uipi.drop=%g/recovery=%s" drop recovery) r;
          let p99 = r.Preemptible.Server.all.Stat.Summary.p99 in
          Format.printf "  drop=%-5g recovery=%-4s p99=%8.1fus (%5.1fx)   [%s]@." drop recovery
            (p99 /. 1e3) (p99 /. base_p99) (ledger_line r);
          rows :=
            Printf.sprintf "%g,%s,%.1f,%.3f" drop recovery (p99 /. 1e3) (p99 /. base_p99) :: !rows)
        [ ("off", [ faults ]); ("on", [ faults; "watchdog" ]) ])
    [ 0.001; 0.01; 0.05 ];
  Bench_report.csv ~name:"faults"
    ~header:"drop_rate,recovery,p99_us,ratio_vs_fault_free"
    ~rows:(List.rev !rows)

let crash_demo () =
  Bench_util.header "Resilience: timer-core crash";
  let crash = [ "faults={utimer.crash=once:2000}"; "watchdog" ] in
  let failover = run_case crash Fun.id in
  let degraded =
    run_case crash (fun cfg ->
        {
          cfg with
          Preemptible.Server.watchdog =
            Some { Utimer.default_watchdog with Utimer.wd_spare_cores = 0 };
        })
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
  sweep ();
  crash_demo ()
