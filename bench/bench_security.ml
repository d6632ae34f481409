(* Sec VII-A/B: the attack surface of interrupt delivery, plus the
   multi-tenant scalability claim of Sec V-B.  A victim core serves
   requests while an attacker generates an interrupt storm under three
   trust models; then one timer core serves a growing tenant count. *)

module Attack = Baselines.Attack

let tenancy () =
  Bench_util.header
    "Multi-tenancy: one timer core serving N single-worker tenants (A1 at 60% each)";
  Format.printf "%9s %14s %14s %16s@." "tenants" "mean p99(us)" "worst p99(us)"
    "timer interrupts";
  List.iter
    (fun tenants ->
      let r =
        Baselines.Tenancy.libpreemptible ~tenants ~per_tenant_rate:200_000.0
          ~duration_ns:(Engine.Units.ms 50) ()
      in
      Format.printf "%9d %14.1f %14.1f %16d@." tenants r.Baselines.Tenancy.mean_p99_us
        r.Baselines.Tenancy.worst_p99_us r.Baselines.Tenancy.timer_interrupts)
    [ 1; 4; 16; 64; 128 ];
  Format.printf
    "(deadline slots are just memory, so tenant count is bounded only by the timer\n\
    \ core's SENDUIPI issue bandwidth — degradation stays mild past 100 tenant\n\
    \ workers and more timer cores extend it; Shinjuku's mapped APIC caps out at\n\
    \ %d workers and cannot cross tenant trust boundaries at all)@."
    (Baselines.Tenancy.shinjuku_tenant_limit Hw.Params.default)

let run () =
  Bench_util.header
    "Sec VII: interrupt-storm DoS — victim throughput/tail under attack";
  let victim_rate = 300_000.0 in
  let duration_ns = Engine.Units.ms 100 in
  Format.printf "victim: one core, exp(2us) service at %.0f kRPS@.@." (victim_rate /. 1e3);
  List.iter
    (fun scenario ->
      List.iter
        (fun storm_per_sec ->
          let r = Attack.run scenario ~storm_per_sec ~victim_rate ~duration_ns in
          Format.printf "%a@." Attack.pp_result r)
        [ 0.0; 100_000.0; 1_000_000.0; 5_000_000.0 ];
      Format.printf "@.")
    [ Attack.Native_uintr_storm; Attack.Shinjuku_apic_storm; Attack.Libpreemptible_storm ];
  Format.printf
    "(expected: the native-UINTR and mapped-APIC victims degrade with storm rate —\n\
    \ the APIC path worst, since each hit costs a kernel interrupt — while the\n\
    \ LibPreemptible victim is untouched: the attacker has no UITT entry, so\n\
    \ delivered stays 0 at any attempt rate)@.";
  tenancy ()
