(* Adversarial scenario pack (bench --adversarial).

   Three checked-in scenarios (scenarios/*.scn) turn the threat models
   of lib/baselines — the request-flood tail attack (attack.ml) and
   noisy-neighbor colocation (tenancy.ml) — plus quantum gaming into
   declarative specs:

   - tail_attack:    a fat best-effort flood rides the victim's front
                     door; the BE glut queues ahead of the 2us LC
                     stream and the tail explodes.
   - quantum_gaming: a tenant sizes its requests just under the fixed
                     quantum so they never get preempted.
   - noisy_neighbor: Zipf-skewed colocated tenants, one of them fat.

   Each file checks in the DEFENDED system: adaptive quantum plus the
   guard front door where the scenario uses one.  The baseline variant
   is derived here by pinning the quantum at the adaptive init and
   dropping the guard — the attack itself (source mix, arrival, seed)
   is bit-identical across the pair, so the gated figure isolates what
   the defenses buy.

   Gated headline (CI): on every scenario the defended LC p99 beats
   the fixed-quantum/unguarded baseline. *)

let us = Engine.Units.us

let slo_ns = us 200

let scenario_dir =
  match Bench_util.getenv_nonempty "LP_SCENARIO_DIR" with
  | Some d -> d
  | None -> "scenarios"

let pack = [ "tail_attack"; "quantum_gaming"; "noisy_neighbor" ]

let load name =
  let path = Filename.concat scenario_dir (name ^ ".scn") in
  let fail detail =
    invalid_arg
      (Printf.sprintf "bench_adversarial: %s: %s (set LP_SCENARIO_DIR to the scenarios/ dir)"
         path detail)
  in
  match Scenario.of_file path with
  | Ok s -> s
  | Error e -> fail (Scenario.error_to_string e)

(* The undefended twin: quantum pinned at the adaptive init, guard off.
   Everything else — workload mix, arrival process, seed — untouched. *)
let strip_defenses spec =
  let quantum =
    match spec.Scenario.quantum with
    | Scenario.Adaptive { init_ns; _ } -> Scenario.Fixed init_ns
    | q -> q
  in
  { spec with Scenario.quantum; Scenario.guard = None }

type row = {
  lc_p99_us : float;
  lc_mean_us : float;
  lc_goodput_rps : float;  (** LC completions inside [slo_ns], per measured second *)
  be_p99_us : float;
  shed_frac : float;
  preemptions : int;
}

let run_case spec =
  let lc_goodput = ref 0 in
  let probes =
    {
      Preemptible.Server.no_probes with
      Preemptible.Server.on_complete =
        (fun ~now ~latency_ns ~cls ->
          match cls with
          | Workload.Request.Latency_critical ->
            let arrived = now - latency_ns in
            if
              arrived >= spec.Scenario.warmup_ns
              && arrived < spec.Scenario.duration_ns
              && latency_ns <= slo_ns
            then incr lc_goodput
          | Workload.Request.Best_effort -> ());
    }
  in
  let r = Scenario.run_server ~probes spec in
  let measured_s =
    float_of_int (spec.Scenario.duration_ns - spec.Scenario.warmup_ns) /. 1e9
  in
  let p99 = function Some (rep : Stat.Summary.report) -> rep.Stat.Summary.p99 /. 1e3 | None -> nan in
  let offered = r.Preemptible.Server.offered in
  {
    lc_p99_us = p99 r.Preemptible.Server.lc;
    lc_mean_us =
      (match r.Preemptible.Server.lc with
      | Some rep -> rep.Stat.Summary.mean /. 1e3
      | None -> nan);
    lc_goodput_rps = float_of_int !lc_goodput /. measured_s;
    be_p99_us = p99 r.Preemptible.Server.be;
    shed_frac =
      (if offered = 0 then 0.0
       else float_of_int r.Preemptible.Server.shed /. float_of_int offered);
    preemptions = r.Preemptible.Server.preemptions;
  }

let run ~jobs () =
  let specs =
    List.concat_map
      (fun name ->
        let defended = load name in
        [ (name, "fixed", strip_defenses defended); (name, "defended", defended) ])
      pack
  in
  Bench_util.header
    (Printf.sprintf
       "Adversarial pack: %s\n(defended = checked-in .scn; fixed = same attack, quantum pinned, guard off)"
       (String.concat ", " pack));
  let results =
    Bench_util.sweep ~label:"adversarial" ~jobs (fun (_, _, spec) -> run_case spec) specs
  in
  Format.printf "  %-16s %-9s %10s %10s %12s %8s %7s@." "scenario" "variant" "lc_p99us"
    "lc_avgus" "lc_good/s" "be_p99us" "shed%";
  List.iter2
    (fun (name, variant, _) row ->
      Format.printf "  %-16s %-9s %10.1f %10.2f %12.0f %8.1f %6.1f%%@." name variant
        row.lc_p99_us row.lc_mean_us row.lc_goodput_rps row.be_p99_us
        (100.0 *. row.shed_frac);
      Bench_report.point ~fig:"adversarial"
        ~labels:[ ("scenario", name); ("variant", variant) ]
        ~metrics:
          [
            ("lc_p99_us", row.lc_p99_us);
            ("lc_mean_us", row.lc_mean_us);
            ("lc_goodput_rps", row.lc_goodput_rps);
            ("be_p99_us", row.be_p99_us);
            ("shed_frac", row.shed_frac);
            ("preemptions", float_of_int row.preemptions);
          ])
    specs results;
  Bench_util.csv ~name:"adversarial"
    ~header:"scenario,variant,lc_p99_us,lc_mean_us,lc_goodput_rps,be_p99_us,shed_frac"
    ~rows:
      (List.map2
         (fun (name, variant, _) row ->
           Printf.sprintf "%s,%s,%.1f,%.2f,%.0f,%.1f,%.4f" name variant row.lc_p99_us
             row.lc_mean_us row.lc_goodput_rps row.be_p99_us row.shed_frac)
         specs results);
  Format.printf
    "@.(expected: on every scenario the defended LC p99 beats the fixed-quantum baseline\n\
    \ — the adaptive controller preempts the fat/gamed payloads and the guard sheds the\n\
    \ flood before it queues)@."
