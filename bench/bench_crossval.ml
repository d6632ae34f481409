(* bench --crossval: cross-validate the simulator against the real
   multicore fiber runtime (DESIGN.md §14).  Each case is ONE scenario
   spec run by BOTH backends: [Scenario.run_server] (deterministic
   simulation) and [Scenario.run_rt] (the same samplers and seed,
   replayed open-loop on real domains under wall time).

   The clock domains never agree exactly, so agreement is gated on
   scale-aware statistics:

   - p50 band:    medians within [p50_band]x of each other.
   - tail shape:  p99/p50 ratios within [tail_band]x, gated only where
                  the sim's own tail is non-degenerate (a deterministic
                  spec has sim p99/p50 = 1.0 exactly).
   - rank order:  Spearman correlation of p99 across a load sweep of
                  at least [rank_min].

   Calibration for a small shared CI container: services are >= 1 ms
   (the real executor pays ~100-200 us per request), gated cases run
   workers=1 (a workers=2 case is recorded ungated), and a gated case
   that misses its band is retried once — the sim side is
   deterministic, so only host interference can move the verdict.

   Report points carry sim_*/real_* metric names so lpbench_check's
   ±10% gates on the bare p50_us/p99_us/mean_us names never see wall
   clock; the gated metrics are the agreement booleans
   (crossval:p50_agree, crossval:tail_agree, crossval:rank_corr_ok),
   each 1.0 in the baseline. *)

module Sched = Fiber_rt.Sched

let p50_band = 3.0
let tail_band = 3.0
let rank_min = 0.5

let b2f b = if b then 1.0 else 0.0

type side = { p50 : float; p99 : float; mean : float; tail : float }

let side_of (r : Stat.Summary.report) =
  {
    p50 = r.Stat.Summary.p50 /. 1e3;
    p99 = r.Stat.Summary.p99 /. 1e3;
    mean = r.Stat.Summary.mean /. 1e3;
    tail = Stat.Agreement.tail_ratio ~p50:r.Stat.Summary.p50 ~p99:r.Stat.Summary.p99;
  }

let spec_of text =
  let spec = Bench_util.spec_of_string text in
  (match Scenario.validate_rt spec with
  | Ok () -> ()
  | Error m -> invalid_arg ("--crossval: spec not rt-runnable: " ^ m));
  spec

(* Run one spec on both backends.  Real executions are sequential and
   exclusive by construction (each run owns its domains), regardless of
   --jobs. *)
let both text =
  let spec = spec_of text in
  let sim = Scenario.run_server spec in
  let rt = Scenario.run_rt spec in
  ( side_of sim.Preemptible.Server.all,
    side_of rt.Sched.all,
    rt.Sched.steals,
    rt.Sched.completed = rt.Sched.offered )

let metrics_of sim real =
  [
    ("sim_p50_us", sim.p50);
    ("sim_p99_us", sim.p99);
    ("sim_mean_us", sim.mean);
    ("real_p50_us", real.p50);
    ("real_p99_us", real.p99);
    ("real_mean_us", real.mean);
    ("sim_tail_ratio", sim.tail);
    ("real_tail_ratio", real.tail);
  ]

(* Gated cases: three workload shapes, workers=1. *)

type case = {
  cname : string;
  ctext : string;
  gate_tail : bool;  (** tail band gated (sim tail non-degenerate) *)
}

let case cname gate_tail text =
  { cname; gate_tail; ctext = "workers=1; " ^ text ^ "; dur=800ms; warmup=200ms" }

let gated_cases =
  [
    (* Light deterministic load: medians sit near the 1 ms service
       time; the sim's tail ratio is exactly 1.0, so only the p50 is
       gated. *)
    case "const_light" false "quantum=none; src=const:1ms; arrival=uniform:0.3x; seed=11";
    (* Mid-load exponential service under preemption: queueing and
       slicing shape both distributions. *)
    case "exp_mid" true "quantum=500us; src=exp:1ms; arrival=poisson:0.5x; seed=12";
    (* Bimodal with a 10% heavy mode: preemption keeps short requests
       from queueing behind long ones — on real cores too. *)
    case "bimodal_tail" true
      "quantum=250us; src=bimodal:200us:5ms:0.1; arrival=poisson:0.5x; seed=13";
  ]

(* One execution of a gated case, with the band verdicts. *)
let attempt c =
  let sim, real, _steals, all_done = both c.ctext in
  let p50_agree = Stat.Agreement.within_factor ~factor:p50_band sim.p50 real.p50 in
  let tail_agree = Stat.Agreement.within_factor ~factor:tail_band sim.tail real.tail in
  let ok = p50_agree && ((not c.gate_tail) || tail_agree) && all_done in
  (sim, real, all_done, p50_agree, tail_agree, ok)

let run_gated () =
  Format.printf "@.gated cases (workers=1; bands: p50 within %.0fx, tail ratio within %.0fx):@."
    p50_band tail_band;
  Format.printf "  %-12s %10s %10s %10s %10s %6s %6s %5s %5s@." "case" "sim_p50us"
    "real_p50us" "sim_p99us" "real_p99us" "stail" "rtail" "p50ok" "tailok";
  List.map
    (fun c ->
      (* Retry once on a miss: a genuine runtime or model regression
         misses both attempts. *)
      let first = attempt c in
      let retried = not (let _, _, _, _, _, ok = first in ok) in
      let sim, real, all_done, p50_agree, tail_agree, ok =
        if retried then attempt c else first
      in
      Format.printf "  %-12s %10.1f %10.1f %10.1f %10.1f %6.2f %6.2f %5s %5s%s@." c.cname
        sim.p50 real.p50 sim.p99 real.p99 sim.tail real.tail
        (if p50_agree then "yes" else "NO")
        (if c.gate_tail then if tail_agree then "yes" else "NO" else "-")
        (if retried then "  (retried)" else "");
      Bench_report.point ~fig:"crossval"
        ~labels:[ ("case", c.cname); ("workers", "1") ]
        ~metrics:
          (metrics_of sim real
          @ [ ("completed_all", b2f all_done); ("p50_agree", b2f p50_agree) ]
          @ if c.gate_tail then [ ("tail_agree", b2f tail_agree) ] else []);
      (c.cname, ok))
    gated_cases

(* Load sweep: rank agreement. *)

let sweep_loads = [ 0.2; 0.35; 0.5; 0.65; 0.8 ]

let sweep_spec load =
  Printf.sprintf
    "workers=1; quantum=500us; src=exp:800us; arrival=poisson:%.2fx; dur=600ms; \
     warmup=150ms; seed=21"
    load

let run_sweep () =
  Format.printf
    "@.load sweep (exp:800us, q=500us): does load move both tails the same way?@.";
  Format.printf "  %-6s %10s %10s@." "load" "sim_p99us" "real_p99us";
  let points =
    List.map
      (fun load ->
        let sim, real, _, _ = both (sweep_spec load) in
        Format.printf "  %-6s %10.1f %10.1f@."
          (Printf.sprintf "%.2fx" load)
          sim.p99 real.p99;
        Bench_report.point ~fig:"crossval"
          ~labels:[ ("case", "sweep"); ("load", Printf.sprintf "%.2fx" load) ]
          ~metrics:(metrics_of sim real);
        (sim.p99, real.p99))
      sweep_loads
  in
  let sim_p99 = Array.of_list (List.map fst points) in
  let real_p99 = Array.of_list (List.map snd points) in
  let rho = Stat.Rank.spearman sim_p99 real_p99 in
  let rank_ok = rho >= rank_min in
  Format.printf "  spearman(p99) = %.3f (gate: >= %.2f) %s@." rho rank_min
    (if rank_ok then "ok" else "FAIL");
  Bench_report.point ~fig:"crossval"
    ~labels:[ ("case", "sweep"); ("load", "summary") ]
    ~metrics:[ ("spearman_p99", rho); ("rank_corr_ok", b2f rank_ok) ];
  rank_ok

(* Ungated: real parallelism. *)

let smp_case () =
  let sim, real, steals, _ =
    both
      "workers=2; quantum=500us; src=exp:1ms; arrival=poisson:0.5x; dur=600ms; \
       warmup=150ms; seed=31"
  in
  Format.printf
    "@.workers=2 (ungated — CI guarantees one core): sim p50 %.1f us, real p50 %.1f us, \
     steals %d@."
    sim.p50 real.p50 steals;
  Bench_report.point ~fig:"crossval"
    ~labels:[ ("case", "smp_exp_mid"); ("workers", "2") ]
    ~metrics:(metrics_of sim real @ [ ("real_steals", float_of_int steals) ])

let run () =
  Bench_util.header "bench --crossval: simulator vs real fiber runtime, matched specs";
  let gated = run_gated () in
  let rank_ok = run_sweep () in
  smp_case ();
  let failures = List.filter (fun (_, ok) -> not ok) gated in
  let all_ok = failures = [] && rank_ok in
  Format.printf "@.crossval: %d/%d gated cases agree, rank_corr_ok=%b -> %s@."
    (List.length gated - List.length failures)
    (List.length gated) rank_ok
    (if all_ok then "AGREEMENT" else "DISAGREEMENT");
  if not all_ok then
    Format.printf
      "  (bands are generous by design — a miss means the runtime or the model moved, \
       not a noisy host; see DESIGN.md §14)@."
