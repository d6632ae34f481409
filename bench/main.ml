(* Reproduction harness: regenerates every table and figure of the
   LibPreemptible evaluation (plus ablations and micro-benchmarks).

     dune exec bench/main.exe                        runs everything
     dune exec bench/main.exe -- --fig8              runs one element
     dune exec bench/main.exe -- --fig8 --jobs 8     fans the sweep out over 8 domains
     dune exec bench/main.exe -- --report out.json   writes a machine-readable report
     dune exec bench/main.exe -- --list              lists elements

   Sweeps are deterministic in the number of jobs: every sweep point is
   an independent simulation with its own seed, and results are merged
   in submission order, so --jobs 8 output is identical to --jobs 1. *)

(* Elements that sweep nothing ignore --jobs. *)
let plain f ~jobs:_ () = f ()

let elements =
  [
    ("--table1", "Table I: thread oversubscription (source data)", plain Bench_tables.table1);
    ("--fig1", "Fig 1: sw/hw IPC gap + preemption overhead vs dispersion", Bench_fig1.run);
    ("--fig2", "Fig 2: p99 vs load across quanta (16 cores)", Bench_fig2.run);
    ("--table23", "Tables II/III: integration effort (documented)", plain Bench_tables.table23);
    ("--table4", "Table IV: IPC mechanism overheads", plain Bench_tables.table4);
    ("--fig8", "Fig 8: latency vs throughput, 4 systems x 4 workloads", Bench_fig8.run);
    ("--fig9", "Fig 9: SLO violations, static vs adaptive quanta", Bench_fig9.run);
    ("--fig10", "Fig 10: deployment overhead", Bench_fig10.run);
    ("--fig11", "Fig 11: timer delivery scalability", Bench_fig11.run);
    ("--fig12", "Fig 12: timer precision", Bench_fig12.run);
    ("--table5", "Table V: MICA / zlib solo latencies", plain Bench_tables.table5);
    ("--fig13", "Fig 13: colocation, fixed/variable quantum", Bench_fig13.run);
    ("--fig14", "Fig 14: bursty load, dynamic interval", Bench_fig14.run);
    ( "--ablation",
      "Ablations: wheel, controller, poll, disciplines, hw offload",
      Bench_ablation.run );
    ("--security", "Sec VII: interrupt-storm DoS scenarios", plain Bench_security.run);
    ("--faults", "Resilience: fault-rate sweep, lost-UIPI retry, failover", plain Bench_faults.run);
    ( "--overload",
      "Overload: goodput past capacity, guard on/off, retry storms",
      Bench_overload.run );
    ( "--cluster",
      "Cluster: fleet size x load balancer sweeps, quanta crossover, stealing",
      Bench_cluster.run );
    ("--slo", "SLO telemetry: burn-rate vs static alerts through a flash crowd", Bench_slo.run);
    ( "--adversarial",
      "Adversarial pack: scenarios/*.scn attacks, defended vs fixed-quantum",
      Bench_adversarial.run );
    ( "--crossval",
      "Cross-validation: sim vs real fiber runtime on matched specs",
      plain Bench_crossval.run );
    ("--micro", "Bechamel micro-benchmarks", plain Bench_micro.run);
    ("--perf", "Engine hot-path throughput + allocation budget (meta-only)", plain Bench_perf.run);
  ]

let list_elements () =
  Format.printf "available elements:@.";
  List.iter (fun (flag, desc, _) -> Format.printf "  %-12s %s@." flag desc) elements;
  Format.printf "options:@.";
  Format.printf "  %-12s %s@." "--jobs N"
    "worker domains for sweeps (default: recommended domain count; 1 = sequential)";
  Format.printf "  %-12s %s@." "--report FILE" "write a machine-readable JSON bench report";
  Format.printf "  %-12s %s@." "--scenario FILE"
    "parse, validate and run one scenario (.scn) file"

let usage_error msg =
  Format.printf "%s@." msg;
  list_elements ();
  exit 1

let run_element ~jobs (flag, _, f) =
  Bench_report.timed (String.sub flag 2 (String.length flag - 2)) (fun () -> f ~jobs ())

(* bench --scenario FILE: parse, validate, run, report. *)
let run_scenario_file file =
  let spec =
    match
      Result.bind
        (Result.map_error Scenario.error_to_string (Scenario.of_file file))
        (fun s -> Result.map (fun () -> s) (Scenario.validate s))
    with
    | Ok s -> s
    | Error msg ->
      Format.printf "%s: %s@." file msg;
      exit 1
  in
  let name = match spec.Scenario.name with Some n -> n | None -> Filename.basename file in
  Format.printf "scenario %s (%s):@.  %s@." name file
    (String.concat "\n  " (String.split_on_char '\n' (Scenario.to_string spec)));
  let outcome = Scenario.run spec in
  Format.printf "%a@." Scenario.pp_outcome outcome;
  let metrics =
    match outcome with
    | Scenario.Server r ->
      List.map
        (fun m -> (m, snd (Figure.server_metric m) r))
        [ "p99_us"; "mean_us"; "completed"; "offered"; "preemptions" ]
    | Scenario.Fleet r ->
      List.map
        (fun m -> (m, snd (Figure.fleet_metric m) r.Cluster.fleet))
        [ "p99_us"; "mean_us"; "completed"; "offered"; "goodput_rps" ]
  in
  Bench_report.point ~fig:"scenario" ~labels:[ ("scenario", name) ] ~metrics

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* Pass 1: options. --jobs N and --report FILE apply to the whole
     invocation wherever they appear; what remains selects elements. *)
  let jobs = ref (Exec.Sweep.default_jobs ()) in
  let report = ref None in
  let rec strip acc = function
    | [] -> List.rev acc
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        jobs := n;
        strip acc rest
      | Some _ | None -> usage_error (Printf.sprintf "--jobs expects a positive integer, got %S" n))
    | [ "--jobs" ] -> usage_error "--jobs expects a worker count"
    | "--report" :: file :: rest when String.length file > 0 && file.[0] <> '-' ->
      report := Some file;
      strip acc rest
    | [ "--report" ] | "--report" :: _ -> usage_error "--report expects a file name"
    | arg :: rest -> strip (arg :: acc) rest
  in
  let args = strip [] args in
  let jobs = !jobs in
  Option.iter (fun _ -> Bench_report.start ~jobs) !report;
  (match args with
  | [] ->
    Format.printf "LibPreemptible reproduction harness - running all elements (jobs=%d)@."
      jobs;
    let t0 = Unix.gettimeofday () in
    List.iter (run_element ~jobs) elements;
    Format.printf "@.done in %.1fs@." (Unix.gettimeofday () -. t0)
  | [ "--list" ] -> list_elements ()
  | flags ->
    (* --scenario consumes a following FILE operand; every other
       element is a bare flag. *)
    let rec go = function
      | [] -> ()
      | "--scenario" :: file :: rest when String.length file > 0 && file.[0] <> '-' ->
        Bench_report.timed "scenario" (fun () -> run_scenario_file file);
        go rest
      | [ "--scenario" ] -> usage_error "--scenario expects a scenario file"
      | flag :: rest ->
        (match List.find_opt (fun (f, _, _) -> f = flag) elements with
        | Some el -> run_element ~jobs el
        | None -> usage_error (Printf.sprintf "unknown element %s" flag));
        go rest
    in
    go flags);
  Option.iter (fun path -> Bench_report.write ~path) !report
