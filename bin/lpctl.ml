(* lpctl: run LibPreemptible simulations from the command line.

     lpctl run scenarios/tail_attack.scn -s seed=7
     lpctl run "arrival=poisson:500000; dur=20ms" --trace trace.json

   Every server or fleet simulation is described by a scenario spec
   (SCENARIOS.md); [run]'s output modes only change what is observed.
   The IPC, timer, precision and interrupt-storm experiments are bench
   elements (--table4, --fig11, --fig12, --security). *)

open Cmdliner

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline m;
      exit 1)
    fmt

(* ------------------------------------------------------------------ *)
(* Result printers                                                     *)
(* ------------------------------------------------------------------ *)

let pp_result r =
  Format.printf "%a@." Preemptible.Server.pp_result r;
  (match r.Preemptible.Server.lc with
  | Some lc -> Format.printf "LC: %a@." Stat.Summary.pp_report_us lc
  | None -> ());
  (match r.Preemptible.Server.be with
  | Some be -> Format.printf "BE: %a@." Stat.Summary.pp_report_us be
  | None -> ());
  (match r.Preemptible.Server.guard with
  | Some g -> Format.printf "guard: %a@." Guard.pp_report g
  | None -> ());
  match r.Preemptible.Server.resilience with
  | Some res -> Format.printf "resilience: %a@." Preemptible.Server.pp_resilience res
  | None -> ()

let pp_fleet_result (r : Cluster.result) =
  Format.printf "%a@." Cluster.pp_fleet r.Cluster.fleet;
  Array.iteri
    (fun i (s : Preemptible.Server.result) ->
      Format.printf
        "  server %d: completed=%d shed=%d p50=%.1fus p99=%.1fus busy=%.2f preempts=%d@." i
        s.Preemptible.Server.completed s.Preemptible.Server.shed
        (s.Preemptible.Server.all.Stat.Summary.p50 /. 1e3)
        (s.Preemptible.Server.all.Stat.Summary.p99 /. 1e3)
        s.Preemptible.Server.worker_busy_frac s.Preemptible.Server.preemptions)
    r.Cluster.per_server

(* ------------------------------------------------------------------ *)
(* The --top dashboard                                                 *)
(* ------------------------------------------------------------------ *)

(* Telemetry is passive, so these constants never change results: a
   1 ms tick, one SLO (p99 <= 250 us) and a 50 ms repaint throttle. *)
let top_telemetry =
  {
    Preemptible.Telemetry.default with
    Preemptible.Telemetry.slos =
      [
        {
          Obs.Slo.default_spec with
          Obs.Slo.fast_windows = 2;
          slow_windows = 6;
          burn_threshold = 3.0;
        };
      ];
  }

let top_refresh_s = 0.05

let occupancy_bar frac width =
  let frac = if Float.is_nan frac then 0.0 else Float.min 1.0 (Float.max 0.0 frac) in
  let n = int_of_float ((frac *. float_of_int width) +. 0.5) in
  String.make n '#' ^ String.make (width - n) '.'

let render_frame ~clear (f : Preemptible.Telemetry.frame) =
  if clear then print_string "\027[2J\027[H";
  let quantum =
    if f.Preemptible.Telemetry.f_quantum_ns = max_int then "uncapped"
    else Printf.sprintf "%.1fus" (float_of_int f.Preemptible.Telemetry.f_quantum_ns /. 1e3)
  in
  let guard =
    match f.Preemptible.Telemetry.f_guard with
    | None -> "-"
    | Some s -> Guard.state_name s
  in
  let pct_ns ns elapsed = 100.0 *. float_of_int ns /. float_of_int (max 1 elapsed) in
  let us_or_dash v = if Float.is_nan v then "-" else Printf.sprintf "%.1fus" (v /. 1e3) in
  Format.printf "lpctl top  t=%7.2fms  quantum=%s  guard=%s  qlen=%d@."
    (float_of_int f.Preemptible.Telemetry.f_at_ns /. 1e6)
    quantum guard f.Preemptible.Telemetry.f_qlen;
  Format.printf "  tick: %d arrivals, %d completions, p50=%s p99=%s@."
    f.Preemptible.Telemetry.f_arrivals f.Preemptible.Telemetry.f_completions
    (us_or_dash f.Preemptible.Telemetry.f_p50_ns)
    (us_or_dash f.Preemptible.Telemetry.f_p99_ns);
  Array.iteri
    (fun i (c : Preemptible.Telemetry.core_attr) ->
      let el = f.Preemptible.Telemetry.f_elapsed_ns in
      let busy = float_of_int c.service_ns /. float_of_int (max 1 el) in
      Format.printf
        "  core %d [%s] %5.1f%% busy  (sched %4.1f%% preempt %4.1f%% idle %4.1f%%)@." i
        (occupancy_bar busy 20) (100.0 *. busy) (pct_ns c.sched_ns el)
        (pct_ns c.preempt_ns el) (pct_ns c.idle_ns el))
    f.Preemptible.Telemetry.f_cores;
  List.iter
    (fun (name, (s : Obs.Slo.status)) ->
      Format.printf "  slo %-12s burn fast %5.2fx slow %5.2fx  budget %5.1f%%%s@." name
        s.Obs.Slo.fast_burn s.Obs.Slo.slow_burn
        (100.0 *. s.Obs.Slo.budget_consumed)
        (if s.Obs.Slo.burn_firing then "  [BURN ALERT]"
         else if s.Obs.Slo.static_firing then "  [budget exhausted]"
         else ""))
    f.Preemptible.Telemetry.f_slos;
  Format.print_flush ()

(* The dashboard's closing output: the last frame (the only render when
   stdout is not a terminal; a live dashboard repaints it so the screen
   ends on the final state), then whole-run totals. *)
let print_top ~live last_frame (r : Preemptible.Server.result) =
  (match last_frame with
  | Some frame -> render_frame ~clear:live frame
  | None ->
    Format.printf "lpctl top: no telemetry frame recorded (duration below one tick?)@.");
  (match r.Preemptible.Server.telemetry with
  | None -> ()
  | Some tel ->
    Format.printf "@.run summary: %d ticks, %d completed, p99=%.1fus@."
      tel.Preemptible.Telemetry.t_ticks r.Preemptible.Server.completed
      (r.Preemptible.Server.all.Stat.Summary.p99 /. 1e3);
    Format.printf "  LC: %a@." Stat.Summary.pp_report_opt_us r.Preemptible.Server.lc;
    Array.iteri
      (fun i c -> Format.printf "  core %d: %a@." i Preemptible.Telemetry.pp_core_attr c)
      tel.Preemptible.Telemetry.t_cores;
    List.iter
      (fun rep -> Format.printf "  %a@." Obs.Slo.pp_report rep)
      tel.Preemptible.Telemetry.t_slos;
    Format.printf "  controller audit: %d decisions (%d dropped)@."
      (List.length tel.Preemptible.Telemetry.t_audit)
      tel.Preemptible.Telemetry.t_audit_dropped);
  match r.Preemptible.Server.guard with
  | Some g -> Format.printf "  guard: %a@." Guard.pp_report g
  | None -> ()

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

(* One single-server simulation with the requested output modes.  Each
   mode only record-updates the spec's lowered config with a passive
   observer (trace ring, telemetry tick), so the simulated schedule is
   the one plain [run] would produce. *)
let run_observed spec ~trace ~top ~metrics_out =
  let cfg = Scenario.server_config spec in
  let cfg =
    if trace = None then cfg
    else { cfg with Preemptible.Server.trace = Some Obs.Trace.default_config }
  in
  let cfg =
    if top then { cfg with Preemptible.Server.telemetry = Some top_telemetry } else cfg
  in
  let live = top && Unix.isatty Unix.stdout in
  let last_frame = ref None in
  let last_render = ref neg_infinity in
  let on_tick frame =
    last_frame := Some frame;
    if live then begin
      let now = Unix.gettimeofday () in
      if now -. !last_render >= top_refresh_s then begin
        last_render := now;
        render_frame ~clear:true frame
      end
    end
  in
  let r =
    Preemptible.Server.run
      ~probes:{ Preemptible.Server.no_probes with Preemptible.Server.on_tick }
      ~warmup_ns:spec.Scenario.warmup_ns cfg ~arrival:(Scenario.arrival_process spec)
      ~source:(Scenario.source_sampler spec) ~duration_ns:spec.Scenario.duration_ns
  in
  if top then print_top ~live !last_frame r else pp_result r;
  Option.iter
    (fun path ->
      Obs.Export.prometheus_to_file r.Preemptible.Server.metrics ~path;
      Format.printf "(metrics: %s)@." path)
    metrics_out;
  Option.iter
    (fun path ->
      let tr = Option.get r.Preemptible.Server.trace in
      Obs.Export.perfetto_to_file tr ~path;
      Format.printf "trace: %d events recorded, %d dropped -> %s@." (Obs.Trace.recorded tr)
        (Obs.Trace.dropped tr) path;
      let bd = Obs.Breakdown.of_trace tr in
      Format.printf "%a@." Obs.Breakdown.pp bd;
      if not (Obs.Breakdown.sums_ok bd) then
        fail "breakdown components do not telescope to total latency";
      Format.printf "metrics:@.%a@." Obs.Metrics.pp_snapshot r.Preemptible.Server.metrics)
    trace

(* A valid spec can still measure no completion: too little load for its
   duration, or a warmup that covers every arrival.  Every runner raises
   [Failure] with "no measured completions" on that; report it as one
   error line instead of a crash. *)
let reporting_no_completions f =
  let mentions sub m =
    let n = String.length sub in
    let rec at i = i + n <= String.length m && (String.sub m i n = sub || at (i + 1)) in
    at 0
  in
  try f () with Failure m when mentions "no measured completions" m ->
    fail "lpctl: the run measured no completions (%s); offer more load, a longer dur or a \
          shorter warmup"
      m

(* SCENARIO is a .scn file when one exists at that path, otherwise an
   inline spec string; -s KEY=VALUE overrides apply on top in order. *)
let run_scenario scenario sets print_only rt trace top metrics_out =
  let parsed =
    if Sys.file_exists scenario then Scenario.of_file scenario
    else Scenario.of_string scenario
  in
  let spec =
    match parsed with
    | Ok spec -> spec
    | Error e -> fail "%s" (Scenario.error_to_string e)
  in
  let spec =
    List.fold_left
      (fun spec text ->
        match Scenario.override spec text with
        | Ok spec -> spec
        | Error e -> fail "-s %s: %s" text (Scenario.error_to_string e))
      spec sets
  in
  (match Scenario.validate spec with Ok () -> () | Error m -> fail "%s" m);
  let mode =
    if trace <> None then Some "--trace"
    else if top then Some "--top"
    else if metrics_out <> None then Some "--metrics-out"
    else None
  in
  Option.iter
    (fun mode ->
      let conflict =
        if rt then Some "--rt"
        else if print_only then Some "--print"
        else if spec.Scenario.fleet <> None then Some "a fleet={...} spec"
        else
          match spec.Scenario.system with
          | Scenario.Lp | Scenario.Lp_nouintr -> None
          | sys -> Some ("sys=" ^ Scenario.system_name sys)
      in
      Option.iter
        (fail "%s needs one single-server sys=lp|lp-nouintr simulation, not %s" mode)
        conflict)
    mode;
  if print_only then print_endline (Scenario.to_string spec)
  else if rt then begin
    (match Scenario.validate_rt spec with Ok () -> () | Error m -> fail "--rt: %s" m);
    Format.printf "# %s@." (Scenario.to_string spec);
    Format.printf "# executing on %d real domain(s) + 1 timer domain (wall clock)@."
      spec.Scenario.workers;
    reporting_no_completions (fun () ->
        Format.printf "%a@." Fiber_rt.Sched.pp_result (Scenario.run_rt spec))
  end
  else begin
    Format.printf "# %s@." (Scenario.to_string spec);
    reporting_no_completions (fun () ->
        if mode <> None then run_observed spec ~trace ~top ~metrics_out
        else
          match Scenario.run spec with
          | Scenario.Server r -> pp_result r
          | Scenario.Fleet r -> pp_fleet_result r)
  end

let run_cmd =
  let scenario =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO"
          ~doc:"a scenario (.scn) file path, or an inline spec string when no such file exists")
  in
  let sets =
    Arg.(
      value & opt_all string []
      & info [ "s"; "set" ] ~docv:"KEY=VALUE"
          ~doc:"override a scenario field (repeatable, applied in order), e.g. -s seed=7 -s \
                \"arrival=poisson:1.2x\"")
  in
  let print_only =
    Arg.(
      value & flag
      & info [ "print" ] ~doc:"print the normalized spec instead of running it")
  in
  let rt =
    Arg.(
      value & flag
      & info [ "rt" ]
          ~doc:
            "execute on real domains (work-stealing fiber runtime) instead of the \
             simulator; supports the single-server lp subset of the language (no fleet, \
             guard, faults, watchdog or adaptive quantum)")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "record every trace category (2^20-event ring) and write Perfetto JSON to \
             $(docv); also prints the per-request latency breakdown (exit 1 if it does \
             not telescope) and the metrics snapshot")
  in
  let top =
    Arg.(
      value & flag
      & info [ "top" ]
          ~doc:
            "telemetry dashboard (1 ms tick, SLO p99 <= 250us): repaints live on a \
             terminal, otherwise prints the final frame once; ends with a run summary")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"write the run's metrics snapshot to $(docv) in Prometheus text format")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"parse, validate and run a declarative scenario"
       ~exits:
         (Cmd.Exit.info 1
            ~doc:
              "on a scenario that does not parse or validate, an output mode combined \
               with what it rejects, or a trace breakdown that does not telescope."
         :: Cmd.Exit.defaults)
       ~man:
         [
           `S Manpage.s_description;
           `P
             "$(b,--trace), $(b,--top) and $(b,--metrics-out) may be combined; each needs \
              one single-server sys=lp|lp-nouintr simulation (no fleet, baseline system, \
              $(b,--rt) or $(b,--print)).";
         ])
    Term.(const run_scenario $ scenario $ sets $ print_only $ rt $ trace $ top $ metrics_out)

let () =
  let doc = "LibPreemptible reproduction: custom simulation runs" in
  exit
    (Cmd.eval (Cmd.group (Cmd.info "lpctl" ~doc) [ run_cmd ]))
