(* The five workloads, and the traced run that completes their
   per-layer metrics. *)

module Pool = Fiber_rt.Pool

type ctx = {
  seed : int;
  seconds : float;  (** length of the measured phase *)
  root : string;  (** the repository root (holds BENCHMARK.json) *)
  trace : Spans.t option;  (** [Some] for the traced run *)
}

type outcome = {
  attempted : int;
  failed : int;
  checks : string list;  (** what was verified, one line each *)
  metrics : (string * float) list;
      (** untraced: the end-to-end metrics; traced: the per-layer ones *)
  info : (string * float * string) list;  (** printed beside the metrics, never gated *)
}

(* The seed at which outputs are checked against pinned values: the
   scenario default the Fig 8 bench and BENCH_BASELINE.json use. *)
let default_seed = 42

let timed f =
  let t0 = Clock.now_s () in
  let r = f () in
  (r, Clock.now_s () -. t0)

let count p a = Array.fold_left (fun n x -> if p x then n + 1 else n) 0 a

let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (max 1 (Array.length a))

let outcome ~checks ~failed ~metrics ~info =
  { attempted = Array.length failed; failed = count Fun.id failed; checks; metrics; info }

let seed_note ctx pinned =
  if ctx.seed = default_seed then pinned
  else
    Printf.sprintf "seed %d is not the default %d: pinned outputs were not checked" ctx.seed
      default_seed

let sim_check =
  "every simulation conserved requests (offered = completed + cancelled + dropped + shed) \
   and every repeat matched its first run bit for bit"

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* Set-up has three steps: lower the spec, materialise the inputs, and
   create the worker pool.  One set-up takes a few milliseconds, so it
   runs [setup_reps] times and the medians are reported; the last one
   is the one the run uses. *)
let setup_reps = 11

type setup = { setup_s : float; lower_ms : float; inputs_ms : float; pool_ms : float }

let set_up ?trace ~release ~lower ~inputs ~pool () =
  let step name f = timed (fun () -> Spans.span trace Obs.Trace.Server name ~track:0 f) in
  let runs = ref [] and last = ref None in
  for _ = 1 to setup_reps do
    Option.iter release !last;
    let spec, l = step "scenario.lower" lower in
    let ins, i = step "workload.inputs" (fun () -> inputs spec) in
    let p, c = step "pool.create" (fun () -> pool spec) in
    runs := (l, i, c) :: !runs;
    last := Some (spec, ins, p)
  done;
  let med f = Stats.median (Array.of_list (List.map f !runs)) in
  ( Option.get !last,
    {
      setup_s = med (fun (l, i, c) -> l +. i +. c);
      lower_ms = 1e3 *. med (fun (l, _, _) -> l);
      inputs_ms = 1e3 *. med (fun (_, i, _) -> i);
      pool_ms = 1e3 *. med (fun (_, _, c) -> c);
    } )

let setup_layers st =
  [
    ("scenario.lower_ms", st.lower_ms);
    ("workload.inputs_ms", st.inputs_ms);
    ("pool.create_ms", st.pool_ms);
  ]

(* Untraced, the measured phase lasts [seconds].  Traced, its first
   half runs untraced and the same ops then run again traced, so the
   two halves give the tracing overhead. *)
let phase_seconds ctx = if ctx.trace = None then ctx.seconds else ctx.seconds /. 2.0

let still_before s =
  let d = Clock.now_s () +. s in
  fun () -> Clock.now_s () < d

let overhead ~untraced ~traced = ("trace.overhead_frac", (mean traced /. mean untraced) -. 1.0)

let no_fleet = [ ("cluster.imbalance", 0.0); ("cluster.stolen_per_req", 0.0) ]

(* ------------------------------------------------------------------ *)
(* Simulator workloads                                                 *)
(* ------------------------------------------------------------------ *)

let sim_jobs = 2

(* The measured phase of a simulator workload (at least [min_ops] ops)
   and, traced, its replay. *)
let sim_phases ctx pool ~window ~min_ops task =
  let more = still_before (phase_seconds ctx) in
  let a = Sims.run_ops ~window pool ~continue:(fun k -> k < min_ops || more ()) (task None) in
  let b =
    Option.map
      (fun spans ->
        Sims.run_ops ~trace:spans ~window pool
          ~continue:(fun k -> k < Array.length (fst a))
          (task (Some spans)))
      ctx.trace
  in
  (a, b)

(* Failed ops: an exception, broken conservation, or numbers that
   differ from the first op with the same [key]. *)
let sim_failures ~key ops =
  let first = Hashtbl.create 64 in
  Array.mapi
    (fun k r ->
      match r with
      | Error _ -> true
      | Ok (s : Sims.sim) ->
        let repeats =
          match Hashtbl.find_opt first (key k) with
          | None ->
            Hashtbl.add first (key k) s;
            true
          | Some (f : Sims.sim) -> f.pinned = s.pinned && f.events = s.events
        in
        not (Sims.conserved s && repeats))
    ops

let oks ops = Array.to_list ops |> List.filter_map Result.to_option

let host_ms sims = Array.of_list (List.map (fun (s : Sims.sim) -> s.host_s *. 1e3) sims)

(* The metrics of a simulator workload: end to end from the untraced
   phase, or per layer from the traced replay.  [op_ms] gives the op
   latencies of a set of simulations, [latency] their p50 and p99. *)
let sim_metrics st ((a, wall_a), b) ~op_ms ~latency ~own_layers =
  match b with
  | None ->
    let sims = oks a in
    if sims = [] then failwith "no simulation completed";
    let p50, p99 = latency sims in
    let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 sims in
    ( [
        ("setup_s", st.setup_s);
        ("ops_per_s", float_of_int (Array.length (op_ms sims)) /. wall_a);
        ("p50_ms", p50);
        ("p99_ms", p99);
        ( "alloc_words_per_req",
          sum (fun s -> s.Sims.words) /. sum (fun s -> float_of_int s.Sims.offered) );
      ],
      [ ("simulations", float_of_int (Array.length a), "count") ] )
  | Some (b, wall_b) ->
    let sims = oks b in
    ( setup_layers st @ Sims.layer_metrics sims
      @ Sims.exec_metrics ~jobs:sim_jobs ~wall:wall_b sims
      @ own_layers sims
      @ [ overhead ~untraced:(op_ms (oks a)) ~traced:(op_ms sims) ],
      [] )

let all_ops ((a, _), b) = match b with None -> a | Some (b, _) -> Array.append a b

let sim_fig8 ctx =
  let baseline =
    if ctx.seed = default_seed then
      Some (Sims.baseline_table (Filename.concat ctx.root "BENCH_BASELINE.json"))
    else None
  in
  let (_, points, pool), st =
    set_up ?trace:ctx.trace
      ~release:(fun (_, _, p) -> Exec.Pool.shutdown p)
      ~lower:Sims.fig8_system_specs
      ~inputs:(Sims.fig8_points ~seed:(Int64.of_int ctx.seed))
      ~pool:(fun _ -> Exec.Pool.create ~jobs:sim_jobs ())
      ()
  in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) @@ fun () ->
  let n = Array.length points in
  let key = Sims.fig8_index n in
  let phases =
    sim_phases ctx pool ~window:(2 * sim_jobs) ~min_ops:n (fun trace k ->
        Sims.fig8_run ?trace k points.(key k))
  in
  let ops = all_ops phases in
  let failed = sim_failures ~key ops in
  (* Pinned outputs: the first pass, point by point, against the
     baseline; a point that differs fails every op that ran it. *)
  (match baseline with
  | None -> ()
  | Some tbl ->
    let first = Array.make n None in
    for k = 0 to n - 1 do
      first.(key k) <- Result.to_option ops.(k)
    done;
    let bad = Sims.fig8_mismatches tbl points first in
    Array.iteri (fun k _ -> if List.mem (key k) bad then failed.(k) <- true) ops);
  (* The figure's points differ in cost, so one pass of the figure is
     one sample: its percentiles are taken over every simulation. *)
  let latency sims =
    let ms = host_ms sims in
    (Stats.percentile ms 50.0, Stats.percentile ms 99.0)
  in
  let metrics, info =
    sim_metrics st phases ~op_ms:host_ms ~latency ~own_layers:(fun _ -> no_fleet)
  in
  outcome ~failed ~metrics ~info
    ~checks:
      [
        sim_check;
        seed_note ctx
          "all 144 points (128 fig8 + 16 fig8_summary) checked bit-equal to \
           BENCH_BASELINE.json";
      ]

let fingerprint_path ctx = Filename.concat ctx.root "benchmark/expected/sim-fleet-guard.json"

(* [duration] is the simulated length of one op; the benchmark's test
   shrinks it. *)
let sim_fleet_guard ?(duration = "100ms") ctx =
  let expected =
    if ctx.seed = default_seed then Some (Sims.read_fingerprint (fingerprint_path ctx))
    else None
  in
  let (_, fs, pool), st =
    set_up ?trace:ctx.trace
      ~release:(fun (_, _, p) -> Exec.Pool.shutdown p)
      ~lower:(fun () -> Sims.fleet_spec ~seed:ctx.seed ~duration)
      ~inputs:Sims.fleet_inputs
      ~pool:(fun _ -> Exec.Pool.create ~jobs:sim_jobs ())
      ()
  in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) @@ fun () ->
  (* Every op is the same seeded simulation: a repeat must reproduce
     the first bit for bit. *)
  let phases =
    sim_phases ctx pool ~window:sim_jobs ~min_ops:1 (fun trace k -> Sims.fleet_run ?trace k fs)
  in
  let ops = all_ops phases in
  let failed = sim_failures ~key:(fun _ -> 0) ops in
  let mismatch =
    match (expected, ops.(0)) with
    | Some e, Ok s when not (Sims.fingerprint_matches e s) ->
      Array.fill failed 0 (Array.length failed) true;
      [ "FAILED: the fingerprint differs; this run gives " ^ Sims.fingerprint_text s ]
    | _ -> []
  in
  (* Traced: one more run with telemetry off must leave every latency
     as it was; it gives the telemetry overhead. *)
  let own_layers sims =
    let (s0 : Sims.sim) = List.hd sims in
    let off = Sims.fleet_run ~telemetry:false 0 fs in
    let latencies (s : Sims.sim) = List.remove_assoc "sim_events" s.pinned in
    let same_latency = latencies off = latencies s0 in
    if not same_latency then Array.fill failed 0 (Array.length failed) true;
    let offered = float_of_int (max 1 s0.offered) in
    [
      ("guard.shed_frac", float_of_int s0.shed /. offered);
      ("preemptible.telemetry_ticks", float_of_int s0.ticks);
      ( "preemptible.telemetry_overhead_frac",
        (Stats.median (host_ms sims) /. (off.host_s *. 1e3)) -. 1.0 );
      ("cluster.imbalance", s0.imbalance);
      ("cluster.stolen_per_req", float_of_int s0.stolen /. offered);
    ]
  in
  (* An op is one simulated millisecond; each simulation is a sub-run. *)
  let steps sims = List.map (fun (s : Sims.sim) -> s.steps_ms) sims in
  let metrics, info =
    sim_metrics st phases
      ~op_ms:(fun sims -> Array.concat (steps sims))
      ~latency:(fun sims -> Stats.subrun_latency (steps sims))
      ~own_layers
  in
  outcome ~failed ~metrics ~info
    ~checks:
      (sim_check
      :: seed_note ctx
           "fleet fingerprint (offered, completed, shed, goodput, p50, p99, max, sim_events) \
            equal to benchmark/expected/sim-fleet-guard.json"
      :: mismatch)

(* ------------------------------------------------------------------ *)
(* Real-runtime workloads                                              *)
(* ------------------------------------------------------------------ *)

let rt_spec text =
  let spec = Sims.spec_exn text in
  (match Scenario.validate_rt spec with Ok () -> () | Error m -> invalid_arg m);
  spec

let rt_pool (spec : Scenario.t) =
  match spec.Scenario.quantum with
  | Scenario.Fixed q -> Pool.create ~quantum_ns:q ~workers:spec.Scenario.workers ()
  | _ -> Pool.create ~workers:spec.Scenario.workers ()

(* Allocation over a real-runtime phase, summed over all domains:
   [Gc.quick_stat] folds in the counts of joined domains, so read it
   after [Pool.shutdown]. *)
let all_minor_words () = (Gc.quick_stat ()).Gc.minor_words

let exactly_once (o : Rt.ops) = Array.map (fun r -> r <> 1) o.runs

let ms_of_ns ns = float_of_int ns /. 1e6

(* An rt-open workload: LC latency from the due time, with 2-s windows
   of due time after the warm-up as the sub-runs. *)
let rt_open ~rate ctx =
  let dur_s = phase_seconds ctx in
  let warmup_s = Float.min 1.0 (dur_s /. 10.0) in
  let window_s = Float.min 2.0 ((dur_s -. warmup_s) /. 4.0) in
  let (_, items, pool), st =
    set_up ?trace:ctx.trace ~release:(fun (_, _, p) -> Pool.shutdown p)
      ~lower:(fun () -> rt_spec (Rt.open_text ~rate ~dur_s ~warmup_s ~seed:ctx.seed))
      ~inputs:Scenario.rt_schedule ~pool:rt_pool ()
  in
  let w0 = all_minor_words () in
  let ra, rb, preemptions =
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    let ra = Rt.open_loop pool items in
    let p0 = (Pool.stats pool).Pool.preemptions in
    let rb =
      Option.map
        (fun spans ->
          let ins = Rt.instr spans in
          (ins, Rt.open_loop ~instr:ins pool items))
        ctx.trace
    in
    (ra, rb, (Pool.stats pool).Pool.preemptions - p0)
  in
  let words = all_minor_words () -. w0 in
  let n = Array.length items in
  let failed =
    Array.append (exactly_once ra.o)
      (match rb with Some (_, r) -> exactly_once r.o | None -> [||])
  in
  let at_s i = float_of_int items.(i).Fiber_rt.Sched.at_ns /. 1e9 in
  let measured = List.filter (fun i -> at_s i >= warmup_s) (List.init n Fun.id) in
  let lc = List.filter (fun i -> items.(i).Fiber_rt.Sched.lc) measured in
  let be = List.filter (fun i -> not items.(i).Fiber_rt.Sched.lc) measured in
  let lat r idx = Array.of_list (List.map (fun i -> ms_of_ns (Rt.latency_ns r i)) idx) in
  let late = Array.map (fun ns -> float_of_int ns /. 1e3) ra.o.late_ns in
  let late_p99 = Stats.percentile late 99.0 in
  let checks =
    [ "every request ran exactly once (lost, duplicated or raising requests fail)" ]
    @
    if late_p99 > 1000.0 then
      [
        Printf.sprintf "WARNING: generator p99 lateness %.0f us exceeds 1 ms: the host stalled"
          late_p99;
      ]
    else []
  in
  match rb with
  | None ->
    let lc_ms = lat ra lc in
    if Array.length lc_ms = 0 then failwith "no latency-critical request was measured";
    let windows =
      Stats.windows
        ~times:(Array.of_list (List.map at_s lc))
        ~values:lc_ms ~start:warmup_s ~width:window_s ~stop:dur_s
    in
    let p50, p99 = Stats.subrun_latency windows in
    let be_ms = lat ra be in
    let be_info =
      if Array.length be_ms = 0 then []
      else
        [
          ("be_p50_ms", Stats.percentile be_ms 50.0, "ms");
          ("be_p99_ms", Stats.percentile be_ms 99.0, "ms");
        ]
    in
    outcome ~checks ~failed
      ~metrics:
        [
          ("setup_s", st.setup_s);
          ("ops_per_s", float_of_int (count not failed) /. ra.wall_s);
          ("p50_ms", p50);
          ("p99_ms", p99);
          ("alloc_words_per_req", words /. float_of_int n);
        ]
      ~info:
        ([
           ("lc_n", float_of_int (Array.length lc_ms), "count");
           ("windows", float_of_int (List.length windows), "count");
           ("lc_p99_whole_run_ms", Stats.percentile lc_ms 99.0, "ms");
           ("lc_p999_whole_run_ms", Stats.percentile lc_ms 99.9, "ms");
         ]
        @ be_info
        @ [
            ("gen_late_p50_us", Stats.percentile late 50.0, "us");
            ("gen_late_p99_us", late_p99, "us");
            ("gen_late_max_us", Stats.percentile late 100.0, "us");
          ])
  | Some (ins, r) ->
    let all = List.init n Fun.id in
    outcome ~checks ~failed ~info:[]
      ~metrics:
        (setup_layers st
        @ Rt.layer_metrics ins r.o ~idx:all
            ~lc:(fun i -> items.(i).Fiber_rt.Sched.lc)
            ~drain_ms:(ms_of_ns r.drain_ns) ~preemptions
        @ no_fleet
        @ [ overhead ~untraced:(lat ra lc) ~traced:(lat r lc) ])

(* [jobs] is the batch size; the benchmark's test shrinks it. *)
let rt_batch ?(jobs = 2000) ctx =
  let (_, sizes, pool), st =
    set_up ?trace:ctx.trace ~release:(fun (_, _, p) -> Pool.shutdown p)
      ~lower:(fun () -> rt_spec "sys=lp; workers=1; quantum=200us")
      ~inputs:(fun _ -> Rt.batch_sizes ~seed:ctx.seed jobs)
      ~pool:rt_pool ()
  in
  let w0 = all_minor_words () in
  let ra, rb, preemptions =
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    let more = still_before (phase_seconds ctx) in
    let rec rounds ?instr acc stop =
      let acc = Rt.batch_round ?instr pool sizes :: acc in
      if stop (List.length acc) then List.rev acc else rounds ?instr acc stop
    in
    let ra = rounds [] (fun _ -> not (more ())) in
    let p0 = (Pool.stats pool).Pool.preemptions in
    let rb =
      Option.map
        (fun spans ->
          let ins = Rt.instr spans in
          (ins, rounds ~instr:ins [] (fun k -> k >= List.length ra)))
        ctx.trace
    in
    (ra, rb, (Pool.stats pool).Pool.preemptions - p0)
  in
  let words = all_minor_words () -. w0 in
  let failures (r : Rt.round) =
    Array.mapi (fun i f -> f || r.wrong_at.(i)) (exactly_once r.ro)
  in
  let rounds_b = match rb with Some (_, b) -> b | None -> [] in
  let failed = Array.concat (List.map failures (ra @ rounds_b)) in
  (* Job latency runs from the round's start, when every job is due. *)
  let latencies (r : Rt.round) = Array.map (fun f -> ms_of_ns (f - r.rt0)) r.ro.finished in
  let all_latencies rs = Array.concat (List.map latencies rs) in
  let checks = [ "every job ran exactly once and returned the right Fibonacci number" ] in
  match rb with
  | None ->
    (* Each round is a sub-run; the median round gives the rate, so a
       round slowed by the host does not move it. *)
    let rate (r : Rt.round) = float_of_int (Array.length sizes) /. r.round_s in
    let p50, p99 = Stats.subrun_latency (List.map latencies ra) in
    outcome ~checks ~failed
      ~metrics:
        [
          ("setup_s", st.setup_s);
          ("ops_per_s", Stats.median (Array.of_list (List.map rate ra)));
          ("p50_ms", p50);
          ("p99_ms", p99);
          ("alloc_words_per_req", words /. float_of_int (Array.length failed));
        ]
      ~info:[ ("rounds", float_of_int (List.length ra), "count") ]
  | Some (ins, b) ->
    let merged = Rt.concat_ops (List.map (fun (r : Rt.round) -> r.ro) b) in
    let drains = Array.of_list (List.map (fun (r : Rt.round) -> ms_of_ns r.round_drain_ns) b) in
    outcome ~checks ~failed ~info:[]
      ~metrics:
        (setup_layers st
        @ Rt.layer_metrics ins merged
            ~idx:(List.init (Array.length merged.runs) Fun.id)
            ~lc:(fun _ -> true) ~drain_ms:(Stats.median drains) ~preemptions
        @ no_fleet
        @ [ overhead ~untraced:(all_latencies ra) ~traced:(all_latencies b) ])

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type workload = { name : string; run : ctx -> outcome }

let all =
  [
    { name = "sim-fig8"; run = sim_fig8 };
    { name = "sim-fleet-guard"; run = (fun ctx -> sim_fleet_guard ctx) };
    { name = "rt-open-lo"; run = rt_open ~rate:0.4 };
    { name = "rt-open-hi"; run = rt_open ~rate:0.8 };
    { name = "rt-batch"; run = (fun ctx -> rt_batch ctx) };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)
(* ------------------------------------------------------------------ *)

(* A short open-loop replay at 0.6x for workloads that run no real
   runtime, so every traced run reports the fiber_rt layer. *)
let rt_probe ~seed spans =
  let spec = rt_spec (Rt.open_text ~rate:0.6 ~dur_s:1.0 ~warmup_s:0.0 ~seed) in
  let items = Scenario.rt_schedule spec in
  let pool = rt_pool spec in
  let ins = Rt.instr spans in
  let r, preemptions =
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    let r = Rt.open_loop ~instr:ins pool items in
    (r, (Pool.stats pool).Pool.preemptions)
  in
  Rt.layer_metrics ins r.o
    ~idx:(List.init (Array.length items) Fun.id)
    ~lc:(fun i -> items.(i).Fiber_rt.Sched.lc)
    ~drain_ms:(ms_of_ns r.drain_ns) ~preemptions

(* Complete a traced outcome.  The workload's own per-layer metrics
   come first.  The probe simulation fills the simulator layers of
   workloads that simulate nothing (and guard/telemetry for those that
   run neither), the rt probe fills fiber_rt for workloads that run no
   real runtime, and the layer probes and trace counters always run.
   Returns the metrics with the source of each. *)
let complete_traced ~seed spans (o : outcome) =
  let on, off, wall, captured, same = Sims.probe_sim ~trace:spans ~seed () in
  let offered = float_of_int (max 1 on.offered) in
  let probe_sim =
    Sims.layer_metrics [ on; off ]
    @ Sims.exec_metrics ~jobs:2 ~wall [ on; off ]
    @ [
        ("guard.shed_frac", float_of_int on.shed /. offered);
        ("preemptible.telemetry_ticks", float_of_int on.ticks);
        ("preemptible.telemetry_overhead_frac", (on.host_s /. off.host_s) -. 1.0);
      ]
  in
  let rt =
    if List.mem_assoc "fiber_rt.poll_ns" o.metrics then [] else rt_probe ~seed spans
  in
  let probes = Probes.all ~trace:spans ~seed captured in
  let trace =
    [
      ("trace.dropped", float_of_int (Spans.dropped spans));
      ("trace.events", float_of_int (Spans.events spans));
    ]
  in
  let sourced =
    List.concat_map
      (fun (src, l) -> List.map (fun (k, v) -> (k, (v, src))) l)
      [
        ("workload", o.metrics);
        ("probe-sim", probe_sim);
        ("rt-probe", rt);
        ("layer-probe", probes);
        ("trace", trace);
      ]
  in
  (* [List.assoc] takes the first binding: the workload's own. *)
  let metrics =
    List.map
      (fun d ->
        match List.assoc_opt d.Schema.name sourced with
        | Some m -> (d.Schema.name, m)
        | None -> failwith ("traced run did not measure " ^ d.Schema.name))
      Schema.per_layer
  in
  let probe_check =
    if same then "probe simulation: latencies identical with telemetry on and off"
    else "FAILED: the probe simulation's latencies changed with telemetry off"
  in
  ( {
      o with
      attempted = o.attempted + 1;
      failed = (o.failed + if same then 0 else 1);
      checks = o.checks @ [ probe_check ];
      metrics = List.map (fun (k, (v, _)) -> (k, v)) metrics;
    },
    List.map (fun (k, (_, src)) -> (k, src)) metrics )

(* Peak resident set of this process, from /proc (Linux). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    let line = input_line ic in
    match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
    | Some kb -> float_of_int kb /. 1024.0
    | None -> find ()
  in
  find ()

let run_untraced (w : workload) ctx =
  let o = w.run ctx in
  { o with metrics = o.metrics @ [ ("peak_rss_mb", peak_rss_mb ()) ] }
