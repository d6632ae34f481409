(* The simulator workloads: the Fig 8 grid, a guarded fleet under a
   flash crowd, and the small probe simulation a traced run uses to
   exercise the layers a workload itself does not. *)

let spec_exn text =
  match Scenario.of_string text with
  | Ok s -> s
  | Error e -> invalid_arg ("benchmark: bad scenario: " ^ Scenario.error_to_string e)

(* ------------------------------------------------------------------ *)
(* One simulation, summarised                                          *)
(* ------------------------------------------------------------------ *)

type sim = {
  host_s : float;
  words : float;  (** minor words allocated by the task's domain *)
  events : int;
  offered : int;
  completed : int;
  cancelled : int;
  dropped : int;
  shed : int;
  interrupts : int;
  spurious : int;
  preemptions : int;
  busy_frac : float;
  ticks : int;  (** telemetry ticks, summed over servers *)
  stolen : int;
  imbalance : float;
  steps_ms : float array;
      (** host ms per simulated ms, from the fleet tick; empty for a
          single server *)
  pinned : (string * float) list;
      (** the numbers a default-seed run is checked against *)
}

let conserved s = s.offered = s.completed + s.cancelled + s.dropped + s.shed

(* Time [f] on the calling domain: host seconds and minor words.
   [Gc.minor_words] is per domain, so this must run inside the task. *)
let measured f =
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_s () in
  let r = f () in
  (r, Clock.now_s () -. t0, Gc.minor_words () -. w0)

let ticks_of (r : Preemptible.Server.result) =
  match r.Preemptible.Server.telemetry with
  | Some t -> t.Preemptible.Telemetry.t_ticks
  | None -> 0

let of_server ~host_s ~words ~pinned (r : Preemptible.Server.result) =
  {
    host_s;
    words;
    events = r.sim_events;
    offered = r.offered;
    completed = r.completed;
    cancelled = r.cancelled;
    dropped = r.dropped;
    shed = r.shed;
    interrupts = r.timer_interrupts;
    spurious = r.spurious_interrupts;
    preemptions = r.preemptions;
    busy_frac = r.worker_busy_frac;
    ticks = ticks_of r;
    stolen = 0;
    imbalance = 0.0;
    steps_ms = [||];
    pinned;
  }

(* Per-request and per-event ratios over a set of simulations — the
   sim-layer metrics of a traced run. *)
let layer_metrics sims =
  let sum f = List.fold_left (fun a s -> a + f s) 0 sims in
  let sumf f = List.fold_left (fun a s -> a +. f s) 0.0 sims in
  let offered = float_of_int (max 1 (sum (fun s -> s.offered))) in
  let events = sum (fun s -> s.events) in
  let n = float_of_int (max 1 (List.length sims)) in
  [
    ("engine.events", float_of_int events);
    ("engine.events_per_req", float_of_int events /. offered);
    ("engine.ns_per_event", sumf (fun s -> s.host_s) *. 1e9 /. float_of_int (max 1 events));
    ("utimer.interrupts_per_req", float_of_int (sum (fun s -> s.interrupts)) /. offered);
    ("utimer.spurious_per_req", float_of_int (sum (fun s -> s.spurious)) /. offered);
    ("preemptible.preemptions_per_req", float_of_int (sum (fun s -> s.preemptions)) /. offered);
    ("preemptible.busy_frac", sumf (fun s -> s.busy_frac) /. n);
  ]

(* Sweep-pool metrics: task times, and how busy [jobs] workers were
   over [wall] seconds. *)
let exec_metrics ~jobs ~wall sims =
  let ms = Array.of_list (List.map (fun s -> s.host_s *. 1e3) sims) in
  [
    ("exec.task_ms.p50", Stats.percentile ms 50.0);
    ("exec.task_ms.max", Stats.percentile ms 100.0);
    ("exec.busy_frac", Array.fold_left ( +. ) 0.0 ms /. 1e3 /. (float_of_int jobs *. wall));
  ]

(* ------------------------------------------------------------------ *)
(* Running simulations on a sweep pool until a deadline                *)
(* ------------------------------------------------------------------ *)

(* Op [k] is [task k].  Ops go through one [Exec.Pool] with at most
   [window] in flight; new ops are submitted while [continue k] holds.
   A window above the worker count keeps every worker busy when ops
   finish out of order, at the price of running past the deadline by
   up to [window] ops.  Results come back in op order, with an
   exception turned into [Error]. *)
let run_ops ?trace ~window pool ~continue task =
  let inflight = Queue.create () in
  let results = ref [] in
  let next = ref 0 in
  let submit k =
    Exec.Pool.submit pool (fun () ->
        Spans.span trace Obs.Trace.Exec "exec.task" ~track:(k + 1) (fun () ->
            match task k with r -> Ok r | exception e -> Error (Printexc.to_string e)))
  in
  let rec loop () =
    while Queue.length inflight < window && continue !next do
      Queue.push (submit !next) inflight;
      incr next
    done;
    if not (Queue.is_empty inflight) then begin
      results := Exec.Pool.await (Queue.pop inflight) :: !results;
      loop ()
    end
  in
  let t0 = Clock.now_s () in
  loop ();
  (Array.of_list (List.rev !results), Clock.now_s () -. t0)

(* ------------------------------------------------------------------ *)
(* sim-fig8                                                            *)
(* ------------------------------------------------------------------ *)

(* The Fig 8 systems, with the specs of the bench's Bench_util; the
   names are the labels BENCH_BASELINE.json uses. *)
let fig8_systems =
  [
    ( "LibPreemptible(adaptive)",
      "sys=lp; workers=4; window=10ms; quantum=adaptive:20us; \
       ctl={k1=2us;k2=10us;k3=8us;lhigh=0.95}" );
    ("LibPreemptible(no-UINTR)", "sys=lp-nouintr; workers=4; quantum=5us");
    ("Shinjuku(q=5us)", "sys=shinjuku; workers=5; quantum=5us");
    ("Libinger(q=20us)", "sys=libinger; workers=5; quantum=20us");
  ]

let fig8_dists =
  [ ("A1", Scenario.A1); ("A2", Scenario.A2); ("B", Scenario.B); ("C", Scenario.C) ]
let fig8_loads = [ 0.5; 0.7; 0.8; 0.85; 0.9; 0.95; 1.0; 1.05 ]
let fig8_duration_ns = 100_000_000
let fig8_warmup_ns = 20_000_000

type point = {
  wname : string;
  sys_name : string;
  load : float option;  (** [None]: the 0.1x SLO-reference run *)
  spec : Scenario.t;
}

let fig8_system_specs () = List.map (fun (name, text) -> (name, spec_exn text)) fig8_systems

(* The 144 simulations of the figure, in the bench's order: the 16
   SLO-reference runs, then workload x system x load.  Every point uses
   [seed], as the bench does with the scenario default 42. *)
let fig8_points ~seed systems =
  let at base dist load =
    let cap =
      Scenario.capacity_rps
        {
          Scenario.default with
          Scenario.src = Scenario.Dist (dist, Scenario.Lc);
          workers = 4;
          duration_ns = fig8_duration_ns;
        }
    in
    {
      base with
      Scenario.src = Scenario.Dist (dist, Scenario.Lc);
      arrival = Scenario.Poisson (Scenario.Abs (load *. cap));
      duration_ns = fig8_duration_ns;
      warmup_ns = fig8_warmup_ns;
      seed;
    }
  in
  let each f =
    List.concat_map (fun (w, d) -> List.concat_map (fun (n, b) -> f w d n b) systems) fig8_dists
  in
  let point w n load spec = { wname = w; sys_name = n; load; spec } in
  let refs = each (fun w d n b -> [ point w n None (at b d 0.1) ]) in
  let grid = each (fun w d n b -> List.map (fun l -> point w n (Some l) (at b d l)) fig8_loads) in
  Array.of_list (refs @ grid)

let fig8_run ?trace k (p : point) =
  let r, host_s, words =
    measured (fun () ->
        Spans.span trace Obs.Trace.Server "scenario.run_server" ~track:(k + 1) (fun () ->
            Scenario.run_server p.spec))
  in
  let a = r.Preemptible.Server.all in
  let pinned =
    match p.load with
    | None -> [ ("mean", a.Stat.Summary.mean) ]
    | Some _ ->
      [
        ("tput_rps", r.Preemptible.Server.throughput_rps);
        ("p50_us", a.Stat.Summary.p50 /. 1e3);
        ("p99_us", a.Stat.Summary.p99 /. 1e3);
        ("p999_us", a.Stat.Summary.p999 /. 1e3);
      ]
  in
  of_server ~host_s ~words ~pinned r

(* Op order: a fixed stride permutation of the grid, so any prefix of a
   second pass is a spread-out sample of the figure rather than its
   first workload — the per-op distribution then does not depend on
   how far a run got. *)
let fig8_stride = 37

let fig8_index n k = (k mod n * fig8_stride) mod n

(* The numbers BENCH_BASELINE.json pins, keyed by (fig, labels, metric),
   each rendered as the report prints it. *)
let render v = String.trim (Obs.Json.to_string (Obs.Json.Num v))

let load_label l = Printf.sprintf "%g" l

let baseline_table path =
  let open Obs.Json in
  let doc =
    match of_file path with
    | Ok d -> d
    | Error m -> failwith m
  in
  let tbl = Hashtbl.create 512 in
  let fig name =
    match Option.bind (member "figures" doc) (member name) with
    | Some (List pts) -> pts
    | _ -> failwith (Printf.sprintf "%s: no figures.%s" path name)
  in
  let str k o = Option.value (Option.bind (member k o) to_str) ~default:"" in
  let add figname with_load =
    List.iter
      (fun pt ->
        match (member "labels" pt, Option.bind (member "metrics" pt) to_obj) with
        | Some labels, Some metrics ->
          let load = if with_load then str "load" labels else "" in
          let key = (str "workload" labels, str "system" labels, load) in
          List.iter
            (fun (m, v) ->
              Option.iter (fun v -> Hashtbl.replace tbl (figname, key, m) (render v)) (to_num v))
            metrics
        | _ -> ())
      (fig figname)
  in
  add "fig8" true;
  add "fig8_summary" false;
  tbl

(* Check one pass of the figure (one result per point, in point order)
   against the baseline; returns the point indices that fail. *)
let fig8_mismatches tbl points results =
  let bad = Hashtbl.create 16 in
  let expect fig key m v idx =
    match Hashtbl.find_opt tbl (fig, key, m) with
    | Some s when s = render v -> ()
    | _ -> Hashtbl.replace bad idx ()
  in
  Array.iteri
    (fun i p ->
      match (p.load, results.(i)) with
      | Some l, Some s ->
        let key = (p.wname, p.sys_name, load_label l) in
        List.iter (fun (m, v) -> expect "fig8" key m v i) s.pinned
      | _ -> ())
    points;
  (* The summary: max throughput whose p99 <= 200x the reference mean
     and p99.9 <= 10x that, as bench_fig8 computes it. *)
  Array.iteri
    (fun i p ->
      match (p.load, results.(i)) with
      | None, Some ref_sim ->
        let slo = 200.0 *. List.assoc "mean" ref_sim.pinned in
        let best = ref 0.0 in
        Array.iteri
          (fun j q ->
            match (q.load, results.(j)) with
            | Some _, Some s when q.wname = p.wname && q.sys_name = p.sys_name ->
              let g m = List.assoc m s.pinned in
              if g "p99_us" *. 1e3 <= slo
                 && g "p999_us" *. 1e3 <= 10.0 *. slo
                 && g "tput_rps" > !best
              then best := g "tput_rps"
            | _ -> ())
          points;
        expect "fig8_summary" (p.wname, p.sys_name, "") "max_tput_rps" !best i
      | None, None -> Hashtbl.replace bad i ()
      | _ -> ())
    points;
  Hashtbl.fold (fun i () l -> i :: l) bad []

(* ------------------------------------------------------------------ *)
(* sim-fleet-guard                                                     *)
(* ------------------------------------------------------------------ *)

(* A 4-member fleet of 4-worker servers behind power-of-two-choices
   with work stealing, every member guarded (client timeout, expiry,
   bounded queue with CoDel shedding, brownout breaker) and running
   live telemetry.  The flash crowd peaks at 1.4x capacity, which the
   guard answers by shedding about a fifth of the offered load. *)
let fleet_text ~seed ~duration =
  Printf.sprintf
    "sys=lp; workers=4; quantum=5us; src=a1; \
     arrival=flash:0.7x:1.4x:20ms:10ms:40ms:10ms; dur=%s; warmup=10ms; seed=%d; \
     guard={timeout=200us;expire;shed={q=16;target=40us;interval=200us};brownout}; \
     fleet={n=4;lb=p2c;steal}"
    duration seed

type fleet_setup = {
  fspec : Scenario.t;
  config : Cluster.config;
  arrival : Workload.Arrival.t;
  source : Workload.Source.t;
}

let with_telemetry telemetry (c : Cluster.config) =
  {
    c with
    Cluster.members =
      Array.map
        (fun (m : Preemptible.Server.config) -> { m with Preemptible.Server.telemetry })
        c.members;
  }

(* Telemetry on every member, and a 1 ms fleet tick. *)
let fleet_spec ~seed ~duration =
  let fspec = spec_exn (fleet_text ~seed ~duration) in
  let config =
    { (with_telemetry (Some Preemptible.Telemetry.default) (Scenario.cluster_config fspec)) with
      Cluster.tick_ns = Some 1_000_000 }
  in
  (fspec, config)

let fleet_inputs (fspec, config) =
  {
    fspec;
    config;
    arrival = Scenario.arrival_process fspec;
    source = Scenario.source_sampler fspec;
  }

(* The fleet's 1 ms tick times each simulated millisecond from outside:
   the host time between ticks is what that millisecond cost. *)
let fleet_run ?trace ?(telemetry = true) k fs =
  let config = if telemetry then fs.config else with_telemetry None fs.config in
  let ticks = ref [] in
  let probes =
    { Cluster.no_probes with Cluster.on_tick = (fun _ -> ticks := Clock.now_s () :: !ticks) }
  in
  let t0 = Clock.now_s () in
  let r, host_s, words =
    measured (fun () ->
        Spans.span trace Obs.Trace.Server "cluster.run" ~track:(k + 1) (fun () ->
            Cluster.run ~probes ~warmup_ns:fs.fspec.Scenario.warmup_ns config
              ~arrival:fs.arrival ~source:fs.source ~duration_ns:fs.fspec.Scenario.duration_ns))
  in
  let stamps = Array.of_list (t0 :: List.rev !ticks) in
  let steps_ms =
    Array.init (Array.length stamps - 1) (fun i -> (stamps.(i + 1) -. stamps.(i)) *. 1e3)
  in
  let f = r.Cluster.fleet in
  let sum g = Array.fold_left (fun a s -> a + g s) 0 r.Cluster.per_server in
  let n = float_of_int (Array.length r.Cluster.per_server) in
  {
    host_s;
    words;
    events = f.Cluster.sim_events;
    offered = f.offered;
    completed = f.completed;
    cancelled = f.cancelled;
    dropped = f.dropped;
    shed = f.shed;
    interrupts = sum (fun s -> s.Preemptible.Server.timer_interrupts);
    spurious = sum (fun s -> s.Preemptible.Server.spurious_interrupts);
    preemptions = sum (fun s -> s.Preemptible.Server.preemptions);
    busy_frac =
      Array.fold_left (fun a s -> a +. s.Preemptible.Server.worker_busy_frac) 0.0 r.per_server
      /. n;
    ticks = sum ticks_of;
    stolen = f.stolen;
    imbalance = f.imbalance;
    steps_ms;
    pinned =
      [
        ("offered", float_of_int f.offered);
        ("completed", float_of_int f.completed);
        ("shed", float_of_int f.shed);
        ("goodput", float_of_int f.goodput);
        ("p50_us", f.p50_us);
        ("p99_us", f.p99_us);
        ("max_us", f.max_us);
        ("sim_events", float_of_int f.sim_events);
      ];
  }

(* The fingerprint file: one JSON object of the [pinned] numbers. *)
let fingerprint_text s =
  String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ render v) s.pinned)

let read_fingerprint path =
  match Obs.Json.of_file path with
  | Ok (Obs.Json.Obj kvs) ->
    List.filter_map (fun (k, v) -> Option.map (fun v -> (k, render v)) (Obs.Json.to_num v)) kvs
  | Ok _ -> failwith (path ^ ": expected a JSON object")
  | Error m -> failwith m

let fingerprint_matches expected s =
  List.length expected = List.length s.pinned
  && List.for_all (fun (k, v) -> List.assoc_opt k expected = Some (render v)) s.pinned

(* ------------------------------------------------------------------ *)
(* The probe simulation                                                *)
(* ------------------------------------------------------------------ *)

(* One short single-server run with every simulator layer on: the
   adaptive controller, the full guard stack and telemetry.  A traced
   run takes the inputs of the layer probes from it, and the
   simulator-layer metrics of workloads that run no simulation. *)
let probe_text ~seed =
  Printf.sprintf
    "sys=lp; workers=4; quantum=adaptive:20us; window=1ms; src=a1; \
     arrival=flash:0.7x:1.4x:10ms:5ms:20ms:5ms; dur=50ms; warmup=5ms; seed=%d; \
     guard={timeout=200us;expire;shed={q=16;target=40us;interval=200us};brownout}"
    seed

type captured = {
  latencies : float array;  (** completion latencies, ns *)
  snapshots : Preemptible.Stats_window.snapshot array;
  frames : (int * int) array;  (** (queue length, windowed p50 ns) per telemetry tick *)
  queue_depth : int;  (** the run's long-queue high-water mark *)
  guard : Guard.config;
  capacity_rps : float;
}

let probe_sim ?trace ~seed () =
  let spec = spec_exn (probe_text ~seed) in
  let lat = ref [] and snaps = ref [] and frames = ref [] in
  let probes =
    {
      Preemptible.Server.on_complete =
        (fun ~now:_ ~latency_ns ~cls:_ -> lat := float_of_int latency_ns :: !lat);
      on_window = (fun s ~quantum_ns:_ -> snaps := s :: !snaps);
      on_tick =
        (fun f ->
          let p50 = f.Preemptible.Telemetry.f_p50_ns in
          let p50 = if Float.is_nan p50 then 0 else int_of_float p50 in
          frames := (f.f_qlen, p50) :: !frames);
    }
  in
  let run ~probes telemetry =
    let cfg = { (Scenario.server_config spec) with Preemptible.Server.telemetry } in
    let r, host_s, words =
      measured (fun () ->
          Preemptible.Server.run ~probes ~warmup_ns:spec.Scenario.warmup_ns cfg
            ~arrival:(Scenario.arrival_process spec) ~source:(Scenario.source_sampler spec)
            ~duration_ns:spec.Scenario.duration_ns)
    in
    (r, of_server ~host_s ~words ~pinned:[] r)
  in
  (* The same run with telemetry on and off, side by side on a sweep
     pool; telemetry is passive, so the latencies must not move. *)
  let pool = Exec.Pool.create ~jobs:2 () in
  let ops, wall =
    Fun.protect
      ~finally:(fun () -> Exec.Pool.shutdown pool)
      (fun () ->
        run_ops ?trace ~window:2 pool
          ~continue:(fun k -> k < 2)
          (fun k ->
            if k = 0 then run ~probes (Some Preemptible.Telemetry.default)
            else run ~probes:Preemptible.Server.no_probes None))
  in
  let ok = function Ok r -> r | Error m -> failwith ("probe simulation: " ^ m) in
  let r_on, on = ok ops.(0) and r_off, off = ok ops.(1) in
  let same = r_on.Preemptible.Server.all = r_off.Preemptible.Server.all in
  let captured =
    {
      latencies = Array.of_list (List.rev !lat);
      snapshots = Array.of_list (List.rev !snaps);
      frames = Array.of_list (List.rev !frames);
      queue_depth = r_on.Preemptible.Server.long_queue_hwm;
      guard = Option.get (Scenario.guard_config spec);
      capacity_rps = Scenario.capacity_rps spec;
    }
  in
  (on, off, wall, captured, same)
