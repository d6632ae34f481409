(* Tests for lib/scenario: the parse/print round-trip (qcheck over
   generated specs), positioned rejection of malformed input, default
   handling, lowering semantics, and the fig8 spec-equivalence pin
   (a DSL-built configuration reproduces the hand-built one). *)

open Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let spec_of_string s =
  match Scenario.of_string s with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "parse failed: %s" (Scenario.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Generators: floats are drawn from short-decimal sets so every value
   survives printing (the printer is exact for any float, but readable
   specs are the interesting test surface).                            *)
(* ------------------------------------------------------------------ *)

module Gen = struct
  open QCheck.Gen

  let nice_float = map (fun k -> float_of_int k /. 100.) (int_range 1 400)
  let fraction = map (fun k -> float_of_int k /. 100.) (int_range 1 99)
  let time = oneofl [ 500; 3_000; 5_000; 40_000; 200_000; 2_000_000; 50_000_000 ]
  let small_time = oneofl [ 1_000; 5_000; 20_000; 100_000 ]

  let rate =
    oneof
      [
        map (fun f -> Scenario.Abs (float_of_int f)) (int_range 1_000 2_000_000);
        map (fun f -> Scenario.Load f) nice_float;
      ]

  let dist =
    oneof
      [
        oneofl [ Scenario.A1; A2; B; C ];
        map (fun t -> Scenario.Const t) small_time;
        map (fun t -> Scenario.Exp t) small_time;
        map3
          (fun s l f -> Scenario.Bimodal { short_ns = s; long_ns = l; long_fraction = f })
          small_time time fraction;
        map2 (fun m sd -> Scenario.Lognormal { mean_ns = m; std_ns = sd }) small_time small_time;
        map2 (fun s sh -> Scenario.Pareto { scale_ns = s; shape = sh +. 1.1 }) small_time fraction;
      ]

  let cls = oneofl [ Scenario.Lc; Scenario.Be ]

  let source =
    let base = oneof [ map2 (fun d c -> Scenario.Dist (d, c)) dist cls; oneofl [ Scenario.Mica; Scenario.Zlib ] ] in
    oneof
      [
        base;
        map (fun items -> Scenario.Mix items) (list_size (int_range 1 3) (pair nice_float base));
        map2
          (fun theta tenants -> Scenario.Tenants { theta; tenants })
          fraction
          (list_size (int_range 1 4) base);
      ]

  let arrival =
    let leaf =
      oneof
        [
          map (fun r -> Scenario.Poisson r) rate;
          map (fun r -> Scenario.Uniform r) rate;
          map3
            (fun b s (p, f) ->
              Scenario.Bursty { base = b; spike = s; period_ns = p; spike_fraction = f })
            rate rate (pair time fraction);
          map3
            (fun b p (st, (rm, (h, d))) ->
              Scenario.Flash
                { base = b; peak = p; start_ns = st; ramp_ns = rm; hold_ns = h; decay_ns = d })
            rate rate
            (pair time (pair time (pair time time)));
          map3
            (fun b a p -> Scenario.Diurnal { base = b; amplitude = a; period_ns = p })
            rate fraction time;
          map3
            (fun rs h sd ->
              Scenario.Mmpp { rates = rs; mean_hold_ns = h; seed = Int64.of_int sd })
            (list_size (int_range 2 4) rate)
            time (int_range 0 1000);
        ]
    in
    oneof
      [
        leaf;
        map
          (fun segs ->
            let segs =
              List.mapi (fun i (t, a) -> (((i + 1) * 10_000_000) + t, a)) segs
            in
            Scenario.Piecewise segs)
          (list_size (int_range 1 3) (pair time leaf));
      ]

  let ctl =
    let d = Preemptible.Quantum_controller.default_config in
    map3
      (fun k1 (k2, k3) (lh, ll) ->
        { d with Preemptible.Quantum_controller.k1_ns = k1; k2_ns = k2; k3_ns = k3; l_high_fraction = lh; l_low_fraction = ll /. 10. })
      small_time (pair small_time small_time) (pair fraction fraction)

  let quantum =
    oneof
      [
        return Scenario.No_preempt;
        map (fun t -> Scenario.Fixed t) small_time;
        map2
          (fun init ctl -> Scenario.Adaptive { init_ns = init; ctl })
          small_time ctl;
        return
          (Scenario.Adaptive
             {
               init_ns = Scenario.default_adaptive_init_ns;
               ctl = Preemptible.Quantum_controller.default_config;
             });
      ]

  let bucket = map2 (fun r b -> { Scenario.b_rate = r; b_burst = float_of_int b }) rate (int_range 1 100)

  let guard =
    let shed =
      map3
        (fun q t i ->
          { Guard.max_queue = q; codel_target_ns = t; codel_interval_ns = i })
        (int_range 4 512) time time
    in
    let retry =
      map3
        (fun a (b, m) budget ->
          {
            Scenario.r_attempts = a;
            r_backoff_ns = b;
            r_max_backoff_ns = b + m;
            r_jitter = 0.5;
            r_budget = budget;
          })
        (int_range 1 6)
        (pair small_time small_time)
        (option bucket)
    in
    let brownout =
      map3
        (fun p99 q (t, r) ->
          {
            Guard.default_brownout with
            Guard.p99_trip_ns = p99;
            qlen_trip = q;
            trip_windows = t;
            recover_windows = r;
          })
        time (int_range 16 1024)
        (pair (int_range 1 5) (int_range 1 5))
    in
    map3
      (fun timeout (expire, shed) (retry, brownout) ->
        {
          Scenario.g_timeout_ns = timeout;
          g_drop_expired = (expire : bool) && timeout <> None;
          g_shed = shed;
          g_bucket = None;
          g_lc_bucket = None;
          g_be_bucket = None;
          g_retry = (if timeout = None then None else retry);
          g_brownout = brownout;
        })
      (option time)
      (pair bool (option (oneof [ return Guard.default_shed; shed ])))
      (pair (option retry) (option (oneof [ return Guard.default_brownout; brownout ])))

  let fleet =
    map3
      (fun n lb (steal, hetero) ->
        {
          Scenario.f_n = n;
          f_lb = lb;
          f_steal = steal;
          f_workers = (if hetero then Some (List.init n (fun i -> 1 + (i mod 3))) else None);
        })
      (int_range 1 6)
      (oneofl [ Cluster.Random; Cluster.Round_robin; Cluster.Least_loaded; Cluster.Power_of_two ])
      (pair
         (option
            (oneof
               [
                 return Cluster.default_steal;
                 map (fun i -> { Cluster.interval_ns = i; threshold = 4; batch = 2 }) time;
               ]))
         bool)

  let spec =
    let open Scenario in
    map3
      (fun (system, workers, quantum) (src, arrival, (dur, warmup)) (extras : t -> t) ->
        extras
          {
            default with
            system;
            workers;
            quantum;
            src;
            arrival;
            duration_ns = dur;
            warmup_ns = warmup;
          })
      (triple
         (oneofl [ Lp; Lp_nouintr; Shinjuku; Libinger; Nopreempt; Go ])
         (int_range 1 8) quantum)
      (triple source arrival (pair (oneofl [ 10_000_000; 50_000_000; 100_000_000 ]) (oneofl [ 0; 2_000_000 ])))
      (map3
         (fun (name, seed) (window, dispatch) (g, (f, (disc, fl))) spec ->
           {
             spec with
             name;
             seed = Int64.of_int seed;
             window_ns = window;
             dispatch_ns = dispatch;
             guard = g;
             faults = f;
             discipline = disc;
             fleet = fl;
           })
         (pair (option (oneofl [ "fig8"; "tail-attack"; "x1.v2" ])) (int_range 0 100))
         (pair (option small_time) (option (oneofl [ 50; 250 ])))
         (pair (option guard)
            (pair
               (option (oneofl [ "uipi.drop=p:0.01"; "guard.trip=win:1000000-2000000:1" ]))
               (pair (option (oneofl [ Fifo; Srpt; Edf 200_000 ])) (option fleet)))))

  (* Keep only specs the pretty-printer/parser contract covers; the
     printer itself accepts anything. *)
  let spec = spec
end

let arb_spec = QCheck.make ~print:Scenario.to_string Gen.spec

(* ------------------------------------------------------------------ *)
(* Round-trip and printing                                             *)
(* ------------------------------------------------------------------ *)

let roundtrip_test =
  QCheck.Test.make ~name:"scenario: parse (print s) = s" ~count:500 arb_spec
    (fun spec ->
      match Scenario.of_string (Scenario.to_string spec) with
      | Ok spec' ->
        if spec' = spec then true
        else
          QCheck.Test.fail_reportf "printed %S@.reparsed %S"
            (Scenario.to_string spec) (Scenario.to_string spec')
      | Error e ->
        QCheck.Test.fail_reportf "printed %S@.parse error: %s"
          (Scenario.to_string spec) (Scenario.error_to_string e))

let override_roundtrip_test =
  QCheck.Test.make ~name:"scenario: override with own print is identity" ~count:200
    arb_spec (fun spec ->
      match Scenario.override spec (Scenario.to_string spec) with
      | Ok spec' -> spec' = spec
      | Error e -> QCheck.Test.fail_report (Scenario.error_to_string e))

let test_default_prints_empty () =
  check_string "default is all-defaults" "" (Scenario.to_string Scenario.default);
  let spec = spec_of_string "" in
  check_bool "empty parses to default" true (spec = Scenario.default)

let test_canonical_examples () =
  (* A couple of pinned surface forms so the canonical syntax cannot
     silently drift. *)
  let s = spec_of_string "sys=shinjuku;workers=5;quantum=10us" in
  check_string "canon" "sys=shinjuku;workers=5;quantum=10us" (Scenario.to_string s);
  let s = spec_of_string "quantum=adaptive;ctl={k1=2us;lhigh=0.95}" in
  (match s.Scenario.quantum with
  | Scenario.Adaptive { ctl; _ } ->
    check_int "k1" 2_000 ctl.Preemptible.Quantum_controller.k1_ns;
    Alcotest.(check (float 0.)) "lhigh" 0.95 ctl.Preemptible.Quantum_controller.l_high_fraction
  | _ -> Alcotest.fail "expected adaptive");
  let s =
    spec_of_string
      "src=mix(0.98*mica,0.02*zlib);arrival=poisson:55k;dur=300ms;warmup=20ms"
  in
  check_string "mix canon"
    "src=mix(0.98*mica,0.02*zlib);arrival=poisson:55000;dur=300ms;warmup=20ms"
    (Scenario.to_string s)

let test_comments_and_newlines () =
  let s =
    spec_of_string
      "# adaptive under flash crowd\nsys=lp; workers=4 # trailing\nquantum=adaptive\n\ndur=10ms"
  in
  check_int "workers" 4 s.Scenario.workers;
  check_int "dur" 10_000_000 s.Scenario.duration_ns;
  check_bool "adaptive" true
    (match s.Scenario.quantum with Scenario.Adaptive _ -> true | _ -> false)

let test_multiline_blocks () =
  let s =
    spec_of_string
      "guard={\n  timeout=200us\n  expire\n  shed={q=24;target=40us;interval=200us}\n}"
  in
  match s.Scenario.guard with
  | Some g ->
    check_bool "timeout" true (g.Scenario.g_timeout_ns = Some 200_000);
    check_bool "expire" true g.Scenario.g_drop_expired;
    (match g.Scenario.g_shed with
    | Some sh -> check_int "q" 24 sh.Guard.max_queue
    | None -> Alcotest.fail "expected shed")
  | None -> Alcotest.fail "expected guard"

(* ------------------------------------------------------------------ *)
(* Rejection: errors carry the offending field and a sane position     *)
(* ------------------------------------------------------------------ *)

let expect_error field text =
  match Scenario.of_string text with
  | Ok _ -> Alcotest.failf "expected %S to be rejected" text
  | Error e ->
    check_string (Printf.sprintf "field for %S" text) field e.Scenario.field;
    check_bool
      (Printf.sprintf "pos %d in range for %S" e.Scenario.pos text)
      true
      (e.Scenario.pos >= 0 && e.Scenario.pos <= String.length text);
    e

let test_errors_name_field () =
  ignore (expect_error "bogus" "bogus=1");
  ignore (expect_error "src" "src=a3");
  ignore (expect_error "arrival" "arrival=poison:1k");
  ignore (expect_error "quantum" "quantum=fast");
  ignore (expect_error "workers" "workers=many");
  ignore (expect_error "seed" "sys=lp;seed=abc");
  ignore (expect_error "dur" "dur=10");
  ignore (expect_error "ctl" "ctl={k1=2us}");
  ignore (expect_error "ctl" "quantum=adaptive;ctl={k9=2us}");
  ignore (expect_error "guard" "guard={timeout=200us;frobnicate=1}");
  ignore (expect_error "faults" "faults={uipi.drop=sometimes}");
  ignore (expect_error "fleet" "fleet={lb=p2c}");
  ignore (expect_error "fleet" "fleet={n=2;lb=magic}");
  ignore (expect_error "scenario" "guard={timeout=1us");
  (* An unreadable path (here a directory) is an Error; of_file never raises. *)
  match Scenario.of_file Filename.current_dir_name with
  | Ok _ -> Alcotest.fail "a directory must not parse as a scenario"
  | Error e -> check_string "field for a directory" "file" e.Scenario.field

let test_error_positions_point_at_token () =
  let e = expect_error "src" "sys=lp;src=a3;dur=10ms" in
  check_int "src value offset" (String.index "sys=lp;src=a3;dur=10ms" 'a') e.Scenario.pos;
  let e = expect_error "workers" "workers=many" in
  check_int "workers value offset" 8 e.Scenario.pos

(* ------------------------------------------------------------------ *)
(* Semantics                                                           *)
(* ------------------------------------------------------------------ *)

let test_capacity_and_rates () =
  (* workload B: mean 5us, 4 workers -> 800k rps capacity. *)
  let s = spec_of_string "src=b;workers=4" in
  Alcotest.(check (float 1.0)) "capacity" 800_000.0 (Scenario.capacity_rps s);
  Alcotest.(check (float 1.0)) "relative rate" 400_000.0
    (Scenario.rate_rps s (Scenario.Load 0.5));
  Alcotest.(check (float 0.)) "absolute rate" 123.0
    (Scenario.rate_rps s (Scenario.Abs 123.0));
  (* capref overrides the worker count the x-rates refer to. *)
  let s = spec_of_string "src=b;workers=4;capref=8" in
  Alcotest.(check (float 1.0)) "capref capacity" 1_600_000.0 (Scenario.capacity_rps s);
  (* fleet capacity spans all members. *)
  let s = spec_of_string "src=b;workers=2;fleet={n=4}" in
  Alcotest.(check (float 1.0)) "fleet capacity" 1_600_000.0 (Scenario.capacity_rps s)

let test_validate () =
  let ok s = check_bool s true (Scenario.validate (spec_of_string s) = Ok ()) in
  let bad s =
    check_bool s true
      (match Scenario.validate (spec_of_string s) with Error _ -> true | Ok () -> false)
  in
  ok "sys=lp;quantum=adaptive";
  ok "sys=shinjuku;workers=5;quantum=10us";
  ok "sys=lp;fleet={n=2;lb=p2c}";
  bad "sys=shinjuku;quantum=adaptive";
  bad "sys=shinjuku;guard={timeout=1ms}";
  bad "sys=go;fleet={n=2}";
  bad "sys=lp;fleet={n=3;workers=1/2}";
  bad "src=mica;arrival=poisson:0.5x";
  (* Checks the simulators would otherwise raise on mid-run. *)
  bad "dur=0ms";
  bad "dur=10ms;warmup=20ms";
  bad "guard={retry}";
  bad "fleet={n=2;steal};guard={timeout=100us;retry}";
  bad "workers=0;arrival=poisson:1000";
  bad "fleet={n=2;workers=0/1};arrival=poisson:1000";
  bad "window=0ns";
  bad "sys=libinger;quantum=0us";
  ok "src=mica;arrival=poisson:100k"

let test_run_server_smoke () =
  let s = spec_of_string "src=b;workers=2;arrival=poisson:0.4x;dur=5ms;seed=3" in
  let r = Scenario.run_server s in
  check_bool "completed" true (r.Preemptible.Server.completed > 0);
  (* Same spec, same results: lowering is deterministic. *)
  let r' = Scenario.run_server (spec_of_string (Scenario.to_string s)) in
  check_int "deterministic" r.Preemptible.Server.completed r'.Preemptible.Server.completed

let test_run_fleet_smoke () =
  let s =
    spec_of_string "src=b;workers=2;fleet={n=2;lb=p2c};arrival=poisson:0.5x;dur=5ms"
  in
  match Scenario.run s with
  | Scenario.Fleet r ->
    check_int "servers" 2 r.Cluster.fleet.Cluster.servers;
    check_bool "completed" true (r.Cluster.fleet.Cluster.completed > 0)
  | Scenario.Server _ -> Alcotest.fail "expected a fleet outcome"

(* The satellite pin: a DSL-built fig8 point equals the hand-built
   configuration (Bench_util's construction, inlined here) on every
   observable of a short run. *)
let test_fig8_spec_equivalence () =
  let dist = Workload.Service_dist.workload_a1 in
  let duration_ns = Units.ms 20 in
  let warmup_ns = Units.ms 4 in
  let rate = 0.5 *. (4.0 *. 1e9 /. Workload.Service_dist.mean_ns dist ~now:0) in
  (* Hand-built: Bench_util.libpreemptible ~adaptive:true. *)
  let hand =
    let max_load =
      let mean = Workload.Service_dist.mean_ns dist ~now:0 in
      4.0 *. 1e9 /. mean
    in
    let policy =
      Preemptible.Policy.adaptive
        (Preemptible.Quantum_controller.create
           ~config:
             {
               Preemptible.Quantum_controller.default_config with
               Preemptible.Quantum_controller.k1_ns = Units.us 2;
               k2_ns = Units.us 10;
               k3_ns = Units.us 8;
               l_high_fraction = 0.95;
             }
           ~max_load_per_s:max_load ~initial_quantum_ns:(Units.us 20) ())
    in
    let cfg =
      Preemptible.Server.default_config ~n_workers:4 ~policy
        ~mechanism:(Preemptible.Server.Uintr_utimer Utimer.default_config)
    in
    let cfg = { cfg with Preemptible.Server.stats_window_ns = Units.ms 10 } in
    Preemptible.Server.run ~warmup_ns cfg
      ~arrival:(Workload.Arrival.poisson ~rate_per_sec:rate)
      ~source:(Workload.Source.of_dist dist ~cls:Workload.Request.Latency_critical)
      ~duration_ns
  in
  (* DSL-built: the same point through the scenario layer.  The rate is
     an arbitrary float, so it rides in as a symbolic Abs rate exactly
     as the benches pass their sweep points. *)
  let spec =
    {
      (spec_of_string
         "sys=lp;workers=4;quantum=adaptive;ctl={k1=2us;k2=10us;k3=8us;lhigh=0.95};src=a1;dur=20ms;warmup=4ms;window=10ms")
      with
      Scenario.arrival = Scenario.Poisson (Scenario.Abs rate);
    }
  in
  let dsl = Scenario.run_server spec in
  check_int "completed" hand.Preemptible.Server.completed dsl.Preemptible.Server.completed;
  check_int "preemptions" hand.Preemptible.Server.preemptions dsl.Preemptible.Server.preemptions;
  check_int "sim_events" hand.Preemptible.Server.sim_events dsl.Preemptible.Server.sim_events;
  Alcotest.(check (float 0.)) "p99" hand.Preemptible.Server.all.Stat.Summary.p99
    dsl.Preemptible.Server.all.Stat.Summary.p99

let suites =
  [
    ( "scenario",
      [
        QCheck_alcotest.to_alcotest roundtrip_test;
        QCheck_alcotest.to_alcotest override_roundtrip_test;
        Alcotest.test_case "default prints empty" `Quick test_default_prints_empty;
        Alcotest.test_case "canonical examples" `Quick test_canonical_examples;
        Alcotest.test_case "comments and newlines" `Quick test_comments_and_newlines;
        Alcotest.test_case "multiline blocks" `Quick test_multiline_blocks;
        Alcotest.test_case "errors name the field" `Quick test_errors_name_field;
        Alcotest.test_case "error positions" `Quick test_error_positions_point_at_token;
        Alcotest.test_case "capacity and rates" `Quick test_capacity_and_rates;
        Alcotest.test_case "validate" `Quick test_validate;
        Alcotest.test_case "run server smoke" `Quick test_run_server_smoke;
        Alcotest.test_case "run fleet smoke" `Quick test_run_fleet_smoke;
        Alcotest.test_case "fig8 spec equivalence" `Quick test_fig8_spec_equivalence;
      ] );
  ]
