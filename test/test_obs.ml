(* The observability layer: trace ring semantics, category filtering,
   metrics registry, exporters, the per-request latency breakdown, and
   the no-perturbation guarantee (traced = untraced, bit for bit). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let manual_trace ?(capacity = 64) ?(cats = Obs.Trace.all_cats) () =
  let now = ref 0 in
  let t =
    Obs.Trace.create ~config:{ Obs.Trace.capacity; categories = cats }
      ~clock:(fun () -> !now)
      ()
  in
  (t, now)

(* ------------------------------------------------------------------ *)
(* Ring semantics                                                      *)
(* ------------------------------------------------------------------ *)

let test_ring_wraparound () =
  let t, now = manual_trace ~capacity:4 () in
  for i = 1 to 6 do
    now := i;
    Obs.Trace.instant t Obs.Trace.Uipi ~name:"e" ~track:i ~arg:(10 * i)
  done;
  check_int "recorded" 6 (Obs.Trace.recorded t);
  check_int "dropped" 2 (Obs.Trace.dropped t);
  check_int "length" 4 (Obs.Trace.length t);
  check_int "capacity" 4 (Obs.Trace.capacity t);
  let ts = List.map (fun e -> e.Obs.Trace.ts) (Obs.Trace.to_list t) in
  Alcotest.(check (list int)) "oldest evicted, order kept" [ 3; 4; 5; 6 ] ts;
  Obs.Trace.clear t;
  check_int "clear empties" 0 (Obs.Trace.length t);
  check_int "clear zeroes recorded" 0 (Obs.Trace.recorded t);
  check_int "clear zeroes dropped" 0 (Obs.Trace.dropped t)

let test_category_filter () =
  let t, now = manual_trace ~cats:[ Obs.Trace.Uipi ] () in
  now := 5;
  Obs.Trace.instant t Obs.Trace.Uipi ~name:"in" ~track:0 ~arg:0;
  Obs.Trace.instant t Obs.Trace.Sched ~name:"out" ~track:0 ~arg:0;
  check_int "disabled cat not recorded" 1 (Obs.Trace.recorded t);
  check_bool "uipi enabled" true (Obs.Trace.enabled t Obs.Trace.Uipi);
  check_bool "sched disabled" false (Obs.Trace.enabled t Obs.Trace.Sched);
  Obs.Trace.set_categories t [ Obs.Trace.Sched ];
  Obs.Trace.instant t Obs.Trace.Uipi ~name:"out2" ~track:0 ~arg:0;
  Obs.Trace.instant t Obs.Trace.Sched ~name:"in2" ~track:0 ~arg:0;
  check_int "switchable at runtime" 2 (Obs.Trace.recorded t);
  let names = List.map (fun e -> e.Obs.Trace.name) (Obs.Trace.to_list t) in
  Alcotest.(check (list string)) "only enabled survive" [ "in"; "in2" ] names

let test_cat_of_string () =
  check_bool "case-insensitive" true (Obs.Trace.cat_of_string "UIPI" = Ok Obs.Trace.Uipi);
  check_bool "exact" true (Obs.Trace.cat_of_string "request" = Ok Obs.Trace.Request);
  (match Obs.Trace.cat_of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus category parsed"
  | Error m ->
    check_bool "error names the valid set" true (Astring_contains.contains m "uipi"));
  check_bool "bad capacity rejected" true
    (try
       ignore
         (Obs.Trace.create
            ~config:{ Obs.Trace.capacity = 0; categories = [] }
            ~clock:(fun () -> 0)
            ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_metrics_registry () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "reqs" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  check_int "counter accumulates" 5 (Obs.Metrics.value c);
  check_int "counter handle shared by name" 5 (Obs.Metrics.value (Obs.Metrics.counter m "reqs"));
  Obs.Metrics.gauge m "depth" (fun () -> 42);
  ignore (Obs.Metrics.histogram m "empty");
  Obs.Metrics.observe (Obs.Metrics.histogram m "lat") 1.0;
  Obs.Metrics.observe (Obs.Metrics.histogram m "lat") 2.0;
  let snap = Obs.Metrics.snapshot m in
  check_bool "sorted by name" true
    (List.map fst snap = List.sort compare (List.map fst snap));
  (match Obs.Metrics.find snap "reqs" with
  | Some (Obs.Metrics.Counter 5) -> ()
  | _ -> Alcotest.fail "counter missing from snapshot");
  (match Obs.Metrics.find snap "depth" with
  | Some (Obs.Metrics.Gauge 42) -> ()
  | _ -> Alcotest.fail "gauge missing from snapshot");
  check_bool "empty histogram omitted" true (Obs.Metrics.find snap "empty" = None);
  match Obs.Metrics.find snap "lat" with
  | Some (Obs.Metrics.Histogram r) -> check_int "histogram count" 2 r.Stat.Summary.count
  | _ -> Alcotest.fail "histogram missing from snapshot"

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let golden_events t now =
  now := 1000;
  Obs.Trace.span_begin t Obs.Trace.Sched ~name:"quantum" ~track:1 ~arg:5000;
  now := 1500;
  Obs.Trace.instant t Obs.Trace.Uipi ~name:"uipi.send" ~track:2 ~arg:3;
  now := 2000;
  Obs.Trace.counter t Obs.Trace.Server ~name:"qlen" ~value:7;
  now := 2500;
  Obs.Trace.span_end t Obs.Trace.Sched ~name:"quantum" ~track:1

let test_perfetto_golden () =
  let t, now = manual_trace () in
  golden_events t now;
  let expected =
    String.concat ""
      [
        "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
        "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":4,\"args\":{\"name\":\"sched\"}},";
        "\n{\"name\":\"quantum\",\"cat\":\"sched\",\"ph\":\"B\",\"ts\":1.000,\"pid\":4,\"tid\":1,\"args\":{\"arg\":5000}},";
        "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"uipi\"}},";
        "\n{\"name\":\"uipi.send\",\"cat\":\"uipi\",\"ph\":\"i\",\"s\":\"t\",\"ts\":1.500,\"pid\":1,\"tid\":2,\"args\":{\"arg\":3}},";
        "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":5,\"args\":{\"name\":\"server\"}},";
        "\n{\"name\":\"qlen\",\"cat\":\"server\",\"ph\":\"C\",\"ts\":2.000,\"pid\":5,\"tid\":0,\"args\":{\"qlen\":7}},";
        "\n{\"name\":\"quantum\",\"cat\":\"sched\",\"ph\":\"E\",\"ts\":2.500,\"pid\":4,\"tid\":1}";
        "\n]}\n";
      ]
  in
  check_string "perfetto golden" expected (Obs.Export.perfetto t)

let test_csv_export () =
  let t, now = manual_trace () in
  golden_events t now;
  let csv = Obs.Export.csv t in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  check_string "header" "ts_ns,kind,cat,name,track,arg" (List.hd lines);
  check_int "one row per event" 5 (List.length lines);
  check_bool "instant row" true
    (List.mem "1500,I,uipi,uipi.send,2,3" lines);
  check_bool "counter row" true (List.mem "2000,C,server,qlen,0,7" lines)

(* ------------------------------------------------------------------ *)
(* Traced server runs                                                  *)
(* ------------------------------------------------------------------ *)

let traced_cfg ?(capacity = 1 lsl 20) ?(cats = Obs.Trace.all_cats) ~seed ~quantum_ns () =
  let cfg =
    Preemptible.Server.default_config ~n_workers:4
      ~policy:(Preemptible.Policy.fcfs_preempt ~quantum_ns)
      ~mechanism:(Preemptible.Server.Uintr_utimer Utimer.default_config)
  in
  { cfg with Preemptible.Server.seed; trace = Some { Obs.Trace.capacity; categories = cats } }

let run_traced ?capacity ?cats ?(seed = 42L) ?(quantum_ns = 5_000) ?(rate = 300_000.0)
    ?(duration_ms = 20) () =
  Preemptible.Server.run
    (traced_cfg ?capacity ?cats ~seed ~quantum_ns ())
    ~arrival:(Workload.Arrival.poisson ~rate_per_sec:rate)
    ~source:
      (Workload.Source.of_dist Workload.Service_dist.workload_a1
         ~cls:Workload.Request.Latency_critical)
    ~duration_ns:(duration_ms * 1_000_000)

let the_trace (r : Preemptible.Server.result) =
  match r.Preemptible.Server.trace with
  | Some t -> t
  | None -> Alcotest.fail "traced run returned no trace"

(* Every Sched "quantum" span on every worker track must strictly
   alternate B/E — under preemption interleavings the segments of
   different requests on one core may never overlap. *)
let test_span_pairing_under_preemption () =
  let r = run_traced ~quantum_ns:2_000 () in
  check_bool "run preempts" true (r.Preemptible.Server.preemptions > 0);
  let depth = Hashtbl.create 8 in
  let begins = ref 0 and ends = ref 0 in
  Obs.Trace.iter (the_trace r) (fun e ->
      if e.Obs.Trace.cat = Obs.Trace.Sched && e.Obs.Trace.name = "quantum" then begin
        let d = Option.value ~default:0 (Hashtbl.find_opt depth e.Obs.Trace.track) in
        match e.Obs.Trace.kind with
        | Obs.Trace.Span_begin ->
          incr begins;
          if d <> 0 then Alcotest.failf "nested quantum span on worker %d" e.Obs.Trace.track;
          Hashtbl.replace depth e.Obs.Trace.track 1
        | Obs.Trace.Span_end ->
          incr ends;
          if d <> 1 then Alcotest.failf "unmatched span end on worker %d" e.Obs.Trace.track;
          Hashtbl.replace depth e.Obs.Trace.track 0
        | _ -> ()
      end);
  check_bool "spans exist" true (!begins > 0);
  check_int "begin/end balanced" !begins !ends;
  Hashtbl.iter (fun w d -> if d <> 0 then Alcotest.failf "open span on worker %d" w) depth;
  (* Each completed request ran [preemptions + completions] segments. *)
  check_int "segments = completions + preemptions"
    (r.Preemptible.Server.completed + r.Preemptible.Server.preemptions)
    !begins

let test_breakdown_complete_run () =
  let r = run_traced () in
  let bd = Obs.Breakdown.of_trace (the_trace r) in
  check_int "every completion broken down" r.Preemptible.Server.completed bd.Obs.Breakdown.complete;
  check_int "nothing incomplete" 0 bd.Obs.Breakdown.incomplete;
  check_bool "components telescope" true (Obs.Breakdown.sums_ok bd)

let test_breakdown_survives_wraparound () =
  let r = run_traced ~capacity:2048 () in
  let t = the_trace r in
  check_bool "ring wrapped" true (Obs.Trace.dropped t > 0);
  let bd = Obs.Breakdown.of_trace t in
  check_bool "some lifecycles evicted" true
    (bd.Obs.Breakdown.complete < r.Preemptible.Server.completed);
  check_bool "survivors exist" true (bd.Obs.Breakdown.complete > 0);
  check_bool "survivors still telescope" true (Obs.Breakdown.sums_ok bd)

(* The tentpole determinism guarantee: switching tracing on changes no
   simulation outcome whatsoever. *)
let test_tracing_is_passive () =
  let untraced_cfg =
    let cfg = traced_cfg ~seed:42L ~quantum_ns:5_000 () in
    { cfg with Preemptible.Server.trace = None }
  in
  let run cfg =
    Preemptible.Server.run cfg
      ~arrival:(Workload.Arrival.poisson ~rate_per_sec:300_000.0)
      ~source:
        (Workload.Source.of_dist Workload.Service_dist.workload_a1
           ~cls:Workload.Request.Latency_critical)
      ~duration_ns:20_000_000
  in
  let a = run (traced_cfg ~seed:42L ~quantum_ns:5_000 ()) in
  let b = run untraced_cfg in
  check_int "completed" b.Preemptible.Server.completed a.Preemptible.Server.completed;
  check_int "preemptions" b.Preemptible.Server.preemptions a.Preemptible.Server.preemptions;
  check_int "timer interrupts" b.Preemptible.Server.timer_interrupts
    a.Preemptible.Server.timer_interrupts;
  Alcotest.(check (float 0.0))
    "mean latency" b.Preemptible.Server.all.Stat.Summary.mean
    a.Preemptible.Server.all.Stat.Summary.mean;
  Alcotest.(check (float 0.0))
    "p99 latency" b.Preemptible.Server.all.Stat.Summary.p99
    a.Preemptible.Server.all.Stat.Summary.p99

let test_result_metrics () =
  let r = run_traced () in
  let snap = r.Preemptible.Server.metrics in
  (match Obs.Metrics.find snap "requests.completed" with
  | Some (Obs.Metrics.Counter n) -> check_int "completed counter" r.Preemptible.Server.completed n
  | _ -> Alcotest.fail "requests.completed missing");
  (match Obs.Metrics.find snap "preemptions" with
  | Some (Obs.Metrics.Counter n) -> check_int "preemption counter" r.Preemptible.Server.preemptions n
  | _ -> Alcotest.fail "preemptions missing");
  (match Obs.Metrics.find snap "sim.live_events" with
  | Some (Obs.Metrics.Gauge n) -> check_int "drained sim has no live events" 0 n
  | _ -> Alcotest.fail "sim.live_events missing");
  match Obs.Metrics.find snap "latency.all_ns" with
  | Some (Obs.Metrics.Histogram h) ->
    check_int "latency histogram counts completions" r.Preemptible.Server.completed
      h.Stat.Summary.count
  | _ -> Alcotest.fail "latency.all_ns missing"

(* ------------------------------------------------------------------ *)
(* Sim.live_events                                                     *)
(* ------------------------------------------------------------------ *)

let test_sim_live_events () =
  let sim = Engine.Sim.create () in
  let e1 = Engine.Sim.at sim 10 (fun () -> ()) in
  let _e2 = Engine.Sim.at sim 20 (fun () -> ()) in
  let _e3 = Engine.Sim.at sim 30 (fun () -> ()) in
  check_int "three scheduled" 3 (Engine.Sim.live_events sim);
  Engine.Sim.cancel e1;
  check_int "cancel drops live count" 2 (Engine.Sim.live_events sim);
  Engine.Sim.cancel e1;
  check_int "double cancel is idempotent" 2 (Engine.Sim.live_events sim);
  Engine.Sim.run sim;
  check_int "drained" 0 (Engine.Sim.live_events sim)

(* ------------------------------------------------------------------ *)
(* Fault ledger mirroring                                              *)
(* ------------------------------------------------------------------ *)

let test_fault_trace_mirror () =
  let t, now = manual_trace () in
  let f = Fault.create () in
  Fault.set_trace f t;
  Fault.set f "x" Fault.Always;
  let p = Fault.point f "x" in
  now := 77;
  check_bool "fires" true (Fault.fires p ~now:77);
  Fault.mark_detected f ~hint:"x" ();
  Fault.mark_recovered f ~hint:"x" ();
  let names =
    Obs.Trace.to_list t
    |> List.filter (fun e -> e.Obs.Trace.cat = Obs.Trace.Fault)
    |> List.map (fun e -> e.Obs.Trace.name)
  in
  Alcotest.(check (list string))
    "inject/detect/recover mirrored"
    [ "fault.inject"; "fault.detected"; "fault.recovered" ]
    names

(* ------------------------------------------------------------------ *)
(* qcheck: the telescoping invariant                                   *)
(* ------------------------------------------------------------------ *)

let breakdown_telescopes =
  QCheck.Test.make ~name:"obs: breakdown components sum to end-to-end latency" ~count:12
    QCheck.(
      triple (int_range 1 1_000) (int_range 2 10) (int_range 150 450))
    (fun (seed, quantum_us, rate_krps) ->
      let r =
        run_traced ~seed:(Int64.of_int seed) ~quantum_ns:(quantum_us * 1_000)
          ~rate:(float_of_int rate_krps *. 1_000.0) ~duration_ms:10 ()
      in
      let bd = Obs.Breakdown.of_trace (the_trace r) in
      Obs.Breakdown.sums_ok bd
      && bd.Obs.Breakdown.complete = r.Preemptible.Server.completed
      && bd.Obs.Breakdown.incomplete = 0)

let suites =
  [
    ( "obs.trace",
      [
        Alcotest.test_case "ring wraparound + drop counting" `Quick test_ring_wraparound;
        Alcotest.test_case "category filtering" `Quick test_category_filter;
        Alcotest.test_case "cat_of_string" `Quick test_cat_of_string;
        Alcotest.test_case "sim live_events" `Quick test_sim_live_events;
        Alcotest.test_case "fault ledger mirrored" `Quick test_fault_trace_mirror;
      ] );
    ( "obs.metrics",
      [ Alcotest.test_case "registry + snapshot" `Quick test_metrics_registry ] );
    ( "obs.export",
      [
        Alcotest.test_case "perfetto golden" `Quick test_perfetto_golden;
        Alcotest.test_case "csv export" `Quick test_csv_export;
      ] );
    ( "obs.server",
      [
        Alcotest.test_case "span pairing under preemption" `Quick
          test_span_pairing_under_preemption;
        Alcotest.test_case "breakdown covers every completion" `Quick
          test_breakdown_complete_run;
        Alcotest.test_case "breakdown survives wraparound" `Quick
          test_breakdown_survives_wraparound;
        Alcotest.test_case "tracing is passive" `Quick test_tracing_is_passive;
        Alcotest.test_case "result metrics snapshot" `Quick test_result_metrics;
        QCheck_alcotest.to_alcotest breakdown_telescopes;
      ] );
  ]
