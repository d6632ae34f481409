(* The benchmark's own statistics on fixed inputs, BENCHMARK.json
   against the metrics the code reports, and two workloads run at a
   tiny size so the harness keeps working. *)

open Harness

let feq msg = Alcotest.(check (float 1e-9)) msg

let test_percentile () =
  let xs = [| 5.; 1.; 4.; 2.; 3. |] in
  feq "p50" 3.0 (Stats.percentile xs 50.0);
  feq "p20 is the 1st of 5" 1.0 (Stats.percentile xs 20.0);
  feq "p21 rounds the rank up" 2.0 (Stats.percentile xs 21.0);
  feq "p100 is the max" 5.0 (Stats.percentile xs 100.0);
  let hundred = Array.init 100 (fun i -> float_of_int (i + 1)) in
  feq "p99 of 1..100" 99.0 (Stats.percentile hundred 99.0);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: no samples") (fun () ->
      ignore (Stats.percentile [||] 50.0))

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q xs = Stats.quartiles (Array.of_list xs) in
  let check msg (a, b, c) (x, y, z) =
    feq (msg ^ " q1") a x;
    feq (msg ^ " median") b y;
    feq (msg ^ " q3") c z
  in
  check "1..10" (2.75, 5.5, 8.25) (q (List.init 10 (fun i -> float_of_int (i + 1))));
  check "two samples" (0.75, 1.5, 2.25) (q [ 2.; 1. ]);
  check "three samples" (1.0, 2.0, 3.0) (q [ 3.; 1.; 2. ]);
  check "one sample" (4.0, 4.0, 4.0) (q [ 4. ]);
  feq "spread" 1.0 (Stats.spread [| 10.; 20.; 30.; 40.; 50. |])

(* Median of rounds: rt-batch reports the median round's rate. *)
let test_median_of_rounds () =
  feq "odd" 2.0 (Stats.median [| 3.; 1.; 2. |]);
  feq "even" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  feq "one slow round does not move it" 100.0 (Stats.median [| 100.; 101.; 99.; 100.; 10. |])

let test_windowed_p99 () =
  (* 100 samples at 0.0, 0.1, ... 9.9 s with value = 10 x time: five
     2-s windows of 20 samples, whose p99s are their maxima 19, 39,
     59, 79, 99 and whose p50s are 9, 29, 49, 69, 89. *)
  let times = Array.init 100 (fun i -> float_of_int i /. 10.0) in
  let values = Array.init 100 float_of_int in
  let ws = Stats.windows ~times ~values ~start:0.0 ~width:2.0 ~stop:10.0 in
  Alcotest.(check (list int)) "window sizes" [ 20; 20; 20; 20; 20 ] (List.map Array.length ws);
  let p50, p99 = Stats.subrun_latency ws in
  feq "median of window p50s" 49.0 p50;
  feq "lower quartile of window p99s" 29.0 p99;
  (* Stalls in two of five windows shift both numbers by about a
     window's rank, not to the stall. *)
  let stalled = Array.mapi (fun i v -> if i < 40 then v +. 1e6 else v) values in
  let p50', p99' =
    Stats.subrun_latency (Stats.windows ~times ~values:stalled ~start:0.0 ~width:2.0 ~stop:10.0)
  in
  feq "p50 with stalls" 89.0 p50';
  feq "p99 with stalls" 69.0 p99';
  (* Warm-up samples and a partial last window are left out. *)
  let ws = Stats.windows ~times ~values ~start:1.0 ~width:2.0 ~stop:9.5 in
  Alcotest.(check int) "full windows after warm-up" 4 (List.length ws);
  Alcotest.(check (float 1e-9)) "first full window starts at 1 s" 10.0
    (Array.fold_left Float.min infinity (List.hd ws))

let test_verdict () =
  let v ?(better = Stats.Lower) before after =
    Stats.verdict_name
      (Stats.verdict ~better ~bound:0.1 ~before:(Array.of_list before)
         ~after:(Array.of_list after))
  in
  let base = [ 100.; 101.; 99.; 100.; 102. ] in
  let scale k = List.map (fun x -> x *. k) base in
  let s = Alcotest.(check string) in
  s "same" "agree" (v base (scale 1.05));
  s "slower" "worse" (v base (scale 1.2));
  s "faster" "better" (v base (scale 0.8));
  s "throughput down" "worse" (v ~better:Stats.Higher base (scale 0.8));
  s "throughput up" "better" (v ~better:Stats.Higher base (scale 1.2));
  let wide = [ 50.; 100.; 150.; 200.; 250. ] in
  s "spread wider than the bound" "unresolved" (v wide (scale 1.2));
  s "wide but every run better" "better" (v wide [ 10.; 11.; 12.; 13.; 14. ]);
  s "wide but every run worse" "worse" (v wide [ 300.; 310.; 320.; 330.; 340. ])

(* BENCHMARK.json must list exactly the workloads and metrics the code
   reports, with the same units and directions. *)
let test_benchmark_json () =
  let open Obs.Json in
  let doc = match of_file "../../BENCHMARK.json" with Ok d -> d | Error m -> Alcotest.fail m in
  let list k = Option.value ~default:[] (Option.bind (member k doc) to_list) in
  let str k o = Option.value ~default:"" (Option.bind (member k o) to_str) in
  let defs k =
    List.map (fun m -> (str "name" m, str "unit" m, str "better" m)) (list k)
  in
  let schema l =
    List.map
      (fun (d : Schema.def) ->
        (d.name, d.unit_, if d.better = Stats.Higher then "higher" else "lower"))
      l
  in
  let t3 = Alcotest.(list (triple string string string)) in
  Alcotest.check t3 "end_to_end" (schema Schema.end_to_end) (defs "end_to_end");
  Alcotest.check t3 "per_layer" (schema Schema.per_layer) (defs "per_layer");
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun w -> w.Workloads.name) Workloads.all)
    (List.map (str "name") (list "workloads"));
  let bounds =
    List.map (fun m -> (str "name" m, Option.bind (member "bound" m) to_num)) (list "end_to_end")
  in
  let setup = Option.get (List.assoc "setup_s" bounds) in
  List.iter
    (fun (name, b) ->
      match b with
      | Some b ->
        Alcotest.(check bool) (name ^ " bound in (0, setup_s bound]") true (b > 0.0 && b <= setup)
      | None -> Alcotest.fail (name ^ ": no bound"))
    bounds;
  Alcotest.(check bool) "setup_s bound <= 0.25" true (setup <= 0.25)

let check_outcome (o : Workloads.outcome) =
  Alcotest.(check bool) "ran at least one op" true (o.attempted >= 1);
  Alcotest.(check int) "no op failed" 0 o.failed;
  Alcotest.(check (list string))
    "every end-to-end metric"
    (List.map (fun d -> d.Schema.name) Schema.end_to_end)
    (List.map fst o.metrics);
  List.iter (fun (k, v) -> Alcotest.(check bool) (k ^ " > 0") true (v > 0.0)) o.metrics

let tiny = { Workloads.seed = 7; seconds = 0.0; root = "."; trace = None }

let test_tiny_fleet () =
  check_outcome
    (Workloads.run_untraced
       { Workloads.name = "sim-fleet-guard"; run = Workloads.sim_fleet_guard ~duration:"30ms" }
       tiny)

let test_tiny_batch () =
  check_outcome
    (Workloads.run_untraced
       { Workloads.name = "rt-batch"; run = Workloads.rt_batch ~jobs:30 }
       tiny)

let () =
  Alcotest.run "benchmark"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "median of rounds" `Quick test_median_of_rounds;
          Alcotest.test_case "windowed p99" `Quick test_windowed_p99;
          Alcotest.test_case "compare verdicts" `Quick test_verdict;
        ] );
      ("schema", [ Alcotest.test_case "BENCHMARK.json matches" `Quick test_benchmark_json ]);
      ( "workloads",
        [
          Alcotest.test_case "sim-fleet-guard, tiny" `Quick test_tiny_fleet;
          Alcotest.test_case "rt-batch, tiny" `Quick test_tiny_batch;
        ] );
    ]
