(* Fig 13: tail latency of colocated LC (MICA) and BE (zlib) jobs under
   scheduling policy #1 (FCFS with preemption).
   Left: fixed 30us quantum across load levels.
   Right: quantum sweep at a fixed 55 kRPS. *)

let side name ~krps ~quanta expected =
  {
    Figure.name = "fig13";
    base = "workers=1; src=mix(0.98*mica,0.02*zlib); dur=300ms; warmup=20ms";
    axes =
      [
        Figure.axis "side" [ (name, "") ];
        Figure.axis "load_krps"
          (List.map (fun k -> (string_of_int k, Printf.sprintf "arrival=poisson:%d000" k)) krps);
        Figure.quanta (0 :: quanta);
      ];
    run = (fun _ spec -> Scenario.run_server spec);
    metrics = List.map Figure.server_metric [ "lc_p99_us"; "lc_p50_us"; "be_p99_us"; "be_p50_us" ];
    expected;
  }

let left = side "left" ~krps:[ 35; 45; 55; 65 ] ~quanta:[ 30 ] ""

let right =
  side "right" ~krps:[ 55 ] ~quanta:[ 5; 10; 20; 30; 50 ]
    "(expected: 30us quantum cuts LC p99 4.0-4.6x across loads at 1.1-1.3x BE p99; 5us\n\
    \ cuts it ~18x at 1.14x BE p50 and 1.29x BE p99 — the paper's latency/throughput\n\
    \ trade-off, with a smaller BE cost than the paper's ~2x)"

(* What the figure's conclusion rests on: each quantum against no
   preemption at the same load. *)
let gains fig results =
  let m name = List.assoc name fig.Figure.metrics in
  List.iter
    (fun (l, r) ->
      if Bench_util.label "quantum_ns" l <> "0" then
        let base = Bench_util.find results l ~keys:[ "load_krps" ] ("quantum_ns", "0") in
        Format.printf "  %s kRPS, q=%dus: LC p99 gain %.1fx, BE p50 cost %.2fx, BE p99 cost %.2fx@."
          (Bench_util.label "load_krps" l)
          (int_of_string (Bench_util.label "quantum_ns" l) / 1000)
          (m "lc_p99_us" base /. m "lc_p99_us" r)
          (m "be_p50_us" r /. m "be_p50_us" base)
          (m "be_p99_us" r /. m "be_p99_us" base))
    results

let run ~jobs () =
  Bench_util.header "Fig 13: colocated MICA (LC) + zlib (BE), FCFS with preemption";
  Format.printf "@.-- fixed quantum 30us, load sweep (p99 in us) --@.";
  Bench_util.figure ~jobs ~hook:(gains left) left;
  Format.printf "@.-- fixed 55 kRPS, preemption-interval sweep --@.";
  Bench_util.figure ~jobs ~hook:(gains right) right
