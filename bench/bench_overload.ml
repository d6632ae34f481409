(* Adversarial overload suite (bench --overload).

   The paper's load sweeps stop at capacity; this element pushes past
   it.  Four client/guard modes under the same seed, workload B
   (exponential 5us) on 4 workers, each a guard override of one base
   spec ("1.4x" and "budget=0.05x:50" resolve against its capacity):

   - naive:        no guard.  The queue grows without bound and goodput
                   (completions inside the client's 200us patience)
                   collapses toward zero.
   - guard:        bounded queue + CoDel shedding, server-side expiry
                   and the brownout breaker keep goodput near capacity
                   with a bounded admitted tail.
   - retry-naive:  clients time out at 200us and retry up to 5 times
                   with no budget while the server burns workers on
                   abandoned work: the classic retry-storm meltdown.
   - retry-budget: the same clients under a 5%-of-capacity retry
                   budget.

   A flash crowd (0.5x -> 3x capacity ramp) then runs through naive and
   guard modes, with a scripted "guard.trip" fault episode in the
   guarded run; its resilience ledger lands in the report's
   meta.resilience section. *)

let timeout_ns = Engine.Units.us 200

let base = "workers=4; quantum=5us; src=b; dur=30ms; warmup=8ms; window=2ms; seed=11"

let guard =
  "guard={timeout=200us;expire;shed={q=24;target=40us;interval=200us};\
   brownout={p99=300us;qlen=128;trip=2;recover=2}}"

(* A run and its metrics, in report order.  Goodput is measured the
   same way in every mode — a probe counting completions whose
   per-attempt latency beat the client patience — so guarded and
   unguarded rows are directly comparable even though only guarded
   runs have a Guard ledger; the p99 covers every measured completion,
   late ones included. *)
let run_case spec =
  let goodput = ref 0 in
  let lat = Stat.Summary.create () in
  let probes =
    {
      Preemptible.Server.no_probes with
      Preemptible.Server.on_complete =
        (fun ~now ~latency_ns ~cls:_ ->
          let arrived = now - latency_ns in
          if arrived >= spec.Scenario.warmup_ns && arrived < spec.Scenario.duration_ns then begin
            Stat.Summary.record lat (float_of_int latency_ns);
            if latency_ns <= timeout_ns then incr goodput
          end);
    }
  in
  let r = Scenario.run_server ~probes spec in
  let measured_s = float_of_int (spec.Scenario.duration_ns - spec.Scenario.warmup_ns) /. 1e9 in
  let offered = r.Preemptible.Server.offered in
  let frac n = if offered = 0 then 0.0 else float_of_int n /. float_of_int offered in
  ( r,
    [
      ("offered_rps", float_of_int offered /. measured_s);
      ("goodput_rps", float_of_int !goodput /. measured_s);
      ( "p99_us",
        if Stat.Summary.count lat = 0 then nan
        else (Stat.Summary.report lat).Stat.Summary.p99 /. 1e3 );
      ("shed_frac", frac r.Preemptible.Server.shed);
      ("expired_frac", frac r.Preemptible.Server.dropped);
      ( "retries",
        match r.Preemptible.Server.guard with
        | None -> 0.0
        | Some g -> float_of_int g.Guard.retries );
    ] )

let figure =
  {
    Figure.name = "overload";
    base;
    axes =
      [
        Figure.axis "mode"
          [
            ("naive", "");
            ("guard", guard);
            ( "retry-naive",
              "guard={timeout=200us;retry={attempts=5;backoff=50us;max=400us;jitter=0.5}}" );
            ( "retry-budget",
              "guard={timeout=200us;retry={attempts=5;backoff=50us;max=400us;jitter=0.5;\
               budget=0.05x:50}}" );
          ];
        Figure.axis "load"
          (List.map
             (fun l -> (Printf.sprintf "%.1fx" l, Printf.sprintf "arrival=poisson:%gx" l))
             [ 0.7; 1.0; 1.4; 2.0; 2.8 ]);
      ];
    run = (fun _ spec -> snd (run_case spec));
    metrics =
      List.map
        (fun k -> (k, List.assoc k))
        [ "offered_rps"; "goodput_rps"; "p99_us"; "shed_frac"; "expired_frac"; "retries" ];
    expected =
      "(expected: naive goodput collapses past 1x while guard holds near capacity with a\n\
      \ bounded admitted p99; unbudgeted retries amplify offered load and melt down around\n\
      \ capacity, the 5%-budget keeps them harmless)";
  }

(* Flash crowd: 0.5x capacity base load spiking to 3x, with a scripted
   breaker trip in the guarded run so the fault ledger exercises the
   guard point end-to-end. *)
let flash_arrival = "arrival=flash:0.5x:3x:10ms:3ms:7ms:5ms"

let flash_episode () =
  Bench_util.header
    "Overload: flash crowd (0.5x -> 3x capacity, ramp 3ms / hold 7ms / decay 5ms)";
  let case texts = run_case (Bench_util.spec_of_string (String.concat "; " (base :: texts))) in
  let naive = case [ flash_arrival ] in
  let guarded = case [ guard; flash_arrival; "faults={guard.trip=win:16000000-18000000:1}" ] in
  let show name (r, m) =
    Format.printf "  %-13s goodput=%10.0f/s p99=%10.1fus shed=%5.1f%% trips=%d@." name
      (List.assoc "goodput_rps" m) (List.assoc "p99_us" m)
      (100.0 *. List.assoc "shed_frac" m)
      (match r.Preemptible.Server.guard with None -> 0 | Some g -> g.Guard.trips)
  in
  show "naive" naive;
  show "guard" guarded;
  (match (fst guarded).Preemptible.Server.resilience with
  | Some res ->
    let fr = res.Preemptible.Server.fault_report in
    Format.printf "  scripted trip ledger: inj=%d det=%d rec=%d@." fr.Fault.injected
      fr.Fault.detected fr.Fault.recovered;
    Bench_report.resilience ~name:"overload.flash.guard" fr
  | None -> ());
  List.iter
    (fun (name, (_, metrics)) ->
      Bench_report.point ~fig:"overload" ~labels:[ ("mode", name); ("load", "flash") ] ~metrics)
    [ ("naive", naive); ("guard", guarded) ]

let run ~jobs () =
  let spec = Bench_util.spec_of_string base in
  Bench_util.header
    (Printf.sprintf
       "Overload: goodput vs load past capacity (workload B, %d workers, capacity %.0f/s, \
        patience %dus)"
       spec.Scenario.workers (Scenario.capacity_rps spec) (timeout_ns / 1000));
  Bench_util.figure ~jobs ~hook:(fun _ -> flash_episode ()) figure
