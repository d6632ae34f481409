(* Adversarial scenario pack (bench --adversarial).

   Three checked-in scenarios (scenarios/*.scn) turn the threat models
   of lib/baselines into declarative specs: tail_attack (a fat
   best-effort flood queues ahead of a 2us LC stream), quantum_gaming
   (a tenant sizes its requests just under the quantum) and
   noisy_neighbor (Zipf-skewed colocated tenants, one of them fat).

   Each file checks in the DEFENDED system: adaptive quantum plus the
   guard front door where the scenario uses one.  The figure's
   scenario axis overrides the default spec with a file's text; its
   fixed variant pins the quantum at the controller's initial 20us
   (every file in the pack starts there) and drops the guard, so the
   attack itself (source mix, arrival, seed) is bit-identical across
   the pair.  Gated headline (CI): on every scenario the defended LC
   p99 beats the fixed-quantum/unguarded baseline. *)

let us = Engine.Units.us

let slo_ns = us 200

let scenario_dir =
  match Exec.Env.getenv_nonempty "LP_SCENARIO_DIR" with
  | Some d -> d
  | None -> "scenarios"

let pack = [ "tail_attack"; "quantum_gaming"; "noisy_neighbor" ]

let scenario_text name =
  let path = Filename.concat scenario_dir (name ^ ".scn") in
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error detail ->
    invalid_arg
      (Printf.sprintf "bench_adversarial: %s (set LP_SCENARIO_DIR to the scenarios/ dir)"
         detail)

(* A run and its LC goodput: LC completions inside [slo_ns], per
   measured second. *)
let run_case spec =
  let lc_goodput = ref 0 in
  let probes =
    {
      Preemptible.Server.no_probes with
      Preemptible.Server.on_complete =
        (fun ~now ~latency_ns ~cls ->
          match cls with
          | Workload.Request.Latency_critical ->
            let arrived = now - latency_ns in
            if
              arrived >= spec.Scenario.warmup_ns
              && arrived < spec.Scenario.duration_ns
              && latency_ns <= slo_ns
            then incr lc_goodput
          | Workload.Request.Best_effort -> ());
    }
  in
  let r = Scenario.run_server ~probes spec in
  let measured_s = float_of_int (spec.Scenario.duration_ns - spec.Scenario.warmup_ns) /. 1e9 in
  (r, float_of_int !lc_goodput /. measured_s)

let figure () =
  {
    Figure.name = "adversarial";
    base = "";
    axes =
      [
        List.map (fun n -> ([ ("scenario", n) ], scenario_text n)) pack;
        Figure.axis "variant" [ ("fixed", "quantum=20us; guard=off"); ("defended", "") ];
      ];
    run = (fun _ spec -> run_case spec);
    metrics =
      (let server = Bench_util.server_metrics fst in
       server [ "lc_p99_us"; "lc_mean_us" ]
       @ [ ("lc_goodput_rps", snd) ]
       @ server [ "be_p99_us"; "shed_frac"; "preemptions" ]);
    expected =
      "(expected: on every scenario the defended LC p99 beats the fixed-quantum baseline\n\
      \ — the adaptive controller preempts the fat/gamed payloads and the guard sheds the\n\
      \ flood before it queues)";
  }

let run ~jobs () =
  Bench_util.header
    (Printf.sprintf
       "Adversarial pack: %s\n(defended = checked-in .scn; fixed = same attack, quantum pinned, guard off)"
       (String.concat ", " pack));
  Bench_util.figure ~jobs (figure ())
