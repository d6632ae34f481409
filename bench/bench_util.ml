(* Shared helpers for the reproduction harness. *)

let us = Engine.Units.us
let ms = Engine.Units.ms

let lc_source dist =
  Workload.Source.of_dist dist ~cls:Workload.Request.Latency_critical

(* The paper's workload set (Sec V-A), as symbolic scenario
   distributions; the run length (which places workload C's shift)
   comes from each spec's [dur] field. *)
let named_workloads =
  [ ("A1", Scenario.A1); ("A2", Scenario.A2); ("B", Scenario.B); ("C", Scenario.C) ]

(* Peak sustainable rate of [workers] cores for a scenario
   distribution (ignores overheads; used to place load sweeps): the
   same number {!Scenario.capacity_rps} resolves [x]-relative rates
   against.  A phased distribution (workload C) is sized by its slower
   phase. *)
let capacity ~dist ~workers ~duration_ns =
  Scenario.capacity_rps
    { Scenario.default with Scenario.src = Scenario.Dist (dist, Scenario.Lc); workers; duration_ns }

let spec_of_string text =
  match Scenario.of_string text with
  | Ok s -> s
  | Error e -> invalid_arg ("bench: bad scenario: " ^ Scenario.error_to_string e)

type system = {
  sys_name : string;
  spec :
    rate:float ->
    dist:Scenario.dist ->
    duration_ns:int ->
    warmup_ns:int ->
    Scenario.t;
}

let run_system sys ~rate ~dist ~duration_ns ~warmup_ns =
  Scenario.run_server (sys.spec ~rate ~dist ~duration_ns ~warmup_ns)

(* Fill in the per-point fields a sweep computes (absolute rate,
   workload, run length) on a system's base scenario. *)
let at_point base ~rate ~dist ~duration_ns ~warmup_ns =
  {
    base with
    Scenario.src = Scenario.Dist (dist, Scenario.Lc);
    arrival = Scenario.Poisson (Scenario.Abs rate);
    duration_ns;
    warmup_ns;
  }

(* The four systems of Fig 8, as scenario specs.  Worker budget follows
   Sec V-A: six hyperthreads total — 1 network + 5 workers for
   Shinjuku/Libinger, 1 network + 4 workers + 1 timer core for
   LibPreemptible.  The adaptive hyperparameters follow the paper's
   note (Sec III-F): the heavy-tail rule reacts fast (k2), the
   high-load rule gently (k1), so light-tailed workloads keep a lax
   quantum; maxload is left at "auto" so the controller's reference is
   the spec's own worker capacity. *)
let libpreemptible ?(quantum = us 5) ?(adaptive = false) () =
  {
    sys_name =
      (if adaptive then "LibPreemptible(adaptive)"
       else Printf.sprintf "LibPreemptible(q=%dus)" (quantum / 1000));
    spec =
      (fun ~rate ~dist ~duration_ns ~warmup_ns ->
        let base =
          if adaptive then
            spec_of_string
              "sys=lp; workers=4; window=10ms; quantum=adaptive:20us; \
               ctl={k1=2us;k2=10us;k3=8us;lhigh=0.95}"
          else
            { (spec_of_string "sys=lp; workers=4; window=10ms") with
              Scenario.quantum = Scenario.Fixed quantum
            }
        in
        at_point base ~rate ~dist ~duration_ns ~warmup_ns);
  }

let libpreemptible_nouintr ?(quantum = us 5) () =
  {
    sys_name = "LibPreemptible(no-UINTR)";
    spec =
      (fun ~rate ~dist ~duration_ns ~warmup_ns ->
        at_point
          { (spec_of_string "sys=lp-nouintr; workers=4") with
            Scenario.quantum = Scenario.Fixed quantum
          }
          ~rate ~dist ~duration_ns ~warmup_ns);
  }

let shinjuku ?(quantum = us 5) () =
  {
    sys_name = Printf.sprintf "Shinjuku(q=%dus)" (quantum / 1000);
    spec =
      (fun ~rate ~dist ~duration_ns ~warmup_ns ->
        at_point
          { (spec_of_string "sys=shinjuku; workers=5") with
            Scenario.quantum = Scenario.Fixed quantum
          }
          ~rate ~dist ~duration_ns ~warmup_ns);
  }

let libinger ?(quantum = us 20) () =
  {
    sys_name = Printf.sprintf "Libinger(q=%dus)" (quantum / 1000);
    spec =
      (fun ~rate ~dist ~duration_ns ~warmup_ns ->
        at_point
          { (spec_of_string "sys=libinger; workers=5") with
            Scenario.quantum = Scenario.Fixed quantum
          }
          ~rate ~dist ~duration_ns ~warmup_ns);
  }

let no_preempt () =
  {
    sys_name = "no-preemption";
    spec =
      (fun ~rate ~dist ~duration_ns ~warmup_ns ->
        at_point
          (spec_of_string "sys=nopreempt; workers=5; quantum=none")
          ~rate ~dist ~duration_ns ~warmup_ns);
  }

(* Environment knobs live in Exec.Env so bench and bin share one
   definition. *)
let getenv_nonempty = Exec.Env.getenv_nonempty

(* Parallel sweep for figure benches.  Tasks must be pure simulations
   (own Sim/Rng, no printing); callers print from the returned list so
   output and report points are in submission order at any job count.

   When LP_POOL_TRACE names a file, every pool in the run shares one
   wall-clock trace ring (per-worker task spans + occupancy counters,
   category "exec") exported as Perfetto JSON at exit. *)
let pool_trace =
  lazy
    (match Exec.Env.getenv_nonempty "LP_POOL_TRACE" with
    | None -> None
    | Some path ->
      let t0 = Unix.gettimeofday () in
      let trace =
        Obs.Trace.create
          ~config:{ Obs.Trace.capacity = 1 lsl 16; categories = [ Obs.Trace.Exec ] }
          ~clock:(fun () -> int_of_float ((Unix.gettimeofday () -. t0) *. 1e9))
          ()
      in
      at_exit (fun () ->
          Obs.Export.perfetto_to_file trace ~path;
          Format.printf "(pool trace: %s)@." path);
      Some trace)

let sweep ?label ~jobs f xs =
  Exec.Sweep.run ?trace:(Lazy.force pool_trace) ?label ~jobs f xs

(* CSV export: when LP_BENCH_CSV names a directory, figure benches also
   dump their series there for external plotting. *)
let csv ~name ~header ~rows =
  match getenv_nonempty "LP_BENCH_CSV" with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let oc = open_out (Filename.concat dir (name ^ ".csv")) in
    output_string oc (header ^ "\n");
    List.iter (fun row -> output_string oc (row ^ "\n")) rows;
    close_out oc;
    Format.printf "(csv: %s/%s.csv)@." dir name

let header title =
  Format.printf "@.==================================================================@.";
  Format.printf "%s@." title;
  Format.printf "==================================================================@."
