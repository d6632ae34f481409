type labels = (string * string) list
type case = labels * string

type 'r t = {
  name : string;
  base : string;
  axes : case list list;
  run : labels -> Scenario.t -> 'r;
  metrics : (string * ('r -> float)) list;
  expected : string;
}

let axis name values = List.map (fun (label, override) -> ([ (name, label) ], override)) values

let loads ls =
  axis "load"
    (List.map (fun l -> (Printf.sprintf "%g" l, Printf.sprintf "arrival=poisson:%gx" l)) ls)

let quanta us =
  axis "quantum_ns"
    (List.map
       (fun q ->
         ( string_of_int (q * 1000),
           if q = 0 then "quantum=none" else Printf.sprintf "quantum=%dus" q ))
       us)

let points fig =
  let apply spec text =
    match Scenario.override spec text with
    | Ok s -> s
    | Error e -> invalid_arg (fig.name ^ ": " ^ Scenario.error_to_string e)
  in
  List.fold_left
    (fun acc cases ->
      List.concat_map
        (fun (labels, spec) ->
          List.map (fun (l, text) -> (labels @ l, apply spec text)) cases)
        acc)
    [ ([], apply Scenario.default fig.base) ]
    fig.axes

let server_metric name =
  let all f (r : Preemptible.Server.result) = f r.Preemptible.Server.all /. 1e3 in
  let cls pick f r = match pick r with Some c -> f c /. 1e3 | None -> nan in
  let lc r = r.Preemptible.Server.lc and be r = r.Preemptible.Server.be in
  let count f r = float_of_int (f r) in
  ( name,
    match name with
    | "tput_rps" -> fun r -> r.Preemptible.Server.throughput_rps
    | "p50_us" -> all (fun a -> a.Stat.Summary.p50)
    | "p99_us" -> all (fun a -> a.Stat.Summary.p99)
    | "p999_us" -> all (fun a -> a.Stat.Summary.p999)
    | "mean_us" -> all (fun a -> a.Stat.Summary.mean)
    | "lc_p50_us" -> cls lc (fun c -> c.Stat.Summary.p50)
    | "lc_p99_us" -> cls lc (fun c -> c.Stat.Summary.p99)
    | "lc_mean_us" -> cls lc (fun c -> c.Stat.Summary.mean)
    | "be_p50_us" -> cls be (fun c -> c.Stat.Summary.p50)
    | "be_p99_us" -> cls be (fun c -> c.Stat.Summary.p99)
    | "preemptions" -> count (fun r -> r.Preemptible.Server.preemptions)
    | "cancelled" -> count (fun r -> r.Preemptible.Server.cancelled)
    | "completed" -> count (fun r -> r.Preemptible.Server.completed)
    | "offered" -> count (fun r -> r.Preemptible.Server.offered)
    | "shed_frac" ->
      fun r ->
        let offered = r.Preemptible.Server.offered in
        if offered = 0 then 0.0
        else float_of_int r.Preemptible.Server.shed /. float_of_int offered
    | _ -> invalid_arg ("Figure.server_metric: " ^ name) )

let fleet_metric name =
  ( name,
    match name with
    | "mean_us" -> fun f -> f.Cluster.mean_us
    | "p50_us" -> fun f -> f.Cluster.p50_us
    | "p99_us" -> fun f -> f.Cluster.p99_us
    | "imbalance" -> fun f -> f.Cluster.imbalance
    | "goodput_rps" -> fun f -> f.Cluster.goodput_rps
    | "offered_rps" -> fun f -> f.Cluster.offered_rps
    | "stolen" -> fun f -> float_of_int f.Cluster.stolen
    | "completed" -> fun f -> float_of_int f.Cluster.completed
    | "offered" -> fun f -> float_of_int f.Cluster.offered
    | "shed_frac" ->
      fun f ->
        if f.Cluster.offered = 0 then 0.0
        else float_of_int f.Cluster.shed /. float_of_int f.Cluster.offered
    | _ -> invalid_arg ("Figure.fleet_metric: " ^ name) )

(* Worker budget follows Sec V-A: six hyperthreads total — 1 network +
   5 workers for Shinjuku/Libinger, 1 network + 4 workers + 1 timer
   core for LibPreemptible.  The adaptive hyperparameters follow the
   paper's note (Sec III-F): the heavy-tail rule reacts fast (k2), the
   high-load rule gently (k1), so light-tailed workloads keep a lax
   quantum; maxload is left at "auto", the spec's own capacity. *)
let fig8_axes load =
  [
    axis "workload" [ ("A1", "src=a1"); ("A2", "src=a2"); ("B", "src=b"); ("C", "src=c") ];
    axis "system"
      [
        ( "LibPreemptible(adaptive)",
          "sys=lp; workers=4; window=10ms; quantum=adaptive:20us; \
           ctl={k1=2us;k2=10us;k3=8us;lhigh=0.95}" );
        ("LibPreemptible(no-UINTR)", "sys=lp-nouintr; workers=4; quantum=5us");
        ("Shinjuku(q=5us)", "sys=shinjuku; workers=5; quantum=5us");
        ("Libinger(q=20us)", "sys=libinger; workers=5; quantum=20us");
      ];
    loads load;
  ]

let fig8 =
  {
    name = "fig8";
    base = "capref=4; dur=100ms; warmup=20ms";
    (* past nominal capacity: the systems differ exactly in how much of
       it their preemption overhead burns *)
    axes = fig8_axes [ 0.5; 0.7; 0.8; 0.85; 0.9; 0.95; 1.0; 1.05 ];
    run = (fun _ spec -> Scenario.run_server spec);
    metrics = List.map server_metric [ "tput_rps"; "p50_us"; "p99_us"; "p999_us" ];
    expected =
      "(expected shape: LibPreemptible's p99 at 90% load is 2.6x (A2) to 83.6x (A1)\n\
      \ below Shinjuku's, and its SLO max throughput is +29% over Shinjuku on A1,\n\
      \ +6% on B and C and -5% on A2 (the paper reports +~22% on A1 and +~33% on C);\n\
      \ disabling UINTR costs 1.2-3.7x tail at 90% load; Libinger, with five workers\n\
      \ to LP's four plus a timer core, posts the best max throughput on A2, B and C\n\
      \ and a lower p99 than LP at 90% load on B and C)";
  }

let fig8_slo =
  { fig8 with name = "fig8.slo"; axes = fig8_axes [ 0.1 ]; metrics = []; expected = "" }
