(* Cluster suite (bench --cluster).

   The paper evaluates one server; this element asks the datacenter
   question on top of it: how much does the dispatch policy matter, and
   when does spending the complexity budget *inside* the server
   (adaptive quanta) beat spending it *between* servers (better load
   balancing)?  Four sections of one figure, each a figure value whose
   points carry a [mode] label:

   - lb:        fleet size x policy under production-shaped traffic
                (diurnal arrivals, Zipf-skewed tenant mix): the tail
                each policy leaves on the table, and its imbalance.
   - crossover: JSQ over fixed-quantum servers vs p2c over
                adaptive-quantum servers, over fleet size and load on
                the heavy-tailed bimodal.  JSQ's full-information
                dispatch takes the mean at the largest fleet; the
                adaptive quantum owns the p99 at every size and load.
   - goodput:   guarded fleets pushed past capacity (1.0x / 1.4x);
                dispatch mistakes turn into sheds and blown client
                patience, and the CI gate pins p2c >= random at 1.4x.
   - steal:     a work-stealing pair on a lopsided heterogeneous
                fleet. *)

let section mode ~base ~axes ~metrics run =
  {
    Figure.name = "cluster";
    base;
    axes = Figure.axis "mode" [ (mode, "") ] :: axes;
    run;
    metrics = List.map Figure.fleet_metric metrics;
    expected = "";
  }

let run_fleet _ spec = (Scenario.run_fleet spec).Cluster.fleet
let lbs = List.map Cluster.lb_name Cluster.all_lbs

(* A fleet's size and balancer are one field, so they are one case
   list.  The 0.75x rate resolves against the fleet's total worker
   count. *)
let lb =
  section "lb"
    ~base:
      "workers=2; quantum=5us; seed=17; src=tenants:0.9(b,a2); \
       arrival=diurnal:0.75x:0.25:8ms; dur=24ms; warmup=6ms"
    ~axes:
      [
        List.concat_map
          (fun n ->
            List.map
              (fun lb ->
                ( [ ("servers", string_of_int n); ("lb", lb) ],
                  Printf.sprintf "fleet={n=%d;lb=%s}" n lb ))
              lbs)
          [ 2; 4; 8 ];
      ]
    ~metrics:[ "goodput_rps"; "mean_us"; "p50_us"; "p99_us"; "imbalance" ]
    run_fleet

(* A crossover system fixes both the members' quantum and the balancer,
   so fleet size, load and system are one case list too. *)
let sizes = [ 2; 4; 8 ]
let loads = [ 0.5; 0.75; 0.9 ]
let load_label = Printf.sprintf "%.2fx"

let crossover_systems =
  [
    ("jsq+fixed", "quantum=20us", "jsq");
    ("p2c+adaptive", "quantum=adaptive:20us; ctl={k1=2us;k2=10us;k3=8us;lhigh=0.95}", "p2c");
  ]

(* The hand-built version of this bench shared one controller across
   all members (Cluster.uniform copies the member config, closures
   included); the scenario lowering gives each member its own.  Keep
   the shared-controller dynamics so the figure is unchanged. *)
let crossover_run _ spec =
  let cfg = Scenario.cluster_config spec in
  let shared = cfg.Cluster.members.(0).Preemptible.Server.policy in
  let members =
    Array.map (fun m -> { m with Preemptible.Server.policy = shared }) cfg.Cluster.members
  in
  (Cluster.run ~warmup_ns:spec.Scenario.warmup_ns { cfg with Cluster.members }
     ~arrival:(Scenario.arrival_process spec)
     ~source:(Scenario.source_sampler spec) ~duration_ns:spec.Scenario.duration_ns)
    .Cluster.fleet

let crossover =
  section "crossover" ~base:"workers=2; seed=17; src=a1; dur=30ms; warmup=8ms; window=1ms"
    ~axes:
      [
        List.concat_map
          (fun n ->
            List.concat_map
              (fun load ->
                List.map
                  (fun (sys, quantum, lb) ->
                    ( [ ("servers", string_of_int n); ("load", load_label load); ("system", sys) ],
                      Printf.sprintf "arrival=poisson:%gx; %s; fleet={n=%d;lb=%s}" load quantum
                        n lb ))
                  crossover_systems)
              loads)
          sizes;
      ]
    ~metrics:[ "mean_us"; "p99_us" ] crossover_run

(* The headline, per cell: the winner on the mean and on the p99. *)
let winners results =
  List.iter
    (fun n ->
      let winners m =
        List.map
          (fun load ->
            let cell sys =
              snd (Figure.fleet_metric m)
                (Bench_util.find results
                   [ ("servers", string_of_int n); ("load", load_label load) ]
                   ~keys:[ "servers"; "load" ] ("system", sys))
            in
            Printf.sprintf "%s:%s" (load_label load)
              (if cell "p2c+adaptive" < cell "jsq+fixed" then "p2c+adaptive" else "jsq+fixed"))
          loads
      in
      Format.printf "  %d servers: mean winner %s | p99 winner %s@." n
        (String.concat " " (winners "mean_us"))
        (String.concat " " (winners "p99_us")))
    sizes

(* Bursty overload, not sustained Poisson: under a flat 1.4x every
   server saturates and dispatch quality stops mattering.  With spikes
   to 2x the mean, informed dispatch keeps the troughs' spare capacity
   fed while random strands it behind transiently deep queues.  The
   spike/base split is derived from the fleet capacity, and spliced in
   as absolute rates. *)
let goodput =
  let base =
    "workers=2; quantum=5us; seed=17; src=b; dur=30ms; warmup=8ms; \
     guard={timeout=200us;expire;shed={q=16;target=40us;interval=200us}}"
  in
  let cap = Scenario.capacity_rps (Bench_util.spec_of_string (base ^ "; fleet={n=4}")) in
  let bursty load =
    let mean_rate = load *. cap in
    let spike = 2.0 *. mean_rate in
    let base = (mean_rate -. (0.3 *. spike)) /. 0.7 in
    (Printf.sprintf "%.1fx" load, Printf.sprintf "arrival=bursty:%.17g:%.17g:2ms:0.3" base spike)
  in
  section "goodput" ~base
    ~axes:
      [
        Figure.axis "lb" (List.map (fun lb -> (lb, Printf.sprintf "fleet={n=4;lb=%s}" lb)) lbs);
        Figure.axis "load" (List.map bursty [ 1.0; 1.4 ]);
      ]
    ~metrics:[ "offered_rps"; "goodput_rps"; "shed_frac"; "p99_us" ]
    run_fleet

(* Round-robin over 1/4/4 workers overloads the small member; stealing
   mops it up. *)
let steal =
  {
    (section "steal"
       ~base:"workers=2; quantum=5us; seed=17; src=b; arrival=poisson:0.75x; dur=30ms; warmup=8ms"
       ~axes:
         [
           Figure.axis "steal"
             [
               ("off", "fleet={n=3;lb=rr;workers=1/4/4}");
               ("on", "fleet={n=3;lb=rr;workers=1/4/4;steal}");
             ];
         ]
       ~metrics:[ "mean_us"; "p99_us"; "stolen" ] run_fleet)
    with
    expected =
      "(expected: jsq/p2c hold p99 well under random at every fleet size; p2c over\n\
      \ adaptive-quantum servers beats jsq over fixed-quantum ones on p99 at every size,\n\
      \ while jsq+fixed takes the mean back at the largest fleet — dispatch information\n\
      \ scales with n, quantum adaptivity owns the tail; under overload p2c goodput stays\n\
      \ at or above random; stealing moves work off the overloaded small server and cuts\n\
      \ the fleet tail)";
  }

let run ~jobs () =
  Bench_util.header
    "Cluster: fleet size x balancer, diurnal arrivals (0.75x±25%), Zipf(0.9) tenant mix, 2 \
     workers/server";
  Bench_util.figure ~jobs lb;
  Bench_util.header
    "Cluster: JSQ over fixed q=20us vs p2c over adaptive quanta (workload A1, 2 \
     workers/server)";
  Bench_util.figure ~jobs ~hook:winners crossover;
  Bench_util.header
    "Cluster: guarded goodput under bursty overload (4 servers, 2x spikes, patience 200us, \
     bounded queues)";
  Bench_util.figure ~jobs goodput;
  Bench_util.header
    "Cluster: work stealing on a lopsided heterogeneous fleet (1/4/4 workers, round-robin)";
  Bench_util.figure ~jobs steal
