(* Layer probes: the unit cost of one layer's public functions, timed
   from outside over inputs captured from the probe simulation.  Each
   probe runs long enough (about 0.05-0.2 s) that the clock's
   resolution does not matter. *)

(* Nanoseconds per iteration of [body] over [iters] iterations. *)
let ns_per ~iters body =
  let t0 = Clock.now_s () in
  for i = 0 to iters - 1 do
    body i
  done;
  (Clock.now_s () -. t0) *. 1e9 /. float_of_int iters

(* Schedule-and-fire at a constant number of live events: every fired
   callback schedules one more, so each [step] pops from and pushes to
   a heap of [depth] events. *)
let heap_ns ~seed ~depth =
  let sim = Engine.Sim.create ~seed:(Int64.of_int seed) () in
  let rng = Random.State.make [| seed |] in
  let gaps = Array.init 1024 (fun _ -> 1 + Random.State.int rng 10_000) in
  let k = ref 0 in
  let rec cb () =
    incr k;
    ignore (Engine.Sim.after sim gaps.(!k land 1023) cb : Engine.Sim.event)
  in
  for i = 1 to depth do
    ignore (Engine.Sim.after sim gaps.(i land 1023) cb : Engine.Sim.event)
  done;
  ns_per ~iters:1_000_000 (fun _ -> ignore (Engine.Sim.step sim : bool))

let rqueue_ns ~depth =
  let q = Preemptible.Rqueue.create ~name:"probe" in
  for i = 1 to depth do
    Preemptible.Rqueue.push q ~now:i i
  done;
  ns_per ~iters:5_000_000 (fun i ->
      Preemptible.Rqueue.push q ~now:(depth + i) i;
      ignore (Preemptible.Rqueue.pop q ~now:(depth + i) : int option))

let cycle a i = a.(i mod Array.length a)

let qc_observe_ns (c : Sims.captured) =
  let qc =
    Preemptible.Quantum_controller.create ~max_load_per_s:c.capacity_rps
      ~initial_quantum_ns:20_000 ()
  in
  ns_per ~iters:1_000_000 (fun i ->
      ignore (Preemptible.Quantum_controller.observe qc (cycle c.snapshots i) : int))

let admission_ns (c : Sims.captured) =
  let g = Guard.create c.guard in
  ns_per ~iters:2_000_000 (fun i ->
      let qlen, head_wait_ns = cycle c.frames i in
      let cls =
        if i mod 10 = 0 then Workload.Request.Best_effort else Workload.Request.Latency_critical
      in
      ignore (Guard.admission g ~now:(i * 100) ~cls ~qlen ~head_wait_ns : Guard.verdict))

let sketch_add_ns (c : Sims.captured) =
  let s = Obs.Sketch.create () in
  ns_per ~iters:5_000_000 (fun i -> Obs.Sketch.add s (cycle c.latencies i))

(* One merge of a sketch holding half the latencies into another. *)
let sketch_merge_us (c : Sims.captured) =
  let half = Array.length c.latencies / 2 in
  let src = Obs.Sketch.create () and dst = Obs.Sketch.create () in
  Array.iteri (fun i v -> Obs.Sketch.add (if i < half then src else dst) v) c.latencies;
  ns_per ~iters:20_000 (fun _ -> Obs.Sketch.merge_into ~dst ~src) /. 1e3

let summary_record_ns (c : Sims.captured) =
  let s = Stat.Summary.create () in
  ns_per ~iters:5_000_000 (fun i -> Stat.Summary.record s (cycle c.latencies i))

(* Every probe, each in a span named after its metric. *)
let all ?trace ~seed (c : Sims.captured) =
  List.map
    (fun (name, probe) -> (name, Spans.span trace Obs.Trace.Exec name ~track:0 probe))
    [
      ("engine.heap_ns.d4k", fun () -> heap_ns ~seed ~depth:4096);
      ("engine.heap_ns.d64k", fun () -> heap_ns ~seed ~depth:65536);
      ("preemptible.rqueue_ns", fun () -> rqueue_ns ~depth:(max 1 c.queue_depth));
      ("preemptible.qc_observe_ns", fun () -> qc_observe_ns c);
      ("guard.admission_ns", fun () -> admission_ns c);
      ("obs.sketch_add_ns", fun () -> sketch_add_ns c);
      ("obs.sketch_merge_us", fun () -> sketch_merge_us c);
      ("stat.summary_record_ns", fun () -> summary_record_ns c);
    ]
