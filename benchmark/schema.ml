(* Every metric the benchmark reports, with its unit and direction.
   BENCHMARK.json lists the same names (and adds the end-to-end
   bounds); the benchmark's test checks that the two agree. *)

type def = { name : string; unit_ : string; better : Stats.better }

let m ?(better = Stats.Lower) name unit_ = { name; unit_; better }

(* Measured untraced, on every workload.  An "op" is the workload's
   unit of work: one simulation on the sim workloads, one
   latency-critical request on rt-open-lo/hi, one job on rt-batch. *)
let end_to_end =
  [
    m "setup_s" "s";
    m ~better:Stats.Higher "ops_per_s" "1/s";
    m "p50_ms" "ms";
    m "p99_ms" "ms";
    m "alloc_words_per_req" "words";
    m "peak_rss_mb" "MB";
  ]

(* Measured by the traced run, on every workload. *)
let per_layer =
  [
    m "scenario.lower_ms" "ms";
    m "workload.inputs_ms" "ms";
    m "pool.create_ms" "ms";
    m "engine.events" "count";
    m "engine.events_per_req" "count";
    m "engine.ns_per_event" "ns";
    m "engine.heap_ns.d4k" "ns";
    m "engine.heap_ns.d64k" "ns";
    m "utimer.interrupts_per_req" "count";
    m "utimer.spurious_per_req" "count";
    m "preemptible.preemptions_per_req" "count";
    m "preemptible.busy_frac" "ratio";
    m "preemptible.rqueue_ns" "ns";
    m "preemptible.qc_observe_ns" "ns";
    m "preemptible.telemetry_ticks" "count";
    m "preemptible.telemetry_overhead_frac" "ratio";
    m "guard.admission_ns" "ns";
    m "guard.shed_frac" "ratio";
    m "obs.sketch_add_ns" "ns";
    m "obs.sketch_merge_us" "us";
    m "stat.summary_record_ns" "ns";
    m "cluster.imbalance" "ratio";
    m "cluster.stolen_per_req" "count";
    m "exec.task_ms.p50" "ms";
    m "exec.task_ms.max" "ms";
    m ~better:Stats.Higher "exec.busy_frac" "ratio";
    m "fiber_rt.submit_ns.p50" "ns";
    m "fiber_rt.submit_ns.p99" "ns";
    m "fiber_rt.start_delay_us.p50" "us";
    m "fiber_rt.start_delay_us.p99" "us";
    m "fiber_rt.poll_ns" "ns";
    m "fiber_rt.polls_per_job" "count";
    m "fiber_rt.slice_us.p50" "us";
    m "fiber_rt.slice_us.p99" "us";
    m "fiber_rt.preempt_wait_us.p50" "us";
    m "fiber_rt.preempt_wait_us.p99" "us";
    m "fiber_rt.preemptions_per_job" "count";
    m "fiber_rt.drain_ms" "ms";
    m "gen.late_us.p50" "us";
    m "gen.late_us.p99" "us";
    m "gen.late_us.max" "us";
    m "gen.lc_n" "count";
    m "gen.be_n" "count";
    m "trace.overhead_frac" "ratio";
    m "trace.dropped" "count";
    m "trace.events" "count";
  ]

let find name = List.find_opt (fun d -> d.name = name) (end_to_end @ per_layer)
