(** The LibPreemptible request-serving runtime (Fig 5 / Fig 6).

    One dispatcher (network) thread feeds per-worker local FIFO queues;
    workers run requests as preemptible functions; preempted functions
    park in the global long queue ("running list") with their contexts;
    completed contexts return to the global free list.  A preemption
    mechanism — LibUtimer over UINTR in the full system — interrupts
    workers whose current function exceeded its time quantum.

    The same runtime, parameterized by {!mechanism}, also serves as the
    "LibPreemptible without UINTR" ablation (timer core firing kernel
    signals) and as the Libinger-style baseline (per-worker kernel
    timers + signals). *)

type mechanism =
  | Uintr_utimer of Utimer.config
      (** LibUtimer on a dedicated timer core delivering user
          interrupts — the full LibPreemptible. *)
  | Uintr_hw_offload
      (** Sec VII-C's future hardware: per-thread deadline comparators
          deliver the user interrupt directly, freeing the timer core
          (see {!Hw.Hwtimer}). *)
  | Signal_utimer of { poll_ns : int }
      (** The same dedicated timer core, but delivering preemption via
          kernel signals (pthread_kill) — the paper's UINTR-disabled
          ablation (Fig 8, orange). *)
  | Kernel_timer
      (** Per-worker POSIX timers delivering signals, re-armed with a
          syscall on every launch — the Libinger-style mechanism,
          subject to the kernel timer granularity floor. *)
  | No_mechanism  (** no preemption possible (run to completion) *)

type discipline =
  | Fifo  (** the paper's default: local queues are FIFO *)
  | Srpt_oracle
      (** shortest-remaining-processing-time with oracle knowledge of
          service times — the comparison point the paper argues is
          unrealizable in practice (Sec I), provided as a bound *)
  | Edf of int
      (** earliest-deadline-first over [arrival + slo]; the per-request
          deadline expression of Sec III-B *)

type config = {
  n_workers : int;
  policy : Policy.t;
  mechanism : mechanism;
  discipline : discipline;
      (** order in which a worker picks fresh requests from its local
          queue *)
  cancel_after_slo : int option;
      (** Sec III-B: cancel (rather than requeue) a function whose
          sojourn already exceeds this bound when it gets preempted —
          releasing resources a doomed request would waste *)
  dispatch_cost_ns : int;
      (** dispatcher service time per request (network poll + enqueue) *)
  launch_cost_ns : int;
      (** context allocation + trampoline into a fresh function *)
  complete_cost_ns : int;  (** context release + bookkeeping *)
  ctx_pool_capacity : int;
  stack_kb : int;
  stats_window_ns : int;
  work_stealing : bool;
      (** idle workers with empty queues steal fresh requests from the
          most loaded sibling (ZygOS-style; on by default) *)
  costs : Ksim.Costs.t;
  hw : Hw.Params.t;
  faults : Fault.t option;
      (** fault plan threaded through the interrupt fabric, the timer
          core and the server itself; [None] (default) injects nothing
          and adds no overhead *)
  watchdog : Utimer.watchdog option;
      (** enable the LibUtimer recovery layer (lost-UIPI retry,
          timer-core failover, kernel-timer fallback); [None] (default)
          keeps the fault-free fire-and-forget behaviour *)
  wedge_ns : int;
      (** how long the ["server.wedge"] fault keeps a worker pinned in
          a non-preemptible section before the deferred retry interrupt
          can preempt it *)
  seed : int64;
  max_events : int;  (** safety cap on simulation events *)
  trace : Obs.Trace.config option;
      (** enable the observability layer: the server builds an
          {!Obs.Trace.t} on its internal simulation clock, threads it
          through the interrupt fabric, the timer core, kernel locks and
          the fault ledger, and returns it in {!result.trace}.  [None]
          (default) emits nothing and perturbs nothing — a traced and an
          untraced run of the same seed are bit-identical. *)
  guard : Guard.config option;
      (** overload control: admission (bounded queue, CoDel-style
          delay shedding, token buckets), client timeouts with
          budgeted retries, and the brownout breaker.  [None]
          (default) is an exact no-op — same events, same RNG forks,
          byte-identical results to a guard-less build. *)
  telemetry : Telemetry.config option;
      (** live telemetry: a sim-time tick aggregating per-core latency
          sketches, SLO burn rates, core-time attribution and the
          quantum-controller audit trail, surfaced through
          {!probes.on_tick} and {!result.telemetry}.  [None] (default)
          skips every hook — identical latencies, allocation-free hot
          path.  (The tick does add bookkeeping events, so
          {!result.sim_events} grows when enabled.) *)
}

val default_config : n_workers:int -> policy:Policy.t -> mechanism:mechanism -> config

type probes = {
  on_complete : now:int -> latency_ns:int -> cls:Workload.Request.cls -> unit;
  on_window : Stats_window.snapshot -> quantum_ns:int -> unit;
      (** fired at every stats-window boundary, after the policy's
          controller ran; [quantum_ns] is the policy's quantum for LC
          requests at that moment *)
  on_tick : Telemetry.frame -> unit;
      (** fired at every telemetry tick (only when
          {!config.telemetry} is set) — the live feed behind
          [lpctl run --top] *)
}

val no_probes : probes

type resilience = {
  fault_report : Fault.report;
      (** the ledger: injected / detected / recovered per point, with
          [detected <= injected] and [recovered <= detected] by
          construction *)
  wd : Utimer.wd_stats option;  (** present when the run used LibUtimer *)
  timer_health : Utimer.health option;
  wedged : int;  (** interrupts deferred by the ["server.wedge"] fault *)
  fallback_engaged : bool;
      (** the timer degraded and preemption fell back to kernel timers *)
}

type result = {
  duration_ns : int;
  measured_ns : int;
  offered : int;
      (** measured arrivals — every attempt the clients presented,
          including shed ones and retries *)
  completed : int;  (** measured completions *)
  cancelled : int;  (** measured cancellations (SLO-doomed requests) *)
  dropped : int;
      (** measured server-side drops of expired queued work (guard
          [drop_expired]); after the drain
          [offered = completed + cancelled + dropped + shed] *)
  shed : int;  (** measured admission rejections (never executed) *)
  goodput : int;
      (** measured completions that reached a client still waiting —
          equals [completed] without a guard timeout *)
  goodput_rps : float;
      (** goodput completions inside the measurement window over its
          length — the figure of merit under overload *)
  all : Stat.Summary.report;
  lc : Stat.Summary.report option;
  be : Stat.Summary.report option;
  throughput_rps : float;
      (** completions that landed inside the measurement window divided
          by its length (drain-time completions are excluded, so an
          overloaded system reports its sustainable rate) *)
  offered_rps : float;
  preemptions : int;
  timer_interrupts : int;
  spurious_interrupts : int;
  ctx_high_water : int;
  worker_busy_frac : float;
  long_queue_hwm : int;
  dispatch_queue_hwm : int;
  sim_events : int;
      (** engine callbacks fired over the whole run (including warmup
          and drain) — deterministic for a given seed and config, and
          the numerator of [bench --perf]'s events-per-second figure *)
  resilience : resilience option;
      (** [Some] exactly when the run was configured with a fault plan *)
  guard : Guard.report option;
      (** [Some] exactly when {!config.guard} was set: the overload
          ledger (sheds by cause, timeouts, retries, breaker history) *)
  trace : Obs.Trace.t option;
      (** [Some] exactly when {!config.trace} was set; feed it to
          {!Obs.Export.perfetto} / {!Obs.Breakdown.of_trace} *)
  metrics : Obs.Metrics.snapshot;
      (** registry snapshot taken after the drain: request totals,
          interrupt counts, the [sim.live_events] gauge,
          the end-to-end latency histogram, the [guard.state] gauge
          (when guarded), and (when tracing) [trace.recorded] /
          [trace.dropped] *)
  telemetry : Telemetry.report option;
      (** [Some] exactly when {!config.telemetry} was set: tick count,
          whole-run per-core time attribution, SLO reports (budget
          consumed, burn-alert edges and their first-fire times) and
          the quantum-controller audit trail *)
}

val run :
  ?probes:probes ->
  ?warmup_ns:int ->
  config ->
  arrival:Workload.Arrival.t ->
  source:Workload.Source.t ->
  duration_ns:int ->
  result
(** Simulate the server under an open-loop arrival stream for
    [duration_ns]; arrivals then stop and the system drains.  Requests
    arriving in [warmup_ns, duration_ns) are measured.  Raises
    [Invalid_argument] on inconsistent parameters, and [Failure] if the
    event cap is hit before the system drains or if no measured request
    completes (the message then says "no measured completions"). *)

val run_trace :
  ?probes:probes ->
  ?warmup_ns:int ->
  config ->
  requests:Workload.Request.t list ->
  duration_ns:int ->
  result
(** Replay a pre-materialized request trace (e.g. from
    {!Workload.Tracegen}) instead of sampling an arrival process —
    fully deterministic inputs for tests and repeatable experiments.
    All requests must arrive before [duration_ns]. *)

val pp_result : Format.formatter -> result -> unit

val pp_resilience : Format.formatter -> resilience -> unit

(** {2 Cluster composition}

    [run] owns its whole simulation; a fleet needs N servers sharing
    one clock so a load balancer can read live queue state.  An
    {e instance} is a fully wired server attached to a caller-owned
    {!Engine.Sim.t}: the caller feeds it arrivals ({!inject}), ends the
    arrival phase ({!end_arrivals}), runs the shared engine, and
    collects the usual {!result} with {!finish}.  [Cluster.run] is the
    intended consumer; [run] itself is [create] + [start] + one
    private sim. *)

type t
(** A live server instance attached to a shared simulation. *)

val create :
  ?probes:probes -> ?warmup_ns:int -> config -> sim:Engine.Sim.t -> duration_ns:int -> t
(** Wire a server onto [sim]: cores, queues, pools, the preemption
    mechanism and (when configured) guard/trace/telemetry.  RNG streams
    are forked from [sim] in a fixed order, so instance creation order
    is part of the experiment's seed.  [config.seed] and
    [config.max_events] are ignored — the caller owns the engine.
    Raises [Invalid_argument] on inconsistent parameters, exactly like
    {!run}. *)

val start : t -> unit
(** Arm the periodic stats-window and telemetry loops.  Call once,
    after the initial arrival events are scheduled (event-insertion
    order breaks equal-timestamp ties). *)

val inject : t -> service_ns:int -> cls:Workload.Request.cls -> unit
(** Offer one request arriving at the current simulation time; it runs
    the same admission path (guard verdicts included) as a sampled
    arrival.  Raises [Invalid_argument] at or past [duration_ns]. *)

val end_arrivals : t -> unit
(** Declare the arrival phase over; the instance drains and then shuts
    its mechanism and loops down. *)

val inflight : t -> int
(** Requests admitted but not yet completed/cancelled/dropped — the
    JSQ/least-loaded dispatch signal. *)

val queue_depth : t -> int
(** Requests queued but not in service (dispatch + long + local
    queues) — the work-stealing imbalance signal. *)

val completed_so_far : t -> int
(** Measured completions so far (fleet telemetry ticks). *)

val steal_from : victim:t -> thief:t -> max:int -> int
(** Migrate up to [max] queued-but-unstarted requests from [victim]
    into [thief]'s dispatch pipeline, returning the number moved.
    Arrival stamps are preserved, and the stolen requests are {e not}
    re-counted as offered at the thief, so fleet-level conservation
    holds.  Raises [Invalid_argument] when [victim == thief]. *)

val finish : t -> result
(** Collect the result after the shared engine drained.  Raises
    [Failure] when requests are still outstanding (event cap hit) or no
    measured request completed. *)
