(** Declarative scenario specifications.

    A {e scenario} is everything that defines one experiment: the
    system under test, worker/topology budget, quantum policy, workload
    mix, arrival process, guard configuration, fault schedule, and run
    length — the tuple every `bench_fig*.ml` file used to assemble by
    hand.  This module gives that tuple a symbolic AST, a compact
    textual syntax (following the {!Fault.parse} DSL precedent), a
    canonical printer with [parse (print s) = Ok s], and a lowering
    into {!Preemptible.Server} / {!Cluster} runs.

    Syntax: [;]-separated (or newline-separated) [key=value] fields;
    [#] starts a comment; braces group sub-blocks.  For example:

    {v
      # 4-worker adaptive server under a heavy-tailed flash crowd
      sys=lp; workers=4; quantum=adaptive
      src=a1; arrival=flash:0.5x:3x:50ms:10ms:40ms:10ms
      dur=200ms; warmup=20ms
      guard={timeout=200us;expire;shed={q=24;target=40us;interval=200us}}
    v}

    See SCENARIOS.md for the full language reference.  Unset fields
    take defaults (below); the printer omits fields equal to their
    default, so [to_string default = ""]. *)

(** {1 The AST}

    Fully symbolic — no closures — so specs compare structurally,
    print canonically, and round-trip through {!of_string}. *)

type cls = Lc | Be

(** Service-time distributions: the paper's named workloads (Sec V-A)
    plus the generic constructors of {!Workload.Service_dist}.  Times
    are integer nanoseconds. *)
type dist =
  | A1  (** bimodal 99.5% x 0.5us + 0.5% x 500us (heavy-tailed) *)
  | A2  (** bimodal 99.5% x 5us + 0.5% x 500us *)
  | B  (** exponential, mean 5us (light-tailed) *)
  | C  (** A1 for the first half of the run, then B (shift) *)
  | Const of int
  | Exp of int  (** mean *)
  | Bimodal of { short_ns : int; long_ns : int; long_fraction : float }
  | Lognormal of { mean_ns : int; std_ns : int }
  | Pareto of { scale_ns : int; shape : float }

(** What kind of work arrives: a distribution with a request class, an
    application model, or a weighted / Zipf-skewed mixture. *)
type source =
  | Dist of dist * cls
  | Mica  (** the MICA KV-store model ({!Workload.Mica}) *)
  | Zlib  (** the zlib best-effort compression model *)
  | Mix of (float * source) list  (** weighted mixture *)
  | Tenants of { theta : float; tenants : source list }
      (** Zipf-skewed multi-tenant mix; tenant 0 is hottest *)

(** A rate, absolute ([250000] rps) or relative to {!capacity_rps}
    ([0.8x]). *)
type rate = Abs of float | Load of float

type arrival =
  | Poisson of rate
  | Uniform of rate
  | Bursty of { base : rate; spike : rate; period_ns : int; spike_fraction : float }
  | Flash of {
      base : rate;
      peak : rate;
      start_ns : int;
      ramp_ns : int;
      hold_ns : int;
      decay_ns : int;
    }
  | Diurnal of { base : rate; amplitude : float; period_ns : int }
  | Mmpp of { rates : rate list; mean_hold_ns : int; seed : int64 }
  | Piecewise of (int * arrival) list  (** [(until_ns, process)] segments *)

type quantum =
  | No_preempt  (** run to completion, no preemption mechanism *)
  | Fixed of int  (** fixed quantum, ns *)
  | Adaptive of { init_ns : int; ctl : Preemptible.Quantum_controller.config }
      (** Algorithm 1; [ctl] defaults to
          {!Preemptible.Quantum_controller.default_config} *)

type system =
  | Lp  (** LibPreemptible: LibUtimer + UINTR *)
  | Lp_nouintr  (** timer core delivering kernel signals (ablation) *)
  | Shinjuku
  | Libinger
  | Nopreempt
  | Go

(** Token bucket whose rate may be capacity-relative. *)
type bucket = { b_rate : rate; b_burst : float }

type retry = {
  r_attempts : int;
  r_backoff_ns : int;
  r_max_backoff_ns : int;
  r_jitter : float;
  r_budget : bucket option;  (** [None] = naive unbudgeted retries *)
}

(** Symbolic {!Guard.config}: buckets carry {!rate}s so a scenario can
    say "retry budget = 5% of capacity". *)
type guard = {
  g_timeout_ns : int option;
  g_drop_expired : bool;
  g_shed : Guard.shed_config option;
  g_bucket : bucket option;  (** global token bucket *)
  g_lc_bucket : bucket option;
  g_be_bucket : bucket option;
  g_retry : retry option;
  g_brownout : Guard.brownout_config option;
}

type discipline = Fifo | Srpt | Edf of int  (** [Edf slo_ns] *)

type fleet = {
  f_n : int;
  f_lb : Cluster.lb;
  f_steal : Cluster.steal option;
  f_workers : int list option;
      (** per-member worker counts (heterogeneous fleet); length must
          equal [f_n]; [None] = every member gets [workers] *)
}

type t = {
  name : string option;
  system : system;
  workers : int;  (** per server (per fleet member) *)
  quantum : quantum;
  max_load : rate option;
      (** adaptive controller's max-load reference; [None] = capacity *)
  capref : int option;
      (** worker count capacity-relative rates refer to; [None] = the
          scenario's total worker count *)
  src : source;
  arrival : arrival;
  duration_ns : int;
  warmup_ns : int;
  seed : int64;
  window_ns : int option;  (** stats window; [None] = server default *)
  dispatch_ns : int option;  (** dispatcher cost override *)
  discipline : discipline option;
  cancel_ns : int option;  (** cancel-after-SLO bound *)
  guard : guard option;
  faults : string option;  (** a {!Fault.parse} spec string, verbatim *)
  watchdog : bool;
  fleet : fleet option;
}

val default : t
(** [sys=lp; workers=4; quantum=5us; src=a1; arrival=poisson:0.7x;
    dur=100ms; warmup=0ns; seed=42] and everything else off. *)

val default_adaptive_init_ns : int
(** Initial quantum for [quantum=adaptive] without an explicit init
    (20 us, the Fig 8 configuration). *)

(** {1 Parsing and printing} *)

type error = { pos : int; field : string; msg : string }
(** [pos] is a byte offset into the parsed text; [field] names the
    offending field (or ["scenario"] for structural errors). *)

val pp_error : Format.formatter -> error -> unit

val error_to_string : error -> string

val of_string : string -> (t, error) result
(** Parse a spec over {!default}.  [;] and newlines both separate
    fields; [#] comments run to end of line; whitespace around fields
    is ignored. *)

val override : t -> string -> (t, error) result
(** Parse additional fields onto an existing spec (last write wins) —
    the mechanism behind variant sweeps and [lpctl run -s KEY=V]. *)

val of_file : string -> (t, error) result
(** {!of_string} on a file's contents.  A file that cannot be read
    (missing, a directory, no permission) is an [Error] with
    [field = "file"] and [pos = 0]. *)

val to_string : t -> string
(** Canonical form: fixed field order, defaults omitted, times printed
    in the largest exactly-dividing unit.  [of_string (to_string s) =
    Ok s] for any well-formed [s] (the qcheck-pinned round-trip). *)

(** {1 Semantics} *)

val total_workers : t -> int
(** Worker cores across the whole scenario (fleet members summed). *)

val capacity_rps : t -> float
(** Peak sustainable rate of the reference worker count ({!t.capref},
    defaulting to {!total_workers}) for the scenario's source — the
    denominator of every [x]-relative rate.  For a phased source the
    slower phase is used.  Raises [Invalid_argument] for sources
    without an analytic mean ({!Mica}/{!Zlib}). *)

val rate_rps : t -> rate -> float
(** Resolve a rate to absolute requests/second. *)

val service_dist : t -> dist -> Workload.Service_dist.t

val source_sampler : t -> Workload.Source.t

val arrival_process : t -> Workload.Arrival.t

val guard_config : t -> Guard.config option
(** The lowered guard (bucket rates resolved against capacity). *)

val server_config : t -> Preemptible.Server.config
(** The full single-server lowering ({!Lp}/{!Lp_nouintr} only; raises
    [Invalid_argument] for baseline systems, which own their configs).
    Benches needing knobs outside the DSL (custom policies, telemetry)
    take this and record-update. *)

val cluster_config : t -> Cluster.config
(** The fleet lowering; raises [Invalid_argument] without {!t.fleet}.
    Member adaptive controllers get a per-member share of the max-load
    reference. *)

val validate : t -> (unit, string) result
(** Cross-field checks without running, so a bad spec is reported
    before any simulation work: positive worker counts, window and
    fixed quantum; [dur > 0] and [0 <= warmup < dur]; baseline systems
    reject lp-only knobs (guard, faults, fleets, adaptive quanta); the
    guard must pass {!Guard.validate} (e.g. retries need a timeout)
    and a fleet {!Cluster.validate} (e.g. stealing excludes retries);
    fault specs must parse, fleet worker lists must match [n],
    relative rates need an analytic service mean, etc. *)

(** {1 Running} *)

type outcome =
  | Server of Preemptible.Server.result
  | Fleet of Cluster.result

val run_server : ?probes:Preemptible.Server.probes -> t -> Preemptible.Server.result
(** Run a single-server scenario (raises [Invalid_argument] when
    {!t.fleet} is set).  Dispatches on {!t.system}: the lp family runs
    {!Preemptible.Server.run}; baselines run their own modules with
    the scenario's workers/quantum/seed. *)

val run_fleet : ?probes:Cluster.probes -> t -> Cluster.result
(** Run a fleet scenario (requires {!t.fleet}). *)

val run : t -> outcome
(** {!run_fleet} when {!t.fleet} is set, else {!run_server}. *)

val pp_outcome : Format.formatter -> outcome -> unit

val system_name : system -> string

(** {1 Real-time (fiber_rt) lowering}

    The same spec replayed on actual domains under wall time: the
    request schedule is pre-generated from the identical arrival/source
    samplers the simulator lowers to, then executed by
    {!Fiber_rt.Sched} on a work-stealing pool of [workers] domains.
    Only a subset of the language is executable for real: [sys=lp],
    no fleet, no guard, no faults/watchdog, no discipline/cancel, and a
    concrete quantum ([quantum=T] or [none] — the rt backend has no
    adaptive controller).  Unsupported specs raise [Invalid_argument]
    with a pointed message; {!validate_rt} returns it as [Error]. *)

val rt_schedule : t -> Fiber_rt.Sched.item array
(** Pre-generate the open-loop request schedule (arrival offset,
    service ns, class) for the spec, deterministically from its seed.
    Raises [Invalid_argument] for specs the rt backend cannot run, or
    if the schedule would exceed 2e6 requests. *)

val run_rt : t -> Fiber_rt.Sched.result
(** Generate the schedule and replay it on a fresh pool ([workers]
    domains, the spec's quantum and warmup).  This runs for the spec's
    [dur] in {e wall-clock} time. *)

val validate_rt : t -> (unit, string) result
(** Like {!validate} but for the rt backend's supported subset. *)
