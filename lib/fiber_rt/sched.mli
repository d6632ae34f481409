(** Real-time open-loop request executor over {!Pool} — the "real"
    half of sim-vs-real cross-validation.

    Callers pre-generate a schedule (typically from a scenario spec via
    [Scenario.rt_schedule], using the same arrival/source samplers the
    simulator lowers to) and replay it against real domains under wall
    time. *)

type item = {
  at_ns : int;  (** intended arrival, ns offset from dispatch start *)
  service_ns : int;  (** active CPU time the request burns *)
  lc : bool;  (** latency-critical (vs best-effort) *)
}

type result = {
  offered : int;
  completed : int;
  failed : int;
  preemptions : int;
  steals : int;
  wall_ns : int;  (** dispatch start to last completion *)
  per_worker : int array;  (** jobs completed per worker domain *)
  all : Stat.Summary.report;  (** latency, ns (warmup excluded) *)
  lc : Stat.Summary.report option;
  be : Stat.Summary.report option;
}

val run : workers:int -> ?quantum_ns:int -> ?warmup_ns:int -> item array -> result
(** Replay [schedule] on a fresh pool of [workers] domains and tear the
    pool down.  Latency is measured from each item's {e intended}
    arrival ([at_ns]), so dispatcher lateness counts as queueing, as it
    would for an open-loop client.  Items with [at_ns < warmup_ns]
    execute but are excluded from the latency reports.  Omitting
    [quantum_ns] disables preemption.  Raises [Invalid_argument] on
    negative arrival or service times, and [Failure] ("no measured
    completions") when no item at or after [warmup_ns] completed. *)

val pp_result : Format.formatter -> result -> unit
