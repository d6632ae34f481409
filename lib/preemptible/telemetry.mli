(** Live scheduler telemetry: a sim-time tick that aggregates per-core
    latency sketches, evaluates SLO burn rates, attributes core time,
    and keeps the quantum-controller audit trail.

    Everything here is {e passive}: the tick schedules its own timer
    event but reads the simulation without touching RNG streams, queues
    or scheduling decisions, so a run with telemetry enabled produces
    bit-identical latencies to the same run without it (tested).  With
    {!Server.config.telemetry} = [None] the server skips every hook —
    the hot path stays allocation-free and the existing CI ceilings
    hold.

    Data flow per tick (default 1 ms of sim time):

    + each worker owns an {!Obs.Sketch} fed on completion; the tick
      merges them into a global window sketch (the per-core -> global
      aggregation path) and reads windowed p50/p99;
    + each {!Obs.Slo} tracker whose window elapsed is rolled, burn
      rates recomputed, and alert edges emitted as trace instants;
    + per-core time attribution (service / dispatch+sched / preemption
      overhead / idle, with wasted work as a sub-category of service)
      is advanced from the cores' cumulative busy/stall clocks plus the
      explicit transition costs the server reports;
    + a {!frame} is handed to the [on_tick] probe — the feed behind
      [lpctl run --top].

    The audit trail records one entry per stats window: the window
    statistics Algorithm 1 saw and the quantum it answered with. *)

type config = {
  tick_ns : int;  (** telemetry tick period (sim time), must be positive *)
  slos : Obs.Slo.spec list;
  sketch_alpha : float;  (** relative error of the latency sketches *)
  audit_capacity : int;
      (** keep the first this-many controller decisions (later ones are
          counted but dropped) *)
}

val default : config
(** 1 ms tick, [[Obs.Slo.default_spec]], alpha 0.01, 8192 entries. *)

(** Whole-run per-core time attribution, in sim-ns.  [service_ns]
    counts executed request work (including the [wasted_ns]
    sub-category: work spent on requests later cancelled or completed
    past their client's patience); [sched_ns] counts dispatch/launch/
    resume/complete transition costs; [preempt_ns] counts preemption
    overhead (handler entry/exit, context swap, wedges, spurious
    stalls); [idle_ns] is the remainder of the elapsed time. *)
type core_attr = {
  service_ns : int;
  sched_ns : int;
  preempt_ns : int;
  idle_ns : int;
  wasted_ns : int;
}

type frame = {
  f_at_ns : int;
  f_elapsed_ns : int;  (** sim-ns since the previous tick *)
  f_quantum_ns : int;  (** live LC quantum ([max_int] = uncapped) *)
  f_guard : Guard.state option;
  f_arrivals : int;  (** arrivals since the previous tick *)
  f_completions : int;  (** completions observed since the previous tick *)
  f_qlen : int;  (** queued requests (dispatch + long + local) *)
  f_p50_ns : float;  (** windowed; [nan] when no completions this tick *)
  f_p99_ns : float;
  f_cores : core_attr array;  (** attribution for this tick's window *)
  f_slos : (string * Obs.Slo.status) list;
      (** latest status per SLO tracker (empty until first roll) *)
}

type audit_entry = {
  a_at_ns : int;
  a_arrival_rate_per_s : float;
  a_p99_ns : float;
  a_qlen : int;
  a_quantum_before_ns : int;
  a_quantum_after_ns : int;
}

type report = {
  t_ticks : int;
  t_cores : core_attr array;  (** whole-run totals *)
  t_slos : Obs.Slo.report list;
  t_audit : audit_entry list;  (** in decision order *)
  t_audit_dropped : int;
}

type t

val create :
  config ->
  n_cores:int ->
  cores:Hw.Core.t array ->
  ?guard:Guard.t ->
  ?trace:Obs.Trace.t ->
  unit ->
  t
(** Raises [Invalid_argument] on a non-positive tick, alpha outside
    (0,1), an invalid SLO spec, or [cores] shorter than [n_cores]. *)

val note_latency : t -> core:int -> latency_ns:int -> unit
(** A measured completion on [core]: feeds that core's sketch and every
    SLO tracker.  O(1), called from the server's completion path. *)

val note_sched : t -> core:int -> ns:int -> unit
(** Dispatch/launch/resume/complete transition cost on [core]. *)

val note_preempt : t -> core:int -> ns:int -> unit
(** Preemption overhead (handler entry + swap + exit) on [core]. *)

val note_wasted : t -> core:int -> ns:int -> unit
(** Executed work that ended up discarded (cancelled / past patience). *)

val audit :
  t -> now:int -> snapshot:Stats_window.snapshot -> quantum_before_ns:int ->
  quantum_after_ns:int -> unit
(** Record one quantum-controller decision; emits a ["qc.decision"]
    trace instant when tracing. *)

val tick : t -> now:int -> quantum_ns:int -> arrivals_total:int -> qlen:int -> frame
(** Close the current telemetry window: merge per-core sketches, roll
    due SLO trackers (emitting burn-alert edge instants and counter
    samples when tracing), attribute core time, and return the frame.
    The caller (the server's telemetry loop) invokes this every
    [tick_ns]. *)

val report : t -> report
(** Whole-run totals; safe to call once after the drain. *)

val pp_core_attr : Format.formatter -> core_attr -> unit
