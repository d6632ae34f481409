(** Real-execution preemptible functions on OCaml 5 effects.

    This is the LibPreemptible API (Sec IV-C) running actual OCaml code
    under real (or virtual) time, rather than in the simulator:

    - {!fn_launch} creates a preemptible function and runs it
      immediately; control returns to the caller when it completes or
      its time slice is reached;
    - {!fn_resume} continues a preempted function under a fresh slice;
    - {!fn_completed} asks whether a reschedule is needed.

    Preemption works like LibUtimer, translated to what a memory-safe
    runtime allows: before resuming a function the scheduler arms a
    {e deadline slot} (an [Atomic] cell standing for the 64-byte
    deadline line); a timer — either the polling {!checkpoint} itself
    ([Inline]) or an outside watcher such as [Pool]'s shared timer
    domain ([External], the analogue of the dedicated timer core) —
    raises the preempt flag when the deadline passes; the function
    observes the flag at its next {!checkpoint} (safepoint) and yields.
    OCaml cannot take a true asynchronous interrupt mid-instruction, so
    safepoints substitute for hardware delivery; the DESIGN.md
    substitution table discusses why this preserves the scheduling
    semantics.  A runtime spawns no domain of its own. *)

type t
(** A runtime instance: one scheduler thread's deadline slot, preempt
    flag, quantum, and counters. *)

type 'a fn
(** A preemptible function returning ['a]. *)

type timer_mode =
  | Inline  (** checkpoints compare the clock to the deadline themselves *)
  | External
      (** some other party (a pool's shared timer domain, or a test)
          watches the slot via {!poll_slot}; checkpoints only read the
          flag.  This is the LibUtimer shape: one timer core arming N
          deadline slots. *)

val create :
  ?quantum_ns:int ->
  ?timer:timer_mode ->
  ?trace:Obs.Trace.t ->
  clock:Deadline_clock.t ->
  unit ->
  t
(** Default quantum 1 ms, timer [Inline].

    When [trace] is supplied (built on the same clock — pass
    [Deadline_clock.now_ns clock] as its clock closure), the runtime
    emits {!Obs.Trace.cat.Fiber} instants on track 0: ["fiber.arm"]
    (arg = slice ns) per armed slice, ["fiber.preempt"] (arg = running
    preemption count) per involuntary switch, and ["fiber.yield"] per
    cooperative yield.  Only worker-side paths emit, so an [External]
    watcher never touches the ring. *)

val clock : t -> Deadline_clock.t

val quantum_ns : t -> int

val set_quantum_ns : t -> int -> unit
(** Adjust the time slice for subsequent launches/resumes (the adaptive
    controller's knob). Raises on non-positive values. *)

val fn_launch : t -> ?quantum_ns:int -> (unit -> 'a) -> 'a fn
(** Create and immediately run a preemptible function until it
    completes or exceeds its slice. Raises [Invalid_argument] if called
    while another function is running on this runtime (one worker =
    one running function). If the function itself raises, the exception
    propagates and the fn is marked failed. *)

val fn_resume : 'a fn -> unit
(** Continue a preempted function. Raises [Invalid_argument] if it
    already completed or is currently running. *)

val fn_resume_on : t -> 'a fn -> unit
(** Continue a preempted function on a {e different} runtime — the
    work-stealing path: the thief domain resumes the continuation under
    its own deadline slot and quantum accounting.  The function body
    must resolve its runtime dynamically (e.g. [Pool.checkpoint], which
    reads domain-local state) rather than capturing the launch-time
    runtime.  Same preconditions as {!fn_resume}. *)

val fn_completed : 'a fn -> bool

val result : 'a fn -> 'a option
(** [Some r] once completed. *)

val preempt_count : 'a fn -> int

val checkpoint : t -> unit
(** Safepoint: fiber code calls this at loop boundaries; yields if the
    current slice expired. No-op outside a running function. *)

val poll_slot : t -> now_ns:int -> bool
(** Fire the deadline slot if armed and expired at [now_ns]: disarm it
    and raise the preempt flag, returning [true].  This is what an
    [External] watcher calls — one shared timer domain sweeping N
    runtimes' slots.  Also usable against [Inline] runtimes in
    tests. *)

val deadline_ns : t -> int
(** Current armed absolute deadline, 0 when disarmed — lets an external
    timer sleep until the nearest slot. *)

val yield : t -> unit
(** Unconditional cooperative yield (counts as a voluntary switch, not
    a preemption). Must be called from inside a running function. *)

val sleep_until : t -> wake_ns:int -> unit
(** Blocking yield: suspend the function and record an absolute wake
    time, so a blocking-aware scheduler can park it (freeing the domain
    for other work) instead of requeueing it hot.  The scheduler reads
    the wake time with {!blocked_until}.  Must be called from inside a
    running function. *)

val blocked_until : 'a fn -> int option
(** [Some wake_ns] when the last suspension was a {!sleep_until} (and
    the fiber has not been resumed since); [None] for preemptions and
    plain yields. *)

val preemptions : t -> int
(** Total involuntary preemptions across the runtime's lifetime. *)
