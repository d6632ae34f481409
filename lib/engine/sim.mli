(** Discrete-event simulation engine.

    A single-threaded, deterministic event loop over integer-nanosecond
    time.  Every simulated component (UINTR delivery, kernel locks,
    timer cores, schedulers, workload generators) is expressed as
    callbacks scheduled on one [Sim.t].

    {2 Determinism}

    Events at equal timestamps fire in scheduling order, and all
    randomness flows through the engine's seeded {!Rng.t}.

    {2 Allocation discipline and handle lifetime}

    Scheduling is allocation-free: event records live in a slab and
    are recycled by id (DESIGN §9), so an {!event} handle is only
    meaningful {e while its event is still pending}.  The moment the
    event fires or is cancelled, its record may be reused for the next
    event scheduled, and the old handle aliases the new one.
    Concretely:

    - call {!cancel} only on events that have neither fired nor been
      cancelled; a second {!cancel} is a no-op only until the next
      {!at}/{!after}, which may reuse the record;
    - drop (or overwrite with {!null}) stored handles as the
      {e first} action of the event's own callback, and right after
      cancelling them, before scheduling anything new;
    - never consult {!is_pending}/{!time_of} on a handle kept across
      its own firing or cancellation.

    Every component in this repository follows the discipline; it is
    only observable to code that squirrels handles away. *)

type t

type event
(** A handle to a scheduled occurrence, usable for cancellation while
    the occurrence is pending (see the handle-lifetime contract
    above). *)

val null : event
(** A handle that is never pending.  Components store it as the rest
    state of an [event] field so arming a timer does not allocate a
    [Some] block; {!cancel} and {!is_pending} treat it as an
    already-dead event. *)

val create : ?seed:int64 -> unit -> t
(** Fresh simulator at time 0. Default seed is 42. *)

val now : t -> int
(** Current simulation time in nanoseconds. *)

val rng : t -> Rng.t
(** The simulator's root random stream. *)

val fork_rng : t -> Rng.t
(** An independent random stream derived from the root (give one to
    each component that samples). *)

val at : t -> int -> (unit -> unit) -> event
(** [at t time f] schedules [f] to run when the clock reaches [time].
    [time] must not be in the past.  Allocation-free once the slab
    has a free record (it grows to the peak number of live events). *)

val after : t -> int -> (unit -> unit) -> event
(** [after t d f] schedules [f] to run [d >= 0] nanoseconds from now. *)

val cancel : event -> unit
(** Cancel a pending event: it leaves the queue at once and its record
    is free for the next schedule.  Cancelling it again is a no-op
    only until then.  Must not be called on a handle whose event has
    fired or whose record may have been reused — it would cancel that
    other event. *)

val is_pending : event -> bool
(** True if the event has neither fired nor been cancelled.  Only
    meaningful under the handle-lifetime contract. *)

val time_of : event -> int
(** The time the event is scheduled for.  Raises [Invalid_argument]
    if the event is not pending. *)

val live_events : t -> int
(** Exact number of scheduled events that have neither fired nor been
    cancelled: the size of the queue, which holds nothing else. *)

val events_fired : t -> int
(** Total number of callbacks the loop has run since {!create} —
    cancelled events are not counted.  The numerator of
    the engine's events-per-second figure ([bench --perf]). *)

val step : t -> bool
(** Run the next event, advancing the clock. Returns [false] when the
    queue is exhausted. *)

val run : ?max_events:int -> t -> unit
(** Run until no events remain, or until [max_events] have fired. *)

val run_until : t -> int -> unit
(** Run all events with timestamp [<= limit], then set the clock to
    [limit] (if it is ahead of the last event). *)
