(** Indexed 4-ary min-heap of int ids keyed by [(time, seq)].

    The backbone of the event queue.  An entry is a small non-negative
    [int] id (the owner's name for a payload it keeps elsewhere — {!Sim}
    uses it as a slot in its slab of event records).  Keys and ids are
    stored in unboxed [int] arrays, and a second [int] array maps each
    id to its position, so every heap operation moves only ints: it
    allocates nothing (outside array growth) and never hits the write
    barrier, and {!remove} takes an entry out at once instead of
    leaving a dead one behind (see {e DESIGN §9} for the performance
    model).

    Ordering is lexicographic on [(time, seq)]: entries with equal
    timestamps pop in ascending sequence order.  {!Sim} feeds a
    strictly increasing sequence number, which makes same-timestamp
    events fire in scheduling order — the determinism contract every
    figure in the reproduction relies on. *)

type t

val create : ?capacity:int -> unit -> t
(** [create ()] is an empty heap.  [capacity] (default 64) is the
    initial size of the backing arrays; they grow by doubling. *)

val size : t -> int
(** Number of entries currently stored. O(1). *)

val is_empty : t -> bool

val add : t -> time:int -> seq:int -> int -> unit
(** [add t ~time ~seq id] inserts [id].  O(log₄ n), allocates only when
    the backing arrays grow.  Raises [Invalid_argument] if [id] is
    negative or already in the heap. *)

val mem : t -> int -> bool
(** [mem t id] is true while [id] is in the heap. O(1). *)

val remove : t -> int -> unit
(** [remove t id] takes [id] out of the heap. O(log₄ n),
    allocation-free.  Raises [Invalid_argument] if [id] is not in the
    heap. *)

val time_of : t -> int -> int
(** Key time of an id in the heap; raises [Invalid_argument] if [id]
    is not in the heap. *)

(** {1 Zero-allocation access}

    The three accessors below are the engine's hot path.  They are
    undefined on an empty heap (asserted in debug builds): guard with
    {!is_empty}. *)

val min_time : t -> int
(** Timestamp of the smallest entry. *)

val min_id : t -> int
(** Id of the smallest entry, without removing it. *)

val drop_min : t -> unit
(** Remove the smallest entry. O(log₄ n), allocation-free. *)

(** {1 Allocating conveniences}

    Option/tuple-returning wrappers, used by tests and model oracles;
    the simulator itself never calls them. *)

val peek : t -> (int * int * int) option
(** Smallest [(time, seq, id)] without removing it. *)

val pop : t -> (int * int * int) option
(** Remove and return the smallest entry. *)

val clear : t -> unit
(** Drop every entry. *)
