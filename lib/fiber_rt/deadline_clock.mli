(** Clocks for the real-execution fiber runtime.

    The wall clock backs the live runtime (the quickstart example); the
    virtual clock makes runtime behaviour fully deterministic for tests:
    fiber code advances it explicitly, standing in for the passage of
    execution time. *)

type t

val wall : unit -> t
(** Monotonic-enough wall time in nanoseconds. *)

val virtual_ : unit -> t
(** Starts at 0; advances only via {!advance}. *)

val now_ns : t -> int

val advance : t -> int -> unit
(** Move a virtual clock forward. Raises [Invalid_argument] on a wall
    clock or negative amount. *)
