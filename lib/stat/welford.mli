(** Streaming mean / variance (Welford's algorithm). *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Allocation-free: the state is stored as unboxed floats. *)

val add_int : t -> int -> unit
(** [add_int t n] is [add t (float_of_int n)], with no float boxed to
    cross the call: the allocation-free path for integer samples such
    as nanosecond waits. *)

val count : t -> int

val mean : t -> float
(** 0.0 when empty. *)

val variance : t -> float
(** Sample variance (n-1 denominator); 0.0 with fewer than 2 samples. *)

val stddev : t -> float

val min_value : t -> float
(** Smallest observation; [infinity] when empty. *)

val max_value : t -> float
(** Largest observation; [neg_infinity] when empty. *)

val merge : t -> t -> t
(** Combine two accumulators (parallel variance formula). *)

val merge_into : dst:t -> src:t -> unit
(** In-place variant of {!merge}: fold [src] into [dst]. *)
