(** Quantile computation over latency samples.

    Two flavours:
    - {!exact}: sorts a copy of the samples; the reference used by tests
      and by bounded-size experiment runs.
    - {!P2}: the P² streaming estimator for long-running monitors
      (used by the scheduler's statistics window, which must be O(1)
      per request as the paper requires the control loop off the
      critical path). *)

val exact : float array -> float -> float
(** [exact samples q] is the [q]-quantile ([0 <= q <= 1]) using linear
    interpolation between order statistics. Raises [Invalid_argument] on
    an empty array or out-of-range [q]. *)

val median : float array -> float

val percentile : float array -> float -> float
(** [percentile samples 99.0] is [exact samples 0.99]. *)

module P2 : sig
  type t

  val create : float -> t
  (** [create q] tracks the [q]-quantile ([0 < q < 1]). *)

  val add : t -> float -> unit

  val add_int : t -> int -> unit
  (** [add_int t n] is [add t (float_of_int n)], with no float boxed
      to cross the call: the allocation-free path for integer samples
      such as nanosecond latencies. *)

  val count : t -> int

  val get : t -> float
  (** Current estimate. With fewer than 5 observations, falls back to
      the exact quantile of what has been seen. Raises on no data. *)
end
