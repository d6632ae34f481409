(** Windowed time series for the time-plots in the evaluation
    (Fig 9 SLO violations over time, Fig 14 QPS / latency traces).

    Observations are bucketed by a fixed window width; each bucket keeps
    streaming moments so the series can be rendered as
    (window start, count, mean, max) rows. *)

type t

type point = {
  t_start : int; (* window start, ns *)
  count : int;
  mean : float;
  max : float;
  sum : float;
}

val create : window_ns:int -> t
(** Requires [window_ns > 0]. *)

val record : t -> time:int -> float -> unit
(** Record value at simulation time [time] (>= 0). *)

val mark : t -> time:int -> unit
(** Record an event with no magnitude (counting series, e.g. QPS). *)

val points : t -> point list
(** All non-empty windows in time order. *)

val rate_per_sec : point -> window_ns:int -> float
(** Events per second represented by a counting-window point. *)
