(** The benchmark's own statistics: latency percentiles, run-to-run
    quartiles, and the verdict rules of [main.exe compare]. *)

val percentile : float array -> float -> float
(** [percentile xs p] is the nearest-rank [p]-th percentile (0 < p <=
    100): the smallest sample with at least [p]% of the samples at or
    below it.  Raises [Invalid_argument] on an empty array. *)

val median : float array -> float
(** The middle sample, or the mean of the two middle samples (Python's
    [statistics.median]).  Raises [Invalid_argument] on an empty array. *)

val quartiles : float array -> float * float * float
(** [(q1, median, q3)], with [q1]/[q3] as Python's
    [statistics.quantiles xs ~n:4] computes them (the "exclusive"
    method), so a spread printed here is the spread a reader computes
    from the same values.  A single sample is its own quartiles. *)

val spread : float array -> float
(** [(q3 - q1) / median]: the run-to-run spread as a share of the
    median ([0.] when the median is [0.]). *)

val windows :
  times:float array -> values:float array -> start:float -> width:float -> stop:float ->
  float array list
(** Group samples into the full windows [\[start + k*width, start +
    (k+1)*width)] that end at or before [stop], dropping empty ones.
    [times] and [values] are parallel. *)

val subrun_latency : float array list -> float * float
(** [(p50, p99)] of op latencies measured in several sub-runs (time
    windows, rounds, simulations): the median of the sub-runs'
    nearest-rank p50s, and the lower quartile of their p99s.  A host
    stall slows the sub-runs it falls in; unless it covers most of
    them, it moves neither number.
    Raises [Invalid_argument] when no sub-run holds a sample. *)

type better = Lower | Higher

type verdict = Agree | Better | Worse | Unresolved

val verdict_name : verdict -> string

val verdict : better:better -> bound:float -> before:float array -> after:float array -> verdict
(** Judge [after] against [before] (each a set of runs):
    - if either side's {!spread} exceeds [bound], the result is
      [Unresolved] unless every [after] run is better than every
      [before] run ([Better]) or every one is worse ([Worse]);
    - otherwise the change of the median, as a share of the [before]
      median and signed so that positive is worse, decides: above
      [bound] is [Worse], below [-bound] is [Better], else [Agree].
    Raises [Invalid_argument] when a side is empty. *)
