(** Figures as data.

    A figure of the evaluation is a base scenario, the axes it sweeps
    and the metrics it reads off each run.  An axis is a list of
    cases; a case names its point on the axis with labels and moves
    the base spec there with a [-s]-style override
    ({!Scenario.override}).  A point takes one case from every axis,
    outer axis first, so {!points} lists them in the order the bench
    report does.  A figure whose own rate arithmetic differs from a
    capacity-relative [x] rate in the last bit writes that rate as an
    absolute value. *)

type labels = (string * string) list

type case = labels * string
(** The labels a case adds to a point, and its override text ([""]
    when the labels only name the point). *)

type 'r t = {
  name : string;  (** the figure's name in the bench report *)
  base : string;  (** base scenario text *)
  axes : case list list;  (** outermost first *)
  run : labels -> Scenario.t -> 'r;
      (** runs one point; the labels are there for the few figures that
          set a knob the scenario language has no field for *)
  metrics : (string * ('r -> float)) list;  (** report metrics, in order *)
  expected : string;  (** the shape the paper predicts, printed after the figure *)
}

val axis : string -> (string * string) list -> case list
(** [axis name [(label, override); ...]]: one [name] label per case. *)

val loads : float list -> case list
(** The [load] axis: label [%g], override [arrival=poisson:%gx]. *)

val quanta : int list -> case list
(** The [quantum_ns] axis over quanta in microseconds, [0] meaning no
    preemption: label the quantum in ns, override [quantum=Nus] or
    [quantum=none]. *)

val points : 'r t -> (labels * Scenario.t) list
(** Every point of the figure, with its labels and spec.
    @raise Invalid_argument when the base or an override does not
    parse. *)

val server_metric : string -> string * (Preemptible.Server.result -> float)
(** A metric of a server run by its report name: [tput_rps];
    [p50_us], [p99_us], [p999_us] and [mean_us] over all requests;
    [lc_p50_us], [lc_p99_us], [lc_mean_us], [be_p50_us] and
    [be_p99_us] per class ([nan] when the class saw no request);
    the counts [preemptions], [cancelled], [completed] and [offered];
    or [shed_frac], the shed share of offered requests.
    @raise Invalid_argument on any other name. *)

val fleet_metric : string -> string * (Cluster.fleet -> float)
(** A metric of a fleet run by its report name: [mean_us], [p50_us],
    [p99_us], [imbalance], [goodput_rps], [offered_rps], the counts
    [stolen], [completed] and [offered], or [shed_frac].
    @raise Invalid_argument on any other name. *)

(** {1 Fig 8} *)

val fig8 : Preemptible.Server.result t
(** Latency vs throughput: LibPreemptible (adaptive), LibPreemptible
    without UINTR, Shinjuku and Libinger on workloads A1, A2, B and C
    at eight loads, 128 points.  Every system is offered the same
    absolute rates: the base spec's [capref=4] makes loads relative to
    the capacity of 4 workers, LibPreemptible's budget. *)

val fig8_slo : Preemptible.Server.result t
(** The 16 lightly loaded (0.1x) reference runs whose mean latency
    sets each system's SLO in Fig 8's max-throughput summary. *)
