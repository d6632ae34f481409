(** Cluster-scale simulation: N {!Preemptible.Server} instances in one
    discrete-event simulation behind a pluggable load balancer.

    The paper evaluates one server; the datacenter question the
    ROADMAP asks — when do per-server adaptive quanta beat
    cluster-level rebalancing? — needs a fleet.  This layer composes
    server {e instances} (see {!Preemptible.Server.create}) on one
    shared {!Engine.Sim.t}: a fleet dispatcher samples the arrival
    process, picks a member per request with the configured policy
    (reading {e live} queue state — the whole point of co-simulation),
    and injects it through the member's normal admission path, guard
    verdicts included.  Optional cross-server work stealing migrates
    queued-but-unstarted requests from the longest backlog to the
    emptiest server on a periodic tick.

    Everything stays deterministic: the fleet forks its RNG streams
    (arrival, service, balancer) from the shared engine in a fixed
    order, then creates members in index order, so a run is a pure
    function of [(config, seed)] — sweeps over fleets parallelize with
    {!Exec.Sweep} exactly like single-server figures.

    Fleet latency quantiles are exact merges: each member feeds a
    per-server {!Obs.Sketch}, and bucket-wise {!Obs.Sketch.merge_into}
    makes the fleet sketch indistinguishable from one that observed
    every completion (the property [test_obs] pins). *)

(** Dispatch policy: where does the next request go? *)
type lb =
  | Random  (** uniform member pick — the no-information baseline *)
  | Round_robin  (** strict rotation — deterministic, oblivious to load *)
  | Least_loaded
      (** join-shortest-queue over live in-flight counts (JSQ); needs a
          full fleet scan per request *)
  | Power_of_two
      (** sample two members, take the less loaded — the classic
          O(1)-information policy that captures most of JSQ's benefit *)

val lb_name : lb -> string

val lb_of_string : string -> (lb, string) result
(** Accepts [random|rr|round-robin|jsq|least-loaded|p2c|power-of-two]. *)

val all_lbs : lb list

(** Cross-server work stealing, evaluated every [interval_ns]: when the
    deepest backlog exceeds the shallowest by at least [threshold],
    migrate up to [batch] queued requests.  Rejected (at {!run}) when a
    member models client retries — a stolen request's patience clock
    cannot follow it across pools. *)
type steal = { interval_ns : int; threshold : int; batch : int }

val default_steal : steal
(** 20 us interval, threshold 8, batch 4. *)

type config = {
  members : Preemptible.Server.config array;
      (** per-member server configs — heterogeneous fleets (different
          core counts, quantum policies, guards) are just different
          entries.  Member [seed]/[max_events] fields are ignored: the
          fleet owns the engine. *)
  lb : lb;
  steal : steal option;  (** [None] (default) — no migration *)
  seed : int64;
  max_events : int;  (** safety cap on the shared engine *)
  tick_ns : int option;
      (** fleet telemetry tick period; [None] skips the loop entirely *)
}

val uniform : n:int -> lb:lb -> Preemptible.Server.config -> config
(** A homogeneous fleet of [n] copies of one member config, no
    stealing, no tick, seed 42, a 400M-event cap. *)

(** One fleet telemetry frame (when [tick_ns] is set). *)
type tick = {
  ck_at_ns : int;
  ck_inflight : int array;  (** live in-flight per member *)
  ck_dispatched : int array;  (** cumulative dispatches per member *)
  ck_completed : int;  (** cumulative measured completions, fleet-wide *)
  ck_p50_ns : float;  (** merged-sketch quantiles so far; [nan] if empty *)
  ck_p99_ns : float;
}

type probes = {
  on_tick : tick -> unit;
  on_dispatch : server:int -> now:int -> unit;
      (** fired after each routing decision (before admission) *)
}

val no_probes : probes

(** Fleet-aggregate counters and quantiles, shaped like
    {!Preemptible.Server.result}: counters are sums over members (so
    [offered = completed + cancelled + dropped + shed] after the
    drain, stealing included), rates are sums of per-member rates, and
    quantiles come from the exact bucket-wise sketch merge. *)
type fleet = {
  servers : int;
  duration_ns : int;
  measured_ns : int;
  offered : int;
  completed : int;
  cancelled : int;
  dropped : int;
  shed : int;
  goodput : int;
  goodput_rps : float;
  throughput_rps : float;
  offered_rps : float;
  mean_us : float;
  p50_us : float;
  p90_us : float;
  p99_us : float;
  max_us : float;
  dispatched : int array;  (** routing decisions per member *)
  imbalance : float;
      (** max over mean of [dispatched] — 1.0 is a perfectly even
          split; the dispersion the balancer left on the table *)
  stolen : int;  (** requests migrated by work stealing *)
  sim_events : int;  (** engine callbacks over the whole fleet run *)
}

type result = {
  fleet : fleet;
  per_server : Preemptible.Server.result array;
  sketch : Obs.Sketch.t;
      (** the merged fleet latency sketch (measured completions, ns) *)
}

val validate : config -> unit
(** The checks {!run} makes before simulating: raises
    [Invalid_argument] on an empty fleet, bad steal knobs, or stealing
    combined with retry guards. *)

val run :
  ?probes:probes ->
  ?warmup_ns:int ->
  config ->
  arrival:Workload.Arrival.t ->
  source:Workload.Source.t ->
  duration_ns:int ->
  result
(** Simulate the fleet under one open-loop arrival stream for
    [duration_ns]; arrivals then stop and every member drains.
    Requests arriving in [warmup_ns, duration_ns) are measured.
    Raises [Invalid_argument] on inconsistent parameters (empty fleet,
    bad steal knobs, stealing combined with retry guards) — before any
    simulation work — and [Failure] if the event cap is hit. *)

val pp_fleet : Format.formatter -> fleet -> unit
