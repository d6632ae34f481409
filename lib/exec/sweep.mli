(** Sweep combinator: map a list of independent sweep points through a
    {!Pool}, preserving submission order.  Every figure of the paper is
    a sweep of independent simulations, so this is the whole
    bench-layer parallelism story.

    [run ~jobs:1 f xs] is exactly [List.map f xs] — no pool, no
    domains — and because tasks carry isolated Rng/Sim state (seeds are
    data in the sweep points, never drawn from shared mutable state),
    [run ~jobs:n f xs = run ~jobs:1 f xs] for every [n].  CI pins this
    with a jobs-1-vs-8 byte-diff of the gated figures. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val run :
  ?trace:Obs.Trace.t -> ?label:string -> jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [run ~jobs f xs] maps [f] over [xs] using at most [jobs] workers,
    returning results in the order of [xs].  [jobs] is clamped to at
    least 1; empty and singleton sweeps never build a pool. *)
