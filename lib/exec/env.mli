(** Process-environment and clock helpers for the bench harness and the
    sweep pool.

    This is the single home for environment-variable parsing in the
    repository: the harness reads knobs such as [LP_BENCH_CSV] (CSV
    output directory) and [LP_POOL_TRACE] (sweep-pool occupancy
    tracing) through {!getenv_nonempty} so that an empty value and an
    unset variable behave identically. *)

val getenv_nonempty : string -> string option
(** [getenv_nonempty name] is [Some v] when the environment variable
    [name] is set to a non-empty string, and [None] when it is unset
    {e or} set to [""].  CI systems often "clear" a variable by setting
    it empty; treating both forms as absent keeps behaviour identical
    across shells and runners. *)

val now_ns : unit -> int
(** Wall-clock nanoseconds since an arbitrary origin.  Used only for
    pool bookkeeping (occupancy spans, busy time), never for simulation
    results — simulated time comes from [Engine.Sim.now]. *)
