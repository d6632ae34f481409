(** Process-environment and seeding helpers shared by the bench harness
    and the command-line tools ([lpctl], [lpbench_check]).

    This is the single home for environment-variable parsing in the
    repository: tools read knobs such as [LP_BENCH_CSV] (CSV output
    directory) and [LP_POOL_TRACE] (sweep-pool occupancy tracing)
    through {!getenv_nonempty} so that an empty value and an unset
    variable behave identically. *)

val getenv_nonempty : string -> string option
(** [getenv_nonempty name] is [Some v] when the environment variable
    [name] is set to a non-empty string, and [None] when it is unset
    {e or} set to [""].  CI systems often "clear" a variable by setting
    it empty; treating both forms as absent keeps behaviour identical
    across shells and runners. *)

val task_seed : seed:int64 -> index:int -> int64
(** [task_seed ~seed ~index] derives the RNG seed for task [index] of a
    sweep from the sweep's base [seed].  The derivation is a pure
    function of [(seed, index)] — never of completion order — so a
    parallel sweep and a sequential sweep hand every task the same
    stream.  @raise Invalid_argument if [index < 0]. *)

val now_ns : unit -> int
(** Wall-clock nanoseconds since an arbitrary origin.  Used only for
    pool bookkeeping (occupancy spans, busy time), never for simulation
    results — simulated time comes from [Engine.Sim.now]. *)
