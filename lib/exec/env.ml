(* Process-environment and clock helpers for the bench harness and the
   sweep pool. *)

(* An empty value means unset: a cleared variable in CI should behave
   like an absent one. *)
let getenv_nonempty name =
  match Sys.getenv_opt name with None | Some "" -> None | Some v -> Some v

(* Wall-clock nanoseconds since an arbitrary origin; only ever used for
   pool bookkeeping (occupancy spans, busy time), never for simulation
   results. *)
let now_ns () = Int64.to_int (Int64.of_float (Unix.gettimeofday () *. 1e9))
