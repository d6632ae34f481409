type t = Wall | Virtual of int Atomic.t

let wall () = Wall
let virtual_ () = Virtual (Atomic.make 0)

let now_ns = function
  | Wall -> int_of_float (Unix.gettimeofday () *. 1e9)
  | Virtual cell -> Atomic.get cell

let advance t d =
  match t with
  | Wall -> invalid_arg "Deadline_clock.advance: cannot advance the wall clock"
  | Virtual cell ->
    if d < 0 then invalid_arg "Deadline_clock.advance: negative amount";
    ignore (Atomic.fetch_and_add cell d)
