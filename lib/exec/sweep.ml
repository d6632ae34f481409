(* Sweep combinator: map a list of independent sweep points through a
   Pool, preserving submission order.  Every figure of the paper is a
   sweep of independent simulations, so this is the whole bench-layer
   parallelism story.

   [run ~jobs:1 f xs] is exactly [List.map f xs] — no pool, no
   domains — and because tasks carry isolated Rng/Sim state (seeds are
   data in the sweep points, never drawn from shared mutable state),
   [run ~jobs:n f xs = run ~jobs:1 f xs] for every [n]. *)

let default_jobs () = Domain.recommended_domain_count ()

let run ?trace ?label ~jobs f xs =
  let jobs = max 1 jobs in
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when jobs = 1 -> List.map f xs
  | xs ->
    let pool = Pool.create ?trace ?label ~jobs () in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Pool.run_all pool (List.map (fun x () -> f x) xs))
