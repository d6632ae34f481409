(* Fig 11: scalability of timer interrupt delivery across strategies
   (1000 interrupts per thread, 100us interval). *)

module Ts = Baselines.Timer_strategies

let run ~jobs () =
  Bench_util.header
    "Fig 11: timer delivery overhead (us, mean) vs thread count; 1000 interrupts @ 100us";
  let points =
    List.concat_map
      (fun s ->
        List.map
          (fun n -> ([ ("strategy", Ts.name s); ("threads", string_of_int n) ], (s, n)))
          [ 1; 2; 4; 8; 16; 32 ])
      Ts.all
  in
  ignore
    (Bench_util.points ~jobs ~name:"fig11"
       ~metrics:
         [ ("mean_us", fun r -> r.Ts.mean_overhead_us); ("p99_us", fun r -> r.Ts.p99_overhead_us) ]
       (fun _ (s, threads) ->
         Ts.delivery_overhead s ~threads ~interval_ns:(Engine.Units.us 100) ~rounds:1000)
       points);
  Format.printf
    "@.(expected: creation-time aligned timers superlinear — ~100us p99 at 32\n\
    \ threads; staggering flattens it; chaining is linear in the chain position;\n\
    \ LibUtimer stays in the low microseconds)@."
