(* Fig 11 / Fig 12 as a runnable example: how should periodic preemption
   interrupts be delivered to N threads?

     dune exec examples/timer_comparison.exe *)

let us = Engine.Units.us

module Ts = Baselines.Timer_strategies

let () =
  Format.printf "timer interrupt delivery overhead, 100us interval, 1000 rounds (Fig 11)@.@.";
  Format.printf "%-30s" "strategy \\ threads";
  let thread_counts = [ 1; 2; 4; 8; 16; 32 ] in
  List.iter (fun n -> Format.printf "%9d" n) thread_counts;
  Format.printf "@.";
  List.iter
    (fun strategy ->
      Format.printf "%-30s" (Ts.name strategy);
      List.iter
        (fun threads ->
          let r =
            Ts.delivery_overhead strategy ~threads ~interval_ns:(us 100) ~rounds:1000
          in
          Format.printf "%8.2f " r.Ts.mean_overhead_us)
        thread_counts;
      Format.printf "@.")
    Ts.all;
  Format.printf "@.timer precision with 26 threads and background noise (Fig 12)@.@.";
  List.iter
    (fun (src, target) ->
      let r = Ts.precision src ~threads:26 ~target_ns:target ~samples:5000 in
      Format.printf
        "%-13s target=%3dus: observed mean=%7.2fus std=%6.2fus rel.err=%5.1f%%@."
        r.Ts.source (target / 1000) r.Ts.mean_gap_us r.Ts.std_gap_us (100.0 *. r.Ts.rel_error))
    [ (`Kernel_timer, us 100); (`Kernel_timer, us 20); (`Utimer, us 100); (`Utimer, us 20) ];
  Format.printf
    "@.the kernel timer cannot honour a 20us period (mean ~68us); LibUtimer's mean period \
     matches the target@."
