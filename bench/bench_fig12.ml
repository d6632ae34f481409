(* Fig 12: precision of LibUtimer vs a kernel timer, 26 threads, 5000
   samples, with background contention injected into the timer core.
   The gap series behind the paper's scatter goes to fig12_gaps.csv. *)

module Ts = Baselines.Timer_strategies

let run ~jobs () =
  Bench_util.header "Fig 12: timer precision, 26 threads, 5000 samples, background noise";
  let points =
    List.map
      (fun (src, name, us) -> ([ ("source", name); ("target_us", string_of_int us) ], (src, us)))
      [
        (`Kernel_timer, "kernel-timer", 100);
        (`Kernel_timer, "kernel-timer", 20);
        (`Utimer, "LibUtimer", 100);
        (`Utimer, "LibUtimer", 20);
      ]
  in
  let results =
    Bench_util.points ~jobs ~name:"fig12"
      ~metrics:
        [
          ("mean_us", fun r -> r.Ts.mean_gap_us);
          ("std_us", fun r -> r.Ts.std_gap_us);
          ("p99_us", fun r -> r.Ts.p99_gap_us);
          ("rel_err_pct", fun r -> 100.0 *. r.Ts.rel_error);
        ]
      (fun _ (src, us) ->
        Ts.precision src ~threads:26 ~target_ns:(Engine.Units.us us) ~samples:5000)
      points
  in
  (* a small excerpt of each series, as in the paper's scatter *)
  List.iter
    (fun (l, r) ->
      let s = r.Ts.sample_gaps_us in
      let n = Array.length s in
      if n >= 8 then begin
        Format.printf "  %s %sus sample gaps (us):" r.Ts.source (Bench_util.label "target_us" l);
        for i = 0 to 7 do
          Format.printf " %6.1f" s.(i * n / 8)
        done;
        Format.printf "@."
      end)
    results;
  Bench_report.csv ~name:"fig12_gaps" ~header:"source,target_us,sample,gap_us"
    ~rows:
      (List.concat_map
         (fun (l, r) ->
           List.mapi
             (fun i gap ->
               Printf.sprintf "%s,%s,%d,%g" r.Ts.source (Bench_util.label "target_us" l) i gap)
             (Array.to_list r.Ts.sample_gaps_us))
         results);
  Format.printf
    "@.(expected: the kernel timer cannot honour 20us — its mean period is ~68us with\n\
    \ high variance — while LibUtimer's mean period matches the target (relative error\n\
    \ below 0.001%%) with ~2us std)@."
