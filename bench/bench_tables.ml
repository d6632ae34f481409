(* Tables I, II, III (documented data) and Table IV / Table V
   (measured). *)

let table1 () =
  Bench_util.header
    "Table I: datacenter thread oversubscription (source data from Google traces [58])";
  (* The paper's Intro argument, made quantitative: with fair
     round-robin sharing, a thread waits one full scheduler cycle
     (threads/core x time slice) between slices.  Kernel preemption at
     5 ms slices makes that cycle seconds; LibPreemptible's 3 us slices
     keep it sub-millisecond. *)
  Format.printf "%-12s %8s %6s %13s %18s %18s@." "app" "threads" "cores" "threads/core"
    "cycle @ 5ms slice" "cycle @ 3us slice";
  List.iter
    (fun (app, threads, cores) ->
      let per_core = threads / cores in
      Format.printf "%-12s %8d %6d %13d %17.1fs %16.1fms@." app threads cores per_core
        (float_of_int per_core *. 5e-3)
        (float_of_int per_core *. 3e-3))
    [ ("charlie", 4842, 10); ("delta", 300, 4); ("merced", 5470, 110); ("whiskey", 1352, 8) ];
  Format.printf
    "(thread/core data reproduced from the paper; the scheduler-cycle columns apply\n\
    \ its Intro argument: 5ms kernel slices put a full sharing cycle at seconds,\n\
    \ microsecond slices put it under 1.5ms even at 484 threads/core)@."

let table23 () =
  Bench_util.header "Tables II/III: integration effort (human-effort data, documented only)";
  Format.printf
    "Table II (person-weeks to integrate): Shinjuku 0.9/0.50/0.70/0.51;\n\
     Libinger 0.35/0.23/0.12/NA; LibPreemptible 1.1/0.75/0.78/0.68@.";
  Format.printf
    "Table III (additional code): LibPreemptible 3%% (MICA/Zlib) 4%% (RPC); Libinger NA/7%%@.";
  Format.printf
    "(human integration effort cannot be re-measured by a simulation; reproduced verbatim)@."

(* Table IV: overhead of IPC mechanisms — measured on the kernel/hw
   models. *)
let table4 () =
  Bench_util.header "Table IV: overhead of different IPC mechanisms (1M ping-pong messages)";
  let paper =
    [
      ("signal", (15.325, 3.584, 3.478, 63_493.));
      ("mq", (10.468, 8.960, 2.017, 95_093.));
      ("pipe", (17.761, 10.240, 4.304, 56_151.));
      ("eventFD", (29.688, 2.816, 13.612, 33_629.));
      ("uintrFd", (0.734, 0.512, 0.698, 857_009.));
      ("uintrFd (blocked)", (2.393, 2.048, 0.212, 409_734.));
    ]
  in
  Format.printf "%-18s | %21s | %21s@." "mechanism" "measured avg/min/std" "paper avg/min/std";
  List.iter
    (fun mech ->
      let r = Ksim.Ipc.run_pingpong mech ~n:200_000 in
      let pa, pm, ps, prate = List.assoc r.Ksim.Ipc.mechanism paper in
      Format.printf "%-18s | %6.3f %6.3f %6.3f | %6.3f %6.3f %6.3f   rate %8.0f vs %8.0f@."
        r.Ksim.Ipc.mechanism r.Ksim.Ipc.avg_us r.Ksim.Ipc.min_us r.Ksim.Ipc.std_us pa pm ps
        r.Ksim.Ipc.rate_msg_per_s prate)
    Ksim.Ipc.all

(* Table V: solo (un-colocated) behaviour of the two Sec V-C workloads
   on a single core at light load. *)
let table5 () =
  Bench_util.header "Table V: MICA / zlib workload configurations, run solo on one core";
  let run name src rate =
    let r =
      Scenario.run_server
        (Bench_util.spec_of_string
           (Printf.sprintf "workers=1; quantum=none; src=%s; arrival=poisson:%.0f; dur=300ms" src
              rate))
    in
    Format.printf "%-22s rate=%7.0f/s  p50=%8.2fus  p99=%8.2fus  (n=%d)@." name rate
      (r.Preemptible.Server.all.Stat.Summary.p50 /. 1e3)
      (r.Preemptible.Server.all.Stat.Summary.p99 /. 1e3)
      r.Preemptible.Server.completed
  in
  run "MICA 5/95 skew 0.99" "mica" 100_000.0;
  run "zlib 25kB" "zlib" 2_000.0;
  Format.printf "(paper: MICA median ~1us; zlib median ~100us)@."
