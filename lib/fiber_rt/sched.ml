(* Real-time request executor: replay a pre-generated open-loop
   schedule (arrival offset, service time, class) on a {!Pool} and
   measure wall-clock latency distributions — the "real" side of the
   sim-vs-real cross-validation.

   The dispatcher (calling domain) sleeps until each request's intended
   arrival, then submits it; latency is measured from the intended
   arrival, not the submit instant, so dispatcher lateness counts as
   queueing exactly as it would for an open-loop client.  Service is
   executed as a calibrated busy-spin in ~20 us chunks with a pool
   safepoint between chunks: suspended time is not counted (only active
   chunks burn the budget), matching the simulator's notion of service
   time as CPU time. *)

type item = { at_ns : int; service_ns : int; lc : bool }

type result = {
  offered : int;
  completed : int;
  failed : int;
  preemptions : int;
  steals : int;
  wall_ns : int;  (** dispatch start to last completion *)
  per_worker : int array;  (** jobs completed per worker domain *)
  all : Stat.Summary.report;
  lc : Stat.Summary.report option;
  be : Stat.Summary.report option;
}

let chunk_ns = 20_000

(* Burn [ns] of active CPU time in chunk-sized slices, checkpointing
   between slices.  The wall clock ticks in 1 us steps (gettimeofday),
   so each chunk overshoots by roughly a tick on average; 20 us chunks
   keep that granularity error around 5% while still hitting a
   safepoint ~12x per smallest practical quantum. *)
let spin clk ns =
  let remaining = ref ns in
  while !remaining > 0 do
    let c = min !remaining chunk_ns in
    let t0 = Deadline_clock.now_ns clk in
    while Deadline_clock.now_ns clk - t0 < c do
      ()
    done;
    remaining := !remaining - c;
    Pool.checkpoint ()
  done

let run ~workers ?quantum_ns ?(warmup_ns = 0) (schedule : item array) =
  let schedule = Array.copy schedule in
  Array.sort (fun a b -> compare a.at_ns b.at_ns) schedule;
  Array.iter
    (fun it ->
      if it.at_ns < 0 || it.service_ns < 0 then
        invalid_arg "Sched.run: negative arrival or service time")
    schedule;
  let pool = Pool.create ?quantum_ns ~workers () in
  let clk = Pool.clock pool in
  let m = Mutex.create () in
  let s_all = Stat.Summary.create () in
  let s_lc = Stat.Summary.create () in
  let s_be = Stat.Summary.create () in
  let record it latency_ns =
    if it.at_ns >= warmup_ns then begin
      Mutex.lock m;
      Stat.Summary.record s_all (float_of_int latency_ns);
      Stat.Summary.record (if it.lc then s_lc else s_be) (float_of_int latency_ns);
      Mutex.unlock m
    end
  in
  let t0 = Deadline_clock.now_ns clk in
  Array.iter
    (fun it ->
      let target = t0 + it.at_ns in
      let gap = target - Deadline_clock.now_ns clk in
      if gap > 0 then Unix.sleepf (float_of_int gap *. 1e-9);
      Pool.submit pool ~lc:it.lc (fun () ->
          spin clk it.service_ns;
          record it (Deadline_clock.now_ns clk - target)))
    schedule;
  Pool.drain pool;
  let wall_ns = Deadline_clock.now_ns clk - t0 in
  let st = Pool.stats pool in
  Pool.shutdown pool;
  if Stat.Summary.count s_all = 0 then
    failwith "Sched.run: no measured completions (warmup too long or load too low)";
  {
    offered = Array.length schedule;
    completed = Array.fold_left ( + ) 0 st.Pool.executed;
    failed = st.Pool.failed;
    preemptions = st.Pool.preemptions;
    steals = Array.fold_left ( + ) 0 st.Pool.stolen;
    wall_ns;
    per_worker = st.Pool.executed;
    all = Stat.Summary.report s_all;
    lc = Stat.Summary.report_opt s_lc;
    be = Stat.Summary.report_opt s_be;
  }

let pp_result fmt r =
  Format.fprintf fmt
    "@[<v>rt: offered %d  completed %d  failed %d  preemptions %d  steals %d  wall \
     %.1f ms@,per-worker %s@,all %a@,lc  %a@,be  %a@]"
    r.offered r.completed r.failed r.preemptions r.steals
    (float_of_int r.wall_ns /. 1e6)
    (String.concat "/" (Array.to_list (Array.map string_of_int r.per_worker)))
    Stat.Summary.pp_report_us r.all Stat.Summary.pp_report_opt_us r.lc
    Stat.Summary.pp_report_opt_us r.be
