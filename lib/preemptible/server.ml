type mechanism =
  | Uintr_utimer of Utimer.config
  | Uintr_hw_offload
  | Signal_utimer of { poll_ns : int }
  | Kernel_timer
  | No_mechanism

type discipline = Fifo | Srpt_oracle | Edf of int

type config = {
  n_workers : int;
  policy : Policy.t;
  mechanism : mechanism;
  discipline : discipline;
  cancel_after_slo : int option;
  dispatch_cost_ns : int;
  launch_cost_ns : int;
  complete_cost_ns : int;
  ctx_pool_capacity : int;
  stack_kb : int;
  stats_window_ns : int;
  work_stealing : bool;
  costs : Ksim.Costs.t;
  hw : Hw.Params.t;
  faults : Fault.t option;
  watchdog : Utimer.watchdog option;
  wedge_ns : int;
  seed : int64;
  max_events : int;
  trace : Obs.Trace.config option;
  guard : Guard.config option;
  telemetry : Telemetry.config option;
}

let default_config ~n_workers ~policy ~mechanism =
  {
    n_workers;
    policy;
    mechanism;
    discipline = Fifo;
    cancel_after_slo = None;
    dispatch_cost_ns = 250;
    launch_cost_ns = 80;
    complete_cost_ns = 40;
    ctx_pool_capacity = 8192;
    stack_kb = 16;
    stats_window_ns = Engine.Units.ms 100;
    work_stealing = true;
    costs = Ksim.Costs.default;
    hw = Hw.Params.default;
    faults = None;
    watchdog = None;
    wedge_ns = 2_000;
    seed = 42L;
    max_events = 400_000_000;
    trace = None;
    guard = None;
    telemetry = None;
  }

type probes = {
  on_complete : now:int -> latency_ns:int -> cls:Workload.Request.cls -> unit;
  on_window : Stats_window.snapshot -> quantum_ns:int -> unit;
  on_tick : Telemetry.frame -> unit;
}

let no_probes =
  {
    on_complete = (fun ~now:_ ~latency_ns:_ ~cls:_ -> ());
    on_window = (fun _ ~quantum_ns:_ -> ());
    on_tick = ignore;
  }

type resilience = {
  fault_report : Fault.report;
  wd : Utimer.wd_stats option;
  timer_health : Utimer.health option;
  wedged : int;
  fallback_engaged : bool;
}

type result = {
  duration_ns : int;
  measured_ns : int;
  offered : int;
  completed : int;
  cancelled : int;
  dropped : int;
  shed : int;
  goodput : int;
  goodput_rps : float;
  all : Stat.Summary.report;
  lc : Stat.Summary.report option;
  be : Stat.Summary.report option;
  throughput_rps : float;
  offered_rps : float;
  preemptions : int;
  timer_interrupts : int;
  spurious_interrupts : int;
  ctx_high_water : int;
  worker_busy_frac : float;
  long_queue_hwm : int;
  dispatch_queue_hwm : int;
  sim_events : int;
  resilience : resilience option;
  guard : Guard.report option;
  trace : Obs.Trace.t option;
  metrics : Obs.Metrics.snapshot;
  telemetry : Telemetry.report option;
}

(* ------------------------------------------------------------------ *)
(* Internal state                                                      *)
(* ------------------------------------------------------------------ *)

type worker = {
  wid : int;
  core : Hw.Core.t;
  local : Workload.Request.t Rqueue.t;
  mutable current : Fn.t option;
  mutable cur_deadline : int;
  mutable transition : bool; (* paying a switch overhead; do not schedule *)
  (* Preallocated dispatch-path callbacks (DESIGN §9): each reads the
     worker's [current] function when it fires, so launching, resuming,
     completing, and transitioning allocate no closures.  Set right
     after [st] is built (they capture it). *)
  mutable k_transition : unit -> unit;
  mutable k_complete : unit -> unit;
  mutable k_launch : unit -> unit;
  mutable k_resume : unit -> unit;
}

type mech_ops = {
  mech_arm : int -> quantum_ns:int -> unit;
  mech_disarm : int -> unit;
  arm_cost_ns : int;
  disarm_cost_ns : int;
  entry_cost_ns : int;
  exit_cost_ns : int;
  mech_shutdown : unit -> unit;
  mech_fired : unit -> int;
}

type st = {
  sim : Engine.Sim.t;
  cfg : config;
  arrival_rng : Engine.Rng.t;
  service_rng : Engine.Rng.t;
  workers : worker array;
  long_q : Fn.t Rqueue.t;
  dispatch_q : Workload.Request.t Rqueue.t;
  dispatcher : Hw.Core.t;
  pool : Context.t;
  req_pool : Workload.Request.Pool.t;
  window : Stats_window.t;
  sum_all : Stat.Summary.t;
  sum_lc : Stat.Summary.t;
  sum_be : Stat.Summary.t;
  probes : probes;
  warmup_ns : int;
  duration_ns : int;
  mutable mech : mech_ops;
  mutable outstanding : int;
  mutable arrivals_done : bool;
  mutable drained : bool;
  mutable measured_offered : int;
  mutable measured_completed : int;
  mutable completed_in_window : int;
  mutable cancelled_measured : int;
  mutable measured_shed : int;
  mutable measured_expired : int;
  mutable goodput_measured : int;
  mutable goodput_in_window : int;
  mutable preemptions : int;
  mutable spurious : int;
  mutable next_id : int;
  mutable window_ev : Engine.Sim.event; (* Sim.null between windows *)
  mutable k_dispatch : unit -> unit; (* preallocated dispatcher on_done *)
  wedge_point : Fault.point option;
  mutable wedged : int;
  mutable ut : Utimer.t option;
  mutable fallback_engaged : bool;
  trace : Obs.Trace.t option;
  metrics : Obs.Metrics.t;
  m_lat : Obs.Metrics.histogram;
  guard : Guard.t option;
  (* Live telemetry; [None] (the default) must be an exact no-op on
     the hot path.  Set after [st] is built (needs the worker cores),
     like [mech]. *)
  mutable tel : Telemetry.t option;
  mutable tel_ev : Engine.Sim.event;
  (* Client-side retry state; live only when the guard has a retry
     config.  [retry_attempts] maps in-flight request id -> attempt
     number; an id still present when its patience expires means the
     client gave up on that attempt. *)
  mutable retry_rng : Engine.Rng.t option;
  retry_attempts : (int, int) Hashtbl.t;
}

let now st = Engine.Sim.now st.sim

let total_qlen st =
  Rqueue.length st.dispatch_q
  + Rqueue.length st.long_q
  + Array.fold_left (fun acc w -> acc + Rqueue.length w.local) 0 st.workers

let measured st (req : Workload.Request.t) = req.Workload.Request.arrival_ns >= st.warmup_ns

(* Trace probes.  Request-lifecycle events use the request id as track
   (cat Request); scheduling spans use the worker id (cat Sched).  All
   emission is passive — no sim events, no RNG — so traced and untraced
   runs of the same seed are bit-identical. *)

let tr_req st (req : Workload.Request.t) ~name ~arg =
  match st.trace with
  | Some trace ->
    Obs.Trace.instant trace Obs.Trace.Request ~name ~track:req.Workload.Request.id ~arg
  | None -> ()

let tr_server st ~name ~track ~arg =
  match st.trace with
  | Some trace -> Obs.Trace.instant trace Obs.Trace.Server ~name ~track ~arg
  | None -> ()

let tr_guard st ~name ~track ~arg =
  match st.trace with
  | Some trace -> Obs.Trace.instant trace Obs.Trace.Guard ~name ~track ~arg
  | None -> ()

let quantum_span_begin st w ~quantum_ns =
  match st.trace with
  | Some trace ->
    Obs.Trace.span_begin trace Obs.Trace.Sched ~name:"quantum" ~track:w.wid
      ~arg:(if quantum_ns = max_int then 0 else quantum_ns)
  | None -> ()

let quantum_span_end st w =
  match st.trace with
  | Some trace -> Obs.Trace.span_end trace Obs.Trace.Sched ~name:"quantum" ~track:w.wid
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Worker scheduling                                                   *)
(* ------------------------------------------------------------------ *)

let rec start_segment st w fn quantum_ns =
  w.cur_deadline <- Fn.deadline_ns fn;
  quantum_span_begin st w ~quantum_ns;
  if quantum_ns <> max_int then st.mech.mech_arm w.wid ~quantum_ns;
  Hw.Core.begin_work w.core ~duration:(Fn.remaining_ns fn) ~on_done:w.k_complete

and complete_current st w fn =
  let t = now st in
  quantum_span_end st w;
  tr_req st (Fn.request fn) ~name:"req.done" ~arg:w.wid;
  st.mech.mech_disarm w.wid;
  Fn.note_progress fn ~executed_ns:(Fn.remaining_ns fn);
  Fn.complete fn;
  Context.release st.pool (Fn.context fn);
  st.outstanding <- st.outstanding - 1;
  let req = Fn.request fn in
  let latency = t - req.Workload.Request.arrival_ns in
  Stats_window.note_completion st.window ~now:t ~latency_ns:latency
    ~service_ns:req.Workload.Request.service_ns;
  (* Goodput: did the completion reach a client still waiting for it?
     With the retry model the table entry is the client's presence
     (removed when its patience expires); without it, plain latency vs
     patience.  No guard = every completion is goodput. *)
  let within_patience =
    match st.guard with
    | None -> true
    | Some g ->
      (match Guard.client_timeout_ns g with
      | None -> true
      | Some tmo ->
        (match st.retry_rng with
        | Some _ -> Hashtbl.mem st.retry_attempts req.Workload.Request.id
        | None -> latency <= tmo))
  in
  (match st.guard with
  | Some g ->
    (match st.retry_rng with
    | Some _ -> Hashtbl.remove st.retry_attempts req.Workload.Request.id
    | None -> ());
    if within_patience then Guard.note_goodput g else Guard.note_late g
  | None -> ());
  (match st.tel with
  | Some tel ->
    (* A completion nobody waits for anymore is pure wasted service. *)
    if not within_patience then
      Telemetry.note_wasted tel ~core:w.wid ~ns:req.Workload.Request.service_ns
  | None -> ());
  if measured st req then begin
    st.measured_completed <- st.measured_completed + 1;
    if t <= st.duration_ns then st.completed_in_window <- st.completed_in_window + 1;
    if within_patience then begin
      st.goodput_measured <- st.goodput_measured + 1;
      if t <= st.duration_ns then st.goodput_in_window <- st.goodput_in_window + 1
    end;
    Stat.Summary.record st.sum_all (float_of_int latency);
    (match req.Workload.Request.cls with
    | Workload.Request.Latency_critical -> Stat.Summary.record st.sum_lc (float_of_int latency)
    | Workload.Request.Best_effort -> Stat.Summary.record st.sum_be (float_of_int latency));
    Obs.Metrics.observe st.m_lat (float_of_int latency);
    (match st.tel with
    | Some tel -> Telemetry.note_latency tel ~core:w.wid ~latency_ns:latency
    | None -> ());
    st.probes.on_complete ~now:t ~latency_ns:latency ~cls:req.Workload.Request.cls
  end;
  (* Retirement point: the record may back a later arrival from here
     on (no-op for caller-owned requests, e.g. injected traces). *)
  Workload.Request.Pool.release st.req_pool req;
  w.current <- None;
  w.cur_deadline <- max_int;
  let cost = st.cfg.complete_cost_ns + st.mech.disarm_cost_ns in
  (match st.tel with
  | Some tel -> Telemetry.note_sched tel ~core:w.wid ~ns:cost
  | None -> ());
  after_transition st w cost;
  (* A freed context may unblock other idle workers that had new
     requests queued but no context to run them on. *)
  wake_idle st;
  check_drain st

and after_transition st w cost =
  w.transition <- true;
  ignore (Engine.Sim.after st.sim cost w.k_transition)

and wake_idle st =
  Array.iter
    (fun w -> if w.current = None && not w.transition then schedule_next st w)
    st.workers

and schedule_next st w =
  if w.current = None && not w.transition then begin
    let new_ready = Rqueue.length w.local in
    let pre_ready = Rqueue.length st.long_q in
    if new_ready > 0 || pre_ready > 0 then begin
      let choice =
        if new_ready = 0 then Policy.Resume_preempted
        else if pre_ready = 0 then Policy.Run_new
        else st.cfg.policy.Policy.pick ~new_ready ~preempted_ready:pre_ready
      in
      match choice with
      | Policy.Run_new ->
        if Context.free_count st.pool > 0 then launch_new st w ~from:w
        else if pre_ready > 0 then resume_preempted st w
      | Policy.Resume_preempted -> resume_preempted st w
    end
    else if st.cfg.work_stealing then begin
      (* Both queues empty: steal a fresh request from the most loaded
         sibling (the centralized lists plus stealing give the load
         balancing the paper attributes to the design). *)
      let victim = ref None in
      Array.iter
        (fun w' ->
          let len = Rqueue.length w'.local in
          if len >= 1 && w'.wid <> w.wid then
            match !victim with
            | Some v when Rqueue.length v.local >= len -> ()
            | Some _ | None -> victim := Some w')
        st.workers;
      match !victim with
      | Some v when Context.free_count st.pool > 0 -> launch_new st w ~from:v
      | Some _ | None -> ()
    end
  end

and pop_disc st (q : Workload.Request.t Rqueue.t) t =
  (* Degraded mode falls back to plain FIFO: the clever disciplines
     scan the queue, and under overload the queue is long. *)
  let fifo = match st.guard with Some g -> Guard.force_fifo g | None -> false in
  if fifo then Rqueue.pop q ~now:t
  else
    match st.cfg.discipline with
    | Fifo -> Rqueue.pop q ~now:t
    | Srpt_oracle -> Rqueue.pop_by q ~now:t ~key:(fun r -> r.Workload.Request.service_ns)
    | Edf slo ->
      Rqueue.pop_by q ~now:t ~key:(fun r -> r.Workload.Request.arrival_ns + slo)

and pop_new st (q : Workload.Request.t Rqueue.t) =
  let t = now st in
  match st.guard with
  | None -> pop_disc st q t
  | Some g ->
    (match Guard.expiry_ns g with
    | None -> pop_disc st q t
    | Some tmo ->
      (* The client already abandoned anything this old; dropping it at
         the pop point frees the worker for work that can still count. *)
      let rec fresh () =
        match pop_disc st q t with
        | Some req when t - req.Workload.Request.arrival_ns > tmo ->
          tr_req st req ~name:"guard.expired" ~arg:(t - req.Workload.Request.arrival_ns);
          Guard.note_expired g;
          st.outstanding <- st.outstanding - 1;
          if measured st req then st.measured_expired <- st.measured_expired + 1;
          Workload.Request.Pool.release st.req_pool req;
          fresh ()
        | r -> r
      in
      (match fresh () with
      | Some _ as r -> r
      | None ->
        (* expiry may have emptied the system *)
        check_drain st;
        None))

and launch_new st w ~from =
  match pop_new st from.local with
  | None -> ()
  | Some req ->
    let ctx = Context.alloc st.pool in
    let fn = Fn.create req ~ctx in
    w.current <- Some fn;
    (* Stealing pays an extra cross-core cacheline transfer. *)
    let steal_cost = if from.wid = w.wid then 0 else st.cfg.hw.Hw.Params.cacheline_ns in
    let cost = st.cfg.launch_cost_ns + st.mech.arm_cost_ns + steal_cost in
    (match st.tel with
    | Some tel -> Telemetry.note_sched tel ~core:w.wid ~ns:cost
    | None -> ());
    ignore (Engine.Sim.after st.sim cost w.k_launch)

and run_current st w ~resuming =
  match w.current with
  | None -> assert false (* [current] is pinned until the segment ends *)
  | Some fn ->
    let t = now st in
    let req = Fn.request fn in
    let quantum_ns =
      st.cfg.policy.Policy.quantum_ns ~now:t ~cls:req.Workload.Request.cls
    in
    if resuming then Fn.resume fn ~now:t ~quantum_ns
    else Fn.launch fn ~now:t ~quantum_ns;
    tr_req st req ~name:"req.run" ~arg:w.wid;
    start_segment st w fn quantum_ns

and resume_preempted st w =
  match Rqueue.pop st.long_q ~now:(now st) with
  | None -> ()
  | Some fn ->
    w.current <- Some fn;
    let cost = st.cfg.costs.Ksim.Costs.fcontext_swap_ns + st.mech.arm_cost_ns in
    (match st.tel with
    | Some tel -> Telemetry.note_sched tel ~core:w.wid ~ns:cost
    | None -> ());
    ignore (Engine.Sim.after st.sim cost w.k_resume)

and check_drain st =
  if st.arrivals_done && st.outstanding = 0 && not st.drained then begin
    st.drained <- true;
    st.mech.mech_shutdown ();
    Engine.Sim.cancel st.window_ev;
    st.window_ev <- Engine.Sim.null;
    Engine.Sim.cancel st.tel_ev;
    st.tel_ev <- Engine.Sim.null
  end

(* Fault "server.wedge": the interrupt caught the worker inside a
   non-preemptible critical section.  The handler cannot switch the
   function out; it defers by re-arming a short retry quantum and
   returns, and the section runs [wedge_ns] longer. *)
let wedge_fires st ~now =
  match st.wedge_point with
  | Some p -> Fault.fires p ~now
  | None -> false

(* Preemption interrupt landing on worker [i]. *)
let on_interrupt st i =
  let w = st.workers.(i) in
  let t = now st in
  match w.current with
  | Some _ when Hw.Core.busy w.core && t >= w.cur_deadline && wedge_fires st ~now:t ->
    st.wedged <- st.wedged + 1;
    tr_server st ~name:"server.wedge" ~track:i ~arg:st.cfg.wedge_ns;
    (match st.cfg.faults with
    | Some f ->
      Fault.mark_detected f ~hint:"server.wedge" ();
      Fault.mark_recovered f ~hint:"server.wedge" ()
    | None -> ());
    Hw.Core.stall w.core st.cfg.wedge_ns;
    st.mech.mech_arm i ~quantum_ns:st.cfg.wedge_ns
  | Some fn when Hw.Core.busy w.core && t >= w.cur_deadline ->
    st.preemptions <- st.preemptions + 1;
    quantum_span_end st w;
    tr_req st (Fn.request fn) ~name:"req.preempt" ~arg:w.wid;
    let executed = Hw.Core.abort w.core in
    Fn.note_progress fn ~executed_ns:executed;
    Fn.preempt fn;
    let doomed =
      match st.cfg.cancel_after_slo with
      | Some slo -> Fn.sojourn_ns fn ~now:t > slo
      | None -> false
    in
    if doomed then begin
      (* Sec III-B: the request already blew its SLO; cancel it and
         release its resources instead of letting it consume more. *)
      tr_req st (Fn.request fn) ~name:"req.cancel" ~arg:w.wid;
      (match st.tel with
      | Some tel ->
        (* Everything the doomed request executed so far is now waste. *)
        let r = Fn.request fn in
        Telemetry.note_wasted tel ~core:w.wid
          ~ns:(r.Workload.Request.service_ns - Fn.remaining_ns fn)
      | None -> ());
      Context.release st.pool (Fn.context fn);
      st.outstanding <- st.outstanding - 1;
      let req = Fn.request fn in
      if measured st req then st.cancelled_measured <- st.cancelled_measured + 1;
      Workload.Request.Pool.release st.req_pool req;
      check_drain st
    end
    else Rqueue.push st.long_q ~now:t fn;
    w.current <- None;
    w.cur_deadline <- max_int;
    let overhead =
      st.mech.entry_cost_ns + st.cfg.costs.Ksim.Costs.fcontext_swap_ns
      + st.mech.exit_cost_ns
    in
    (match st.tel with
    | Some tel -> Telemetry.note_preempt tel ~core:w.wid ~ns:overhead
    | None -> ());
    after_transition st w overhead;
    wake_idle st
  | Some _ when Hw.Core.busy w.core ->
    (* Stale interrupt (the function it was armed for already left the
       core): the handler still runs and steals cycles. *)
    st.spurious <- st.spurious + 1;
    tr_server st ~name:"server.spurious" ~track:i ~arg:1;
    Hw.Core.stall w.core (st.mech.entry_cost_ns + st.mech.exit_cost_ns)
  | Some _ | None ->
    st.spurious <- st.spurious + 1;
    tr_server st ~name:"server.spurious" ~track:i ~arg:0

(* ------------------------------------------------------------------ *)
(* Preemption mechanisms                                               *)
(* ------------------------------------------------------------------ *)

(* The no-UINTR timer thread ([Signal_utimer]): a poll loop that
   signals every worker whose deadline has passed.  The scan is a
   top-level function over preallocated per-worker continuations, so a
   poll that fires nothing allocates nothing (DESIGN §9). *)
type signal_timer = {
  sig_sim : Engine.Sim.t;
  deadlines : int array; (* per worker; max_int when disarmed *)
  k_signal : (unit -> unit) array; (* per worker: deliver its signal *)
  syscall_ns : int;
  mutable sig_fired : int;
  mutable sig_running : bool;
}

(* One poll: a pthread_kill (a syscall) per expired deadline, each sent
   after the work needed to reach it.  Returns the poll's cost. *)
let signal_expired s =
  let now = Engine.Sim.now s.sig_sim in
  let cost = ref (30 + (Array.length s.deadlines * 8)) in
  for i = 0 to Array.length s.deadlines - 1 do
    if s.deadlines.(i) <= now then begin
      s.deadlines.(i) <- max_int;
      s.sig_fired <- s.sig_fired + 1;
      cost := !cost + s.syscall_ns;
      ignore (Engine.Sim.after s.sig_sim !cost s.k_signal.(i) : Engine.Sim.event)
    end
  done;
  !cost

let make_mech st =
  let sim = st.sim and cfg = st.cfg in
  match cfg.mechanism with
  | No_mechanism ->
    {
      mech_arm = (fun _ ~quantum_ns:_ -> ());
      mech_disarm = (fun _ -> ());
      arm_cost_ns = 0;
      disarm_cost_ns = 0;
      entry_cost_ns = 0;
      exit_cost_ns = 0;
      mech_shutdown = (fun () -> ());
      mech_fired = (fun () -> 0);
    }
  | Uintr_utimer ucfg ->
    let fabric = Hw.Uintr.create ?faults:cfg.faults ?trace:st.trace sim cfg.hw in
    let ut =
      Utimer.create ?faults:cfg.faults ?watchdog:cfg.watchdog ?trace:st.trace sim
        ~uintr:fabric ~config:ucfg ()
    in
    st.ut <- Some ut;
    let slots =
      Array.init cfg.n_workers (fun i ->
          let receiver =
            Hw.Uintr.register_receiver fabric
              ~name:(Printf.sprintf "worker-%d" i)
              ~handler:(fun _ ~vector:_ -> on_interrupt st i)
              ()
          in
          Utimer.register ut ~receiver ~vector:0)
    in
    (* Last line of defence: the timer declared itself Degraded (dead
       core, no spares).  Swap the mechanism to per-worker kernel
       timers mid-run — slower preemption beats none — re-arming every
       in-flight quantum from the worker-side intents. *)
    Utimer.set_on_degraded ut (fun () ->
        if not st.fallback_engaged then begin
          st.fallback_engaged <- true;
          tr_server st ~name:"server.fallback" ~track:0 ~arg:0;
          let signal =
            Ksim.Signal.create ?trace:st.trace sim cfg.costs
              ~rng:(Engine.Sim.fork_rng sim)
          in
          let kt =
            Ksim.Ktimer.create sim cfg.costs ~rng:(Engine.Sim.fork_rng sim) ~signal
          in
          let handles = Array.make cfg.n_workers None in
          let cancel i =
            match handles.(i) with
            | Some h ->
              Ksim.Ktimer.cancel h;
              handles.(i) <- None
            | None -> ()
          in
          let karm i ~quantum_ns =
            cancel i;
            handles.(i) <-
              Some
                (Ksim.Ktimer.arm_oneshot kt ~delay_ns:(max 0 quantum_ns)
                   ~handler:(fun () -> on_interrupt st i))
          in
          st.mech <-
            {
              mech_arm = karm;
              mech_disarm = cancel;
              arm_cost_ns = cfg.costs.Ksim.Costs.syscall_ns;
              disarm_cost_ns = cfg.costs.Ksim.Costs.syscall_ns;
              entry_cost_ns = 0;
              exit_cost_ns = cfg.costs.Ksim.Costs.syscall_ns;
              mech_shutdown =
                (fun () ->
                  Utimer.stop ut;
                  Array.iteri (fun i _ -> cancel i) handles);
              mech_fired = (fun () -> Utimer.fired ut + Ksim.Ktimer.expirations kt);
            };
          let t = Engine.Sim.now sim in
          Array.iteri
            (fun i slot ->
              match Utimer.intent_ns slot with
              | Some d -> karm i ~quantum_ns:(d - t)
              | None -> ())
            slots
        end);
    Utimer.start ut;
    {
      mech_arm = (fun i ~quantum_ns -> Utimer.arm_after slots.(i) ~ns:quantum_ns);
      mech_disarm = (fun i -> Utimer.disarm slots.(i));
      (* utimer_arm_deadline is one cache-aligned store *)
      arm_cost_ns = 4;
      disarm_cost_ns = 4;
      entry_cost_ns = cfg.hw.Hw.Params.uintr_handler_entry_ns;
      exit_cost_ns = cfg.hw.Hw.Params.uintr_uiret_ns;
      mech_shutdown = (fun () -> Utimer.stop ut);
      mech_fired = (fun () -> Utimer.fired ut);
    }
  | Uintr_hw_offload ->
    let fabric = Hw.Uintr.create ?trace:st.trace sim cfg.hw in
    let hwt = Hw.Hwtimer.create sim fabric in
    let slots =
      Array.init cfg.n_workers (fun i ->
          let receiver =
            Hw.Uintr.register_receiver fabric
              ~name:(Printf.sprintf "worker-%d" i)
              ~handler:(fun _ ~vector:_ -> on_interrupt st i)
              ()
          in
          Hw.Hwtimer.register hwt ~receiver ~vector:0)
    in
    {
      mech_arm = (fun i ~quantum_ns -> Hw.Hwtimer.arm_after slots.(i) ~ns:quantum_ns);
      mech_disarm = (fun i -> Hw.Hwtimer.disarm slots.(i));
      (* programming the comparator is one register write *)
      arm_cost_ns = 4;
      disarm_cost_ns = 4;
      entry_cost_ns = cfg.hw.Hw.Params.uintr_handler_entry_ns;
      exit_cost_ns = cfg.hw.Hw.Params.uintr_uiret_ns;
      mech_shutdown = (fun () -> Array.iter Hw.Hwtimer.disarm slots);
      mech_fired = (fun () -> Hw.Hwtimer.fired hwt);
    }
  | Signal_utimer { poll_ns } ->
    if poll_ns <= 0 then invalid_arg "Server: Signal_utimer poll must be positive";
    let signal =
      Ksim.Signal.create ?trace:st.trace sim cfg.costs ~rng:(Engine.Sim.fork_rng sim)
    in
    let s =
      {
        sig_sim = sim;
        deadlines = Array.make cfg.n_workers max_int;
        k_signal =
          Array.init cfg.n_workers (fun i ->
              let handler () = on_interrupt st i in
              fun () -> Ksim.Signal.deliver signal ~handler ());
        syscall_ns = cfg.costs.Ksim.Costs.syscall_ns;
        sig_fired = 0;
        sig_running = true;
      }
    in
    let rec loop () =
      if s.sig_running then
        ignore (Engine.Sim.after sim (max poll_ns (signal_expired s)) loop : Engine.Sim.event)
    in
    loop ();
    {
      mech_arm =
        (fun i ~quantum_ns -> s.deadlines.(i) <- Engine.Sim.now sim + quantum_ns);
      mech_disarm = (fun i -> s.deadlines.(i) <- max_int);
      arm_cost_ns = 4;
      disarm_cost_ns = 4;
      entry_cost_ns = 0 (* dispatch cost is inside the signal path *);
      exit_cost_ns = cfg.costs.Ksim.Costs.syscall_ns (* sigreturn *);
      mech_shutdown = (fun () -> s.sig_running <- false);
      mech_fired = (fun () -> s.sig_fired);
    }
  | Kernel_timer ->
    let signal =
      Ksim.Signal.create ?trace:st.trace sim cfg.costs ~rng:(Engine.Sim.fork_rng sim)
    in
    let ktimer =
      Ksim.Ktimer.create sim cfg.costs ~rng:(Engine.Sim.fork_rng sim) ~signal
    in
    let handles = Array.make cfg.n_workers None in
    let cancel i =
      match handles.(i) with
      | Some h ->
        Ksim.Ktimer.cancel h;
        handles.(i) <- None
      | None -> ()
    in
    {
      mech_arm =
        (fun i ~quantum_ns ->
          cancel i;
          handles.(i) <-
            Some
              (Ksim.Ktimer.arm_oneshot ktimer ~delay_ns:quantum_ns
                 ~handler:(fun () -> on_interrupt st i)));
      mech_disarm = cancel;
      (* timer_settime syscalls on both arm and cancel *)
      arm_cost_ns = cfg.costs.Ksim.Costs.syscall_ns;
      disarm_cost_ns = cfg.costs.Ksim.Costs.syscall_ns;
      entry_cost_ns = 0;
      exit_cost_ns = cfg.costs.Ksim.Costs.syscall_ns;
      mech_shutdown = (fun () -> Array.iteri (fun i _ -> cancel i) handles);
      mech_fired = (fun () -> Ksim.Ktimer.expirations ktimer);
    }

(* ------------------------------------------------------------------ *)
(* Dispatcher and arrivals                                             *)
(* ------------------------------------------------------------------ *)

let assign st req =
  (* Join-shortest-queue across worker local queues. *)
  let best = ref st.workers.(0) in
  let score w = Rqueue.length w.local + (match w.current with Some _ -> 1 | None -> 0) in
  Array.iter (fun w -> if score w < score !best then best := w) st.workers;
  tr_req st req ~name:"req.assign" ~arg:!best.wid;
  Rqueue.push !best.local ~now:(now st) req;
  schedule_next st !best

let pump_dispatcher st =
  if (not (Hw.Core.busy st.dispatcher)) && not (Rqueue.is_empty st.dispatch_q) then
    Hw.Core.begin_work st.dispatcher ~duration:st.cfg.dispatch_cost_ns
      ~on_done:st.k_dispatch

(* Body of [st.k_dispatch], preallocated once per run. *)
let dispatch_done st =
  (match Rqueue.pop st.dispatch_q ~now:(now st) with
  | Some req -> assign st req
  | None -> ());
  pump_dispatcher st

(* Admit one request into the dispatch pipeline. *)
let admit st (req : Workload.Request.t) =
  st.outstanding <- st.outstanding + 1;
  tr_req st req ~name:"req.arrive" ~arg:(Rqueue.length st.dispatch_q);
  if measured st req then st.measured_offered <- st.measured_offered + 1;
  Stats_window.note_arrival st.window ~now:(now st);
  Stats_window.note_qlen st.window (total_qlen st);
  Rqueue.push st.dispatch_q ~now:(now st) req;
  pump_dispatcher st

let verdict_arg = function
  | Guard.Admit -> 0
  | Guard.Shed_queue -> 1
  | Guard.Shed_delay -> 2
  | Guard.Shed_rate -> 3
  | Guard.Shed_brownout -> 4

(* Guarded admission of attempt [attempt] (1-based) of a logical
   request.  A shed never enters the system — [outstanding] untouched,
   record released — but still counts as offered work, and the client
   reacts to the rejection exactly as to a timeout: back off and maybe
   retry.  With no guard this is [admit], bit for bit. *)
let rec attempt_admit st ~attempt (req : Workload.Request.t) =
  match st.guard with
  | None -> admit st req
  | Some g ->
    let t = now st in
    let verdict =
      Guard.admission g ~now:t ~cls:req.Workload.Request.cls ~qlen:(total_qlen st)
        ~head_wait_ns:(Rqueue.head_wait_ns st.dispatch_q ~now:t)
    in
    (match verdict with
    | Guard.Admit ->
      (match (st.retry_rng, Guard.client_timeout_ns g) with
      | Some _, Some tmo ->
        (* Arm the client's patience clock.  The closure captures only
           scalars — the pooled record may back another request by the
           time it fires. *)
        let id = req.Workload.Request.id in
        let cls = req.Workload.Request.cls in
        let service_ns = req.Workload.Request.service_ns in
        Hashtbl.replace st.retry_attempts id attempt;
        ignore
          (Engine.Sim.at st.sim (t + tmo) (fun () ->
               client_timeout_fire st ~id ~attempt ~cls ~service_ns))
      | _ -> ());
      admit st req
    | shed ->
      if measured st req then begin
        st.measured_offered <- st.measured_offered + 1;
        st.measured_shed <- st.measured_shed + 1
      end;
      tr_req st req ~name:"guard.shed" ~arg:(verdict_arg shed);
      let cls = req.Workload.Request.cls in
      let service_ns = req.Workload.Request.service_ns in
      Workload.Request.Pool.release st.req_pool req;
      schedule_client_retry st ~attempt ~cls ~service_ns)

and client_timeout_fire st ~id ~attempt ~cls ~service_ns =
  if Hashtbl.mem st.retry_attempts id then begin
    Hashtbl.remove st.retry_attempts id;
    (match st.guard with Some g -> Guard.note_client_timeout g | None -> ());
    tr_guard st ~name:"guard.timeout" ~track:id ~arg:attempt;
    schedule_client_retry st ~attempt ~cls ~service_ns
  end

(* The client's reaction to a failed attempt.  Retries landing at or
   past [duration_ns] are discarded: arrivals stop there and a retry
   admitted during the drain would wedge the shutdown logic. *)
and schedule_client_retry st ~attempt ~cls ~service_ns =
  let t = now st in
  if t < st.duration_ns then
    match (st.guard, st.retry_rng) with
    | Some g, Some rng ->
      (match Guard.retry_gap g rng ~now:t ~attempt with
      | Some gap when t + gap < st.duration_ns ->
        Guard.note_retry g;
        ignore
          (Engine.Sim.at st.sim (t + gap) (fun () ->
               retry_fire st ~attempt:(attempt + 1) ~cls ~service_ns))
      | Some _ | None -> ())
    | _ -> ()

and retry_fire st ~attempt ~cls ~service_ns =
  let t = now st in
  let req =
    Workload.Request.Pool.acquire st.req_pool ~id:st.next_id ~arrival_ns:t ~service_ns
      ~cls
  in
  st.next_id <- st.next_id + 1;
  attempt_admit st ~attempt req

(* One arrival event is outstanding at a time, so a single [fire]
   closure (allocated once here) serves the whole run: it reads the
   arrival instant off the sim clock when it runs. *)
let arrivals st ~arrival ~source =
  let rec fire () =
    let at = now st in
    let service_ns, cls = Workload.Source.draw source st.service_rng ~now:at in
    let req =
      Workload.Request.Pool.acquire st.req_pool ~id:st.next_id ~arrival_ns:at
        ~service_ns ~cls
    in
    st.next_id <- st.next_id + 1;
    attempt_admit st ~attempt:1 req;
    schedule ()
  and schedule () =
    let t = now st in
    let gap = Workload.Arrival.next_gap arrival st.arrival_rng ~now:t in
    let at = t + gap in
    if at >= st.duration_ns then
      ignore
        (Engine.Sim.at st.sim st.duration_ns (fun () ->
             st.arrivals_done <- true;
             check_drain st))
    else ignore (Engine.Sim.at st.sim at fire)
  in
  schedule ()

(* Inject a pre-materialized trace instead of sampling arrivals. *)
let inject_trace st requests =
  (* Retries mint fresh ids from [next_id]; start past the trace's own
     ids so the patience table never sees a collision. *)
  (match st.guard with
  | Some _ ->
    List.iter
      (fun (r : Workload.Request.t) ->
        if r.Workload.Request.id >= st.next_id then st.next_id <- r.Workload.Request.id + 1)
      requests
  | None -> ());
  List.iter
    (fun (req : Workload.Request.t) ->
      if req.Workload.Request.arrival_ns >= st.duration_ns then
        invalid_arg "Server.run_trace: request arrives at/after duration";
      ignore
        (Engine.Sim.at st.sim req.Workload.Request.arrival_ns (fun () ->
             attempt_admit st ~attempt:1 req)))
    requests;
  ignore
    (Engine.Sim.at st.sim st.duration_ns (fun () ->
         st.arrivals_done <- true;
         check_drain st))

(* The window callback is allocated once; it clears [window_ev] first
   (handle-lifetime contract) and re-arms itself each window. *)
let window_loop st =
  let rec body () =
    st.window_ev <- Engine.Sim.null;
    if not st.drained then begin
      let t = now st in
      Stats_window.note_qlen st.window (total_qlen st);
      let snapshot = Stats_window.roll st.window ~now:t in
      (* Audit Algorithm 1: quantum in force before the controller ran
         vs after.  Reading [quantum_ns] is a pure controller-state
         lookup, done only when telemetry is on. *)
      let quantum_before =
        match st.tel with
        | Some _ ->
          st.cfg.policy.Policy.quantum_ns ~now:t ~cls:Workload.Request.Latency_critical
        | None -> 0
      in
      st.cfg.policy.Policy.on_window snapshot;
      (match st.guard with
      | Some g ->
        Guard.on_window g ~now:t ~p99_ns:snapshot.Stats_window.p99_ns
          ~max_qlen:snapshot.Stats_window.max_qlen
      | None -> ());
      let quantum_ns =
        st.cfg.policy.Policy.quantum_ns ~now:t ~cls:Workload.Request.Latency_critical
      in
      (match st.tel with
      | Some tel ->
        Telemetry.audit tel ~now:t ~snapshot ~quantum_before_ns:quantum_before
          ~quantum_after_ns:quantum_ns
      | None -> ());
      (match st.trace with
      | Some trace ->
        Obs.Trace.counter trace Obs.Trace.Server ~name:"qlen.dispatch"
          ~value:(Rqueue.length st.dispatch_q);
        Obs.Trace.counter trace Obs.Trace.Server ~name:"qlen.long"
          ~value:(Rqueue.length st.long_q);
        Obs.Trace.counter trace Obs.Trace.Server ~name:"quantum" ~value:quantum_ns;
        Obs.Trace.counter trace Obs.Trace.Server ~name:"sim.live"
          ~value:(Engine.Sim.live_events st.sim)
      | None -> ());
      st.probes.on_window snapshot ~quantum_ns;
      tick ()
    end
  and tick () = st.window_ev <- Engine.Sim.after st.sim st.cfg.stats_window_ns body in
  tick ()

(* The telemetry tick mirrors [window_loop]: one preallocated body,
   re-armed every [tick_ns], cancelled by [check_drain].  It only reads
   simulation state (queues, cores, controller) — no RNG, no
   scheduling decisions — so enabling it leaves latencies untouched. *)
let telemetry_loop st tel tick_ns =
  let rec body () =
    st.tel_ev <- Engine.Sim.null;
    if not st.drained then begin
      let t = now st in
      let quantum_ns =
        st.cfg.policy.Policy.quantum_ns ~now:t ~cls:Workload.Request.Latency_critical
      in
      let frame =
        Telemetry.tick tel ~now:t ~quantum_ns ~arrivals_total:st.next_id
          ~qlen:(total_qlen st)
      in
      st.probes.on_tick frame;
      tick ()
    end
  and tick () = st.tel_ev <- Engine.Sim.after st.sim tick_ns body in
  tick ()

(* ------------------------------------------------------------------ *)
(* Instances and entry points                                          *)
(* ------------------------------------------------------------------ *)

(* An instance is a fully wired server attached to a caller-owned
   simulation.  [run]/[run_trace] build one on a private sim; the
   cluster layer builds N on a shared sim and feeds them itself. *)
type t = st

let create ?(probes = no_probes) ?(warmup_ns = 0) cfg ~sim ~duration_ns =
  if cfg.n_workers <= 0 then invalid_arg "Server.run: need at least one worker";
  if duration_ns <= 0 then invalid_arg "Server.run: non-positive duration";
  if warmup_ns < 0 || warmup_ns >= duration_ns then
    invalid_arg "Server.run: warmup must lie within the run";
  let trace =
    Option.map
      (fun tc -> Obs.Trace.create ~config:tc ~clock:(fun () -> Engine.Sim.now sim) ())
      cfg.trace
  in
  (match (cfg.faults, trace) with
  | Some f, Some tr -> Fault.set_trace f tr
  | _ -> ());
  let metrics = Obs.Metrics.create () in
  Obs.Metrics.gauge metrics "sim.live_events" (fun () -> Engine.Sim.live_events sim);
  (match trace with
  | Some tr ->
    Obs.Metrics.gauge metrics "trace.recorded" (fun () -> Obs.Trace.recorded tr);
    Obs.Metrics.gauge metrics "trace.dropped" (fun () -> Obs.Trace.dropped tr)
  | None -> ());
  let guard = Option.map (fun gc -> Guard.create ?faults:cfg.faults ?trace gc) cfg.guard in
  let st =
    {
      sim;
      cfg;
      arrival_rng = Engine.Sim.fork_rng sim;
      service_rng = Engine.Sim.fork_rng sim;
      workers =
        Array.init cfg.n_workers (fun wid ->
            {
              wid;
              core = Hw.Core.create sim ~id:wid;
              local = Rqueue.create ~name:(Printf.sprintf "local-%d" wid);
              current = None;
              cur_deadline = max_int;
              transition = false;
              k_transition = ignore;
              k_complete = ignore;
              k_launch = ignore;
              k_resume = ignore;
            });
      long_q = Rqueue.create ~name:"long";
      dispatch_q = Rqueue.create ~name:"dispatch";
      dispatcher = Hw.Core.create sim ~id:(-1);
      pool = Context.create_pool ~capacity:cfg.ctx_pool_capacity ~stack_kb:cfg.stack_kb;
      req_pool = Workload.Request.Pool.create ();
      window = Stats_window.create ~window_ns:cfg.stats_window_ns;
      sum_all = Stat.Summary.create ();
      sum_lc = Stat.Summary.create ();
      sum_be = Stat.Summary.create ();
      probes;
      warmup_ns;
      duration_ns;
      mech =
        {
          mech_arm = (fun _ ~quantum_ns:_ -> ());
          mech_disarm = (fun _ -> ());
          arm_cost_ns = 0;
          disarm_cost_ns = 0;
          entry_cost_ns = 0;
          exit_cost_ns = 0;
          mech_shutdown = (fun () -> ());
          mech_fired = (fun () -> 0);
        };
      outstanding = 0;
      arrivals_done = false;
      drained = false;
      measured_offered = 0;
      measured_completed = 0;
      completed_in_window = 0;
      cancelled_measured = 0;
      measured_shed = 0;
      measured_expired = 0;
      goodput_measured = 0;
      goodput_in_window = 0;
      preemptions = 0;
      spurious = 0;
      next_id = 0;
      window_ev = Engine.Sim.null;
      k_dispatch = ignore;
      wedge_point = Option.map (fun f -> Fault.point f "server.wedge") cfg.faults;
      wedged = 0;
      ut = None;
      fallback_engaged = false;
      trace;
      metrics;
      m_lat = Obs.Metrics.histogram metrics "latency.all_ns";
      guard;
      tel = None;
      tel_ev = Engine.Sim.null;
      retry_rng = None;
      retry_attempts = Hashtbl.create 64;
    }
  in
  (match guard with
  | Some g ->
    Obs.Metrics.gauge metrics "guard.state" (fun () ->
        Guard.state_index (Guard.breaker_state g))
  | None -> ());
  (* The retry stream is forked only when the guard models retries, so
     a guard-less run forks exactly the streams it always did. *)
  (match guard with
  | Some g when (Guard.config g).Guard.retry <> None ->
    st.retry_rng <- Some (Engine.Sim.fork_rng sim)
  | Some _ | None -> ());
  st.k_dispatch <- (fun () -> dispatch_done st);
  Array.iter
    (fun w ->
      w.k_transition <-
        (fun () ->
          w.transition <- false;
          schedule_next st w);
      w.k_complete <-
        (fun () ->
          match w.current with
          | Some fn -> complete_current st w fn
          | None -> assert false);
      w.k_launch <- (fun () -> run_current st w ~resuming:false);
      w.k_resume <- (fun () -> run_current st w ~resuming:true))
    st.workers;
  st.mech <- make_mech st;
  (match cfg.telemetry with
  | Some tc ->
    st.tel <-
      Some
        (Telemetry.create tc ~n_cores:cfg.n_workers
           ~cores:(Array.map (fun w -> w.core) st.workers)
           ?guard ?trace ())
  | None -> ());
  st

(* Arm the periodic loops (stats window, telemetry tick).  Called after
   the initial arrivals are scheduled so the event-insertion order — and
   with it equal-timestamp tie-breaking — matches the pre-instance
   behaviour bit for bit. *)
let start st =
  window_loop st;
  match st.tel with
  | Some tel -> telemetry_loop st tel (Option.get st.cfg.telemetry).tick_ns
  | None -> ()

let inject st ~service_ns ~cls =
  let at = now st in
  if at >= st.duration_ns then invalid_arg "Server.inject: arrivals ended";
  let req =
    Workload.Request.Pool.acquire st.req_pool ~id:st.next_id ~arrival_ns:at ~service_ns
      ~cls
  in
  st.next_id <- st.next_id + 1;
  attempt_admit st ~attempt:1 req

let end_arrivals st =
  st.arrivals_done <- true;
  check_drain st

let inflight st = st.outstanding

let queue_depth st = total_qlen st

let completed_so_far st = st.measured_completed

(* Cluster work stealing: transplant up to [max] queued-but-unstarted
   requests from [victim] into [thief]'s dispatch pipeline.  The fleet
   counted each request when it was first offered, so the thief admits
   it without re-counting offered/shed and without a second guard
   admission decision; latency keeps the original arrival stamp, so
   fleet-level conservation (offered = completed+cancelled+dropped+shed
   summed over servers) survives any number of migrations. *)
let steal_from ~victim ~thief ~max =
  if victim == thief then invalid_arg "Server.steal_from: victim and thief are the same";
  let t = now victim in
  let moved = ref 0 in
  let exhausted = ref false in
  while (not !exhausted) && !moved < max do
    (* Prefer undispatched work, then the longest worker backlog. *)
    let popped =
      match Rqueue.pop victim.dispatch_q ~now:t with
      | Some _ as r -> r
      | None ->
        let best = ref None in
        Array.iter
          (fun w ->
            let len = Rqueue.length w.local in
            if len > 0 then
              match !best with
              | Some b when Rqueue.length b.local >= len -> ()
              | Some _ | None -> best := Some w)
          victim.workers;
        (match !best with Some w -> Rqueue.pop w.local ~now:t | None -> None)
    in
    match popped with
    | None -> exhausted := true
    | Some req ->
      let arrival_ns = req.Workload.Request.arrival_ns in
      let service_ns = req.Workload.Request.service_ns in
      let cls = req.Workload.Request.cls in
      tr_req victim req ~name:"req.stolen_away" ~arg:0;
      victim.outstanding <- victim.outstanding - 1;
      Workload.Request.Pool.release victim.req_pool req;
      let req' =
        Workload.Request.Pool.acquire thief.req_pool ~id:thief.next_id ~arrival_ns
          ~service_ns ~cls
      in
      thief.next_id <- thief.next_id + 1;
      thief.outstanding <- thief.outstanding + 1;
      tr_req thief req' ~name:"req.stolen_in" ~arg:0;
      Rqueue.push thief.dispatch_q ~now:t req';
      pump_dispatcher thief;
      incr moved
  done;
  if !moved > 0 then check_drain victim;
  !moved

let finish st =
  let cfg = st.cfg and sim = st.sim and duration_ns = st.duration_ns in
  if st.outstanding > 0 then
    failwith
      (Printf.sprintf
         "Server.run: event cap (%d) hit with %d requests outstanding — raise max_events \
          or lower the load"
         cfg.max_events st.outstanding);
  if st.measured_completed = 0 then
    failwith "Server.run: no measured completions (warmup too long or load too low)";
  let measured_ns = duration_ns - st.warmup_ns in
  let final = Engine.Sim.now sim in
  let busy = Array.fold_left (fun acc w -> acc + Hw.Core.busy_ns w.core) 0 st.workers in
  (* End-of-run totals, folded into the registry so one snapshot carries
     the whole story. *)
  Obs.Metrics.add (Obs.Metrics.counter st.metrics "requests.offered") st.measured_offered;
  Obs.Metrics.add (Obs.Metrics.counter st.metrics "requests.completed") st.measured_completed;
  Obs.Metrics.add (Obs.Metrics.counter st.metrics "requests.cancelled") st.cancelled_measured;
  Obs.Metrics.add (Obs.Metrics.counter st.metrics "preemptions") st.preemptions;
  Obs.Metrics.add (Obs.Metrics.counter st.metrics "interrupts.timer") (st.mech.mech_fired ());
  Obs.Metrics.add (Obs.Metrics.counter st.metrics "interrupts.spurious") st.spurious;
  Obs.Metrics.add (Obs.Metrics.counter st.metrics "wedged") st.wedged;
  (match st.guard with
  | Some g ->
    let gr = Guard.report g in
    Obs.Metrics.add (Obs.Metrics.counter st.metrics "guard.shed") gr.Guard.shed_total;
    Obs.Metrics.add (Obs.Metrics.counter st.metrics "guard.expired") gr.Guard.expired;
    Obs.Metrics.add
      (Obs.Metrics.counter st.metrics "guard.timeouts")
      gr.Guard.client_timeouts;
    Obs.Metrics.add (Obs.Metrics.counter st.metrics "guard.retries") gr.Guard.retries;
    Obs.Metrics.add (Obs.Metrics.counter st.metrics "guard.goodput") gr.Guard.goodput
  | None -> ());
  {
    duration_ns;
    measured_ns;
    offered = st.measured_offered;
    completed = st.measured_completed;
    cancelled = st.cancelled_measured;
    dropped = st.measured_expired;
    shed = st.measured_shed;
    goodput = st.goodput_measured;
    goodput_rps = float_of_int st.goodput_in_window *. 1e9 /. float_of_int measured_ns;
    all = Stat.Summary.report st.sum_all;
    lc = (if Stat.Summary.count st.sum_lc = 0 then None else Some (Stat.Summary.report st.sum_lc));
    be = (if Stat.Summary.count st.sum_be = 0 then None else Some (Stat.Summary.report st.sum_be));
    throughput_rps = float_of_int st.completed_in_window *. 1e9 /. float_of_int measured_ns;
    offered_rps = float_of_int st.measured_offered *. 1e9 /. float_of_int measured_ns;
    preemptions = st.preemptions;
    timer_interrupts = st.mech.mech_fired ();
    spurious_interrupts = st.spurious;
    ctx_high_water = Context.high_water st.pool;
    worker_busy_frac =
      (if final = 0 then 0.0
       else float_of_int busy /. (float_of_int cfg.n_workers *. float_of_int final));
    long_queue_hwm = Rqueue.max_length st.long_q;
    dispatch_queue_hwm = Rqueue.max_length st.dispatch_q;
    sim_events = Engine.Sim.events_fired sim;
    resilience =
      (match cfg.faults with
      | None -> None
      | Some f ->
        Some
          {
            fault_report = Fault.report f;
            wd = Option.map Utimer.watchdog_stats st.ut;
            timer_health = Option.map Utimer.health st.ut;
            wedged = st.wedged;
            fallback_engaged = st.fallback_engaged;
          });
    guard = Option.map Guard.report st.guard;
    trace = st.trace;
    metrics = Obs.Metrics.snapshot st.metrics;
    telemetry = Option.map Telemetry.report st.tel;
  }

let run_with ~probes ~warmup_ns cfg ~feed ~duration_ns =
  let sim = Engine.Sim.create ~seed:cfg.seed () in
  let st = create ~probes ~warmup_ns cfg ~sim ~duration_ns in
  feed st;
  start st;
  Engine.Sim.run ~max_events:cfg.max_events sim;
  finish st

let run ?(probes = no_probes) ?(warmup_ns = 0) cfg ~arrival ~source ~duration_ns =
  run_with ~probes ~warmup_ns cfg ~feed:(fun st -> arrivals st ~arrival ~source) ~duration_ns

let run_trace ?(probes = no_probes) ?(warmup_ns = 0) cfg ~requests ~duration_ns =
  run_with ~probes ~warmup_ns cfg ~feed:(fun st -> inject_trace st requests) ~duration_ns

let pp_resilience fmt r =
  let health =
    match r.timer_health with
    | Some Utimer.Healthy -> "healthy"
    | Some Utimer.Failed_over -> "failed-over"
    | Some Utimer.Degraded -> "degraded"
    | None -> "n/a"
  in
  Format.fprintf fmt "@[<v>%a@ timer=%s wedged=%d fallback=%b" Fault.pp_report
    r.fault_report health r.wedged r.fallback_engaged;
  (match r.wd with
  | Some w ->
    Format.fprintf fmt "@ watchdog: detected=%d recovered=%d retries=%d failovers=%d degraded_slots=%d"
      w.Utimer.wd_detected w.Utimer.wd_recovered w.Utimer.wd_retries w.Utimer.wd_failovers
      w.Utimer.wd_degraded_slots
  | None -> ());
  Format.fprintf fmt "@]"

let pp_result fmt r =
  Format.fprintf fmt
    "@[<v>offered=%d (%.0f rps) completed=%d (%.0f rps)@ all: %a@ preemptions=%d \
     timer_fired=%d spurious=%d ctx_hwm=%d busy=%.1f%%@]"
    r.offered r.offered_rps r.completed r.throughput_rps Stat.Summary.pp_report_us r.all
    r.preemptions r.timer_interrupts r.spurious_interrupts r.ctx_high_water
    (100.0 *. r.worker_busy_frac)
