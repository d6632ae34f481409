(* Blocking-aware multicore fiber pool.

   N worker domains each own a Fiber runtime (External timer mode: the
   deadline slot is swept by the pool's shared timer domain — one timer
   core arming N slots, the LibUtimer shape) and two work-stealing
   deques, one per request class.  Scheduling order per worker:

     inbox (fresh arrivals, FIFO)          — fresh-first, so short new
     own LC deque -> own BE deque            requests are not stuck
     steal LC from all victims               behind preempted long ones
     steal BE from all victims               (the paper's Sec V-C
                                             FCFS-with-preemption policy)

   Preempted fibers go back on their owner's deque (LIFO: cache-warm);
   idle workers steal from the top (FIFO: oldest first), scanning every
   victim for LC work before touching any BE — LC-first victim
   selection.  A fiber that blocks (Fiber.sleep_until) parks off-queue
   and the timer domain re-injects it through the inbox when its wake
   time passes, so a sleeping fiber never holds a domain.

   Continuations are rebound across domains on steal via
   Fiber.fn_resume_on; fiber bodies find their current runtime through
   domain-local state (checkpoint/sleep_ns below), never by capturing
   the launch-time runtime.

   Idle workers make a brief lock-free sweep, then block on a condition
   variable guarded by an epoch counter (bumped whenever any work
   appears), so an idle pool burns no CPU — which also keeps the pool
   honest on single-core hosts where a spinning sibling would starve
   the one domain doing real work. *)

type job = {
  body : unit -> unit;
  lc : bool;
  job_quantum : int option;
  mutable fn : unit Fiber.fn option; (* set at first launch *)
}

type worker = {
  id : int;
  rt : Fiber.t;
  lc_q : job Spmc_deque.t;
  be_q : job Spmc_deque.t;
  mutable executed : int; (* jobs completed on this domain *)
  mutable stolen : int; (* jobs this domain stole *)
}

type t = {
  workers : worker array;
  clk : Deadline_clock.t;
  m : Mutex.t;
  work_c : Condition.t;
  drain_c : Condition.t;
  inbox : job Queue.t; (* under m *)
  mutable parked : (int * job) list; (* (wake_ns, job), under m *)
  mutable inflight : int; (* under m *)
  mutable failed : int; (* under m *)
  epoch : int Atomic.t; (* bumped on any new work *)
  stop : bool Atomic.t;
  mutable domains : unit Domain.t list;
  mutable timer_dom : unit Domain.t option;
}

type stats = {
  executed : int array;
  stolen : int array;
  preemptions : int;
  failed : int;
}

(* A "no preemption" quantum: far enough out that a wall clock never
   reaches it, small enough that now + q cannot overflow. *)
let never_ns = max_int / 4

let current_rt : Fiber.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let checkpoint () =
  match !(Domain.DLS.get current_rt) with
  | Some rt -> Fiber.checkpoint rt
  | None -> ()

let sleep_ns ns =
  match !(Domain.DLS.get current_rt) with
  | Some rt ->
    if ns > 0 then
      Fiber.sleep_until rt ~wake_ns:(Deadline_clock.now_ns (Fiber.clock rt) + ns)
  | None -> invalid_arg "Pool.sleep_ns: not on a pool worker"

let notify t =
  Atomic.incr t.epoch;
  Mutex.lock t.m;
  Condition.broadcast t.work_c;
  Mutex.unlock t.m

let take_inbox t =
  Mutex.lock t.m;
  let j = if Queue.is_empty t.inbox then None else Some (Queue.pop t.inbox) in
  Mutex.unlock t.m;
  j

(* Lock-free (except the inbox peek) sweep for the next job, in the
   documented priority order.  Victim scans start just after [w] so the
   pack does not hammer one victim. *)
let try_find t (w : worker) =
  let n = Array.length t.workers in
  let steal_from sel =
    let rec go k =
      if k = n then None
      else
        let v = t.workers.((w.id + 1 + k) mod n) in
        if v.id = w.id then go (k + 1)
        else
          match Spmc_deque.steal (sel v) with
          | Some j ->
            w.stolen <- w.stolen + 1;
            Some j
          | None -> go (k + 1)
    in
    go 0
  in
  match take_inbox t with
  | Some j -> Some j
  | None -> (
    match Spmc_deque.pop w.lc_q with
    | Some j -> Some j
    | None -> (
      match Spmc_deque.pop w.be_q with
      | Some j -> Some j
      | None -> (
        match steal_from (fun v -> v.lc_q) with
        | Some j -> Some j
        | None -> steal_from (fun v -> v.be_q))))

let retire t delta_failed =
  Mutex.lock t.m;
  t.inflight <- t.inflight - 1;
  t.failed <- t.failed + delta_failed;
  if t.inflight = 0 then Condition.broadcast t.drain_c;
  Mutex.unlock t.m

let run_job t (w : worker) job =
  let ok =
    try
      (match job.fn with
      | None -> job.fn <- Some (Fiber.fn_launch w.rt ?quantum_ns:job.job_quantum job.body)
      | Some fn -> Fiber.fn_resume_on w.rt fn);
      true
    with _ -> false
  in
  if not ok then retire t 1
  else
    let fn = Option.get job.fn in
    if Fiber.fn_completed fn then begin
      w.executed <- w.executed + 1;
      retire t 0
    end
    else
      match Fiber.blocked_until fn with
      | Some wake ->
        Mutex.lock t.m;
        t.parked <- (wake, job) :: t.parked;
        Mutex.unlock t.m
      | None ->
        Spmc_deque.push (if job.lc then w.lc_q else w.be_q) job;
        notify t

let worker_loop t (w : worker) () =
  Domain.DLS.get current_rt := Some w.rt;
  let rec loop () =
    let e = Atomic.get t.epoch in
    match try_find t w with
    | Some job ->
      run_job t w job;
      loop ()
    | None ->
      if not (Atomic.get t.stop) then begin
        Mutex.lock t.m;
        if Atomic.get t.epoch = e && not (Atomic.get t.stop) then
          Condition.wait t.work_c t.m;
        Mutex.unlock t.m;
        loop ()
      end
  in
  loop ()

(* The shared timer domain: sweep every worker's deadline slot (the
   SENDUIPI fan-out) and re-inject parked fibers whose wake time
   passed.  Sleeps toward the nearest event, capped so shutdown and
   freshly armed slots are noticed promptly; never busy-spins — on an
   oversubscribed host that would steal the cycles the workers need.

   Every wake displaces a running worker for ~10 us on a loaded
   single-core host (context-switch pair plus cache refill), so the
   cadence is the software analogue of the paper's timer-core overhead
   and is kept as low as correctness allows: no-preemption sentinel
   deadlines (further than [timer_horizon_ns] out) do not count as
   armed, an unarmed pool dozes at [timer_doze_s], and an armed pool
   sleeps toward the nearest deadline minus a [timer_lead_ns] lead,
   clamped to [timer_min_s .. timer_cap_s].  The cap bounds preemption
   lateness for a deadline armed by another domain mid-sleep; the lead
   plus min keep the final approach accurate to a few tens of us. *)
let timer_cap_s = 250e-6
let timer_min_s = 20e-6
let timer_doze_s = 200e-6
let timer_lead_ns = 50_000
let timer_horizon_ns = 1_000_000_000

let timer_loop t () =
  while not (Atomic.get t.stop) do
    let now = Deadline_clock.now_ns t.clk in
    let nearest = ref max_int in
    Array.iter
      (fun (w : worker) ->
        ignore (Fiber.poll_slot w.rt ~now_ns:now);
        let d = Fiber.deadline_ns w.rt in
        if d <> 0 && d - now < timer_horizon_ns && d < !nearest then nearest := d)
      t.workers;
    Mutex.lock t.m;
    let due, rest = List.partition (fun (wake, _) -> wake <= now) t.parked in
    t.parked <- rest;
    (if due <> [] then begin
       (* Wake in wake-time order so earlier sleepers run first. *)
       List.sort (fun (a, _) (b, _) -> compare a b) due
       |> List.iter (fun (_, j) -> Queue.push j t.inbox);
       Atomic.incr t.epoch;
       Condition.broadcast t.work_c
     end);
    List.iter (fun (wake, _) -> if wake < !nearest then nearest := wake) rest;
    Mutex.unlock t.m;
    if !nearest = max_int then Unix.sleepf timer_doze_s
    else
      (* Negative gaps (deadline inside the lead, or already due) still
         sleep [timer_min_s]: the next sweep fires at most ~20 us late
         and the timer never busy-spins against its own workers. *)
      let gap = !nearest - timer_lead_ns - Deadline_clock.now_ns t.clk in
      Unix.sleepf
        (Float.min timer_cap_s (Float.max timer_min_s (float_of_int gap *. 1e-9)))
  done

let create ?quantum_ns ~workers () =
  if workers < 1 then invalid_arg "Pool.create: need at least one worker";
  (match quantum_ns with
  | Some q when q <= 0 -> invalid_arg "Pool.create: quantum must be positive"
  | Some _ | None -> ());
  let clk = Deadline_clock.wall () in
  let mk id =
    {
      id;
      rt =
        Fiber.create
          ~quantum_ns:(Option.value quantum_ns ~default:never_ns)
          ~timer:Fiber.External ~clock:clk ();
      lc_q = Spmc_deque.create ();
      be_q = Spmc_deque.create ();
      executed = 0;
      stolen = 0;
    }
  in
  let t =
    {
      workers = Array.init workers mk;
      clk;
      m = Mutex.create ();
      work_c = Condition.create ();
      drain_c = Condition.create ();
      inbox = Queue.create ();
      parked = [];
      inflight = 0;
      failed = 0;
      epoch = Atomic.make 0;
      stop = Atomic.make false;
      domains = [];
      timer_dom = None;
    }
  in
  t.domains <-
    Array.to_list (Array.map (fun w -> Domain.spawn (worker_loop t w)) t.workers);
  t.timer_dom <- Some (Domain.spawn (timer_loop t));
  t

let size t = Array.length t.workers
let clock t = t.clk

let submit t ?quantum_ns ?(lc = true) body =
  if Atomic.get t.stop then invalid_arg "Pool.submit: pool is shut down";
  (match quantum_ns with
  | Some q when q <= 0 -> invalid_arg "Pool.submit: quantum must be positive"
  | Some _ | None -> ());
  let job = { body; lc; job_quantum = quantum_ns; fn = None } in
  Mutex.lock t.m;
  t.inflight <- t.inflight + 1;
  Queue.push job t.inbox;
  Atomic.incr t.epoch;
  Condition.broadcast t.work_c;
  Mutex.unlock t.m

let drain t =
  Mutex.lock t.m;
  while t.inflight > 0 do
    Condition.wait t.drain_c t.m
  done;
  Mutex.unlock t.m

let stats t =
  Mutex.lock t.m;
  let failed = t.failed in
  Mutex.unlock t.m;
  {
    executed = Array.map (fun (w : worker) -> w.executed) t.workers;
    stolen = Array.map (fun (w : worker) -> w.stolen) t.workers;
    preemptions =
      Array.fold_left (fun a (w : worker) -> a + Fiber.preemptions w.rt) 0 t.workers;
    failed;
  }

let shutdown t =
  if not (Atomic.exchange t.stop true) then begin
    Mutex.lock t.m;
    Condition.broadcast t.work_c;
    Mutex.unlock t.m;
    List.iter Domain.join t.domains;
    t.domains <- [];
    Option.iter Domain.join t.timer_dom;
    t.timer_dom <- None;
    (* Workers leave only once no queued or preempted job is left, so
       whatever is still in flight sleeps in [sleep_ns] (or reached the
       inbox after the last worker left).  Abandon it, so that [drain]
       cannot wait for a wake-up that no domain will deliver. *)
    Mutex.lock t.m;
    t.parked <- [];
    Queue.clear t.inbox;
    t.inflight <- 0;
    Condition.broadcast t.drain_c;
    Mutex.unlock t.m
  end
