(* The real-runtime workloads: an open-loop replay and a CPU-bound batch
   on a Fiber_rt.Pool, driven by the benchmark's own generator so it
   can time submits, starts, slices and preemption waits from outside
   the pool. *)

module Pool = Fiber_rt.Pool

let now = Clock.now_ns

(* A checkpoint that returns after this long parked the fiber: it
   yielded to the scheduler rather than just polling the deadline. *)
let yield_threshold_ns = 10_000

(* Traced-mode measurements, written from the generator and the worker
   domains; [lock] serialises the lists, polls are counted atomically
   because every checkpoint is one. *)
type instr = {
  spans : Spans.t;
  lock : Mutex.t;
  mutable slices : float list;  (** us of active time before a yield *)
  mutable waits : float list;  (** us parked inside a yielding checkpoint *)
  polls : int Atomic.t;
  poll_ns : int Atomic.t;
}

let instr spans =
  {
    spans;
    lock = Mutex.create ();
    slices = [];
    waits = [];
    polls = Atomic.make 0;
    poll_ns = Atomic.make 0;
  }

(* The safepoint a job body calls.  Traced, it times each checkpoint:
   a quick return is a poll, a long one a preemption, which closes the
   slice that began when the job started or last resumed. *)
let checkpoint instr ~track =
  match instr with
  | None -> Pool.checkpoint
  | Some ins ->
    let slice_start = ref (now ()) in
    fun () ->
      let t0 = now () in
      Pool.checkpoint ();
      let t1 = now () in
      let d = t1 - t0 in
      if d < yield_threshold_ns then begin
        Atomic.incr ins.polls;
        ignore (Atomic.fetch_and_add ins.poll_ns d : int)
      end
      else begin
        Mutex.protect ins.lock (fun () ->
            ins.slices <- (float_of_int (t0 - !slice_start) /. 1e3) :: ins.slices;
            ins.waits <- (float_of_int d /. 1e3) :: ins.waits);
        Spans.instant ins.spans Obs.Trace.Fiber "fiber_rt.preempt" ~track ~arg:d;
        slice_start := t1
      end

(* Burn [ns] of active time in 20 us chunks with a safepoint between
   chunks, as Fiber_rt.Sched does: parked time does not count. *)
let chunk_ns = 20_000

let spin ~checkpoint ns =
  let remaining = ref ns in
  while !remaining > 0 do
    let c = min !remaining chunk_ns in
    let t0 = now () in
    while now () - t0 < c do
      ()
    done;
    remaining := !remaining - c;
    checkpoint ()
  done

(* Per-op bookkeeping shared by both workloads: op [i] records how
   often it ran, when it started and finished, and how late the
   generator submitted it. *)
type ops = {
  runs : int array;
  submitted : int array;  (** ns, absolute *)
  started : int array;
  finished : int array;
  late_ns : int array;
  submit_ns : int array;  (** time inside [Pool.submit] *)
}

let ops n =
  let z () = Array.make n 0 in
  {
    runs = z ();
    submitted = z ();
    started = z ();
    finished = z ();
    late_ns = z ();
    submit_ns = z ();
  }

let concat_ops l =
  let cat f = Array.concat (List.map f l) in
  {
    runs = cat (fun o -> o.runs);
    submitted = cat (fun o -> o.submitted);
    started = cat (fun o -> o.started);
    finished = cat (fun o -> o.finished);
    late_ns = cat (fun o -> o.late_ns);
    submit_ns = cat (fun o -> o.submit_ns);
  }

(* Wrap a job body with the bookkeeping and, when traced, a span on the
   op's track. *)
let job instr ops i body () =
  ops.started.(i) <- now ();
  let track = i + 1 in
  let run () = body (checkpoint instr ~track) in
  (match instr with
  | None -> run ()
  | Some ins -> Spans.span (Some ins.spans) Obs.Trace.Fiber "fiber_rt.job" ~track run);
  ops.runs.(i) <- ops.runs.(i) + 1;
  ops.finished.(i) <- now ()

(* Submit op [i], due at [due] (absolute ns). *)
let submit instr pool ops i ~due ~lc body =
  let s = now () in
  ops.late_ns.(i) <- s - due;
  ops.submitted.(i) <- s;
  let trace = Option.map (fun ins -> ins.spans) instr in
  Spans.span trace Obs.Trace.Fiber "gen.submit" ~track:0 (fun () ->
      Pool.submit pool ~lc (job instr ops i body));
  ops.submit_ns.(i) <- now () - s

(* ------------------------------------------------------------------ *)
(* Open loop                                                           *)
(* ------------------------------------------------------------------ *)

type open_loop = {
  items : Fiber_rt.Sched.item array;
  t0 : int;  (** ns, absolute: the schedule's time zero *)
  o : ops;
  drain_ns : int;  (** last due arrival to the return of [Pool.drain] *)
  wall_s : float;  (** time zero to the last completion *)
}

(* Sleep until each item is due, submit it, and drain.  Latency is
   measured from the due time, so generator lateness counts. *)
let open_loop ?instr pool (items : Fiber_rt.Sched.item array) =
  let n = Array.length items in
  let o = ops n in
  let t0 = now () in
  Array.iteri
    (fun i (it : Fiber_rt.Sched.item) ->
      let due = t0 + it.at_ns in
      let gap = due - now () in
      if gap > 0 then Unix.sleepf (float_of_int gap *. 1e-9);
      submit instr pool o i ~due ~lc:it.lc (fun checkpoint -> spin ~checkpoint it.service_ns))
    items;
  Pool.drain pool;
  let last_due = if n = 0 then t0 else t0 + items.(n - 1).at_ns in
  let drain_ns = now () - last_due in
  let last = Array.fold_left max t0 o.finished in
  { items; t0; o; drain_ns; wall_s = float_of_int (last - t0) /. 1e9 }

let latency_ns r i = r.o.finished.(i) - (r.t0 + r.items.(i).Fiber_rt.Sched.at_ns)

(* The rt-open spec at a capacity-relative rate; [dur] is the schedule
   length. *)
let open_text ~rate ~dur_s ~warmup_s ~seed =
  let ms s = int_of_float (s *. 1e3) in
  Printf.sprintf
    "sys=lp; workers=1; quantum=250us; src=mix(0.9*exp:100us@lc, 0.1*exp:5ms@be); \
     arrival=poisson:%gx; dur=%dms; warmup=%dms; seed=%d"
    rate (ms dur_s) (ms warmup_s) seed

(* ------------------------------------------------------------------ *)
(* Batch                                                               *)
(* ------------------------------------------------------------------ *)

(* Naive Fibonacci with a safepoint every 256 calls, so a 200 us
   quantum lands several times in each job. *)
let fib ~checkpoint n =
  let calls = ref 0 in
  let rec go n =
    incr calls;
    if !calls land 255 = 0 then checkpoint ();
    if n < 2 then n else go (n - 1) + go (n - 2)
  in
  go n

let fib_value n =
  let a = ref 0 and b = ref 1 in
  for _ = 1 to n do
    let c = !a + !b in
    a := !b;
    b := c
  done;
  !a

(* Job sizes: an equal mix of fib 23, 24 and 25 (about 0.25, 0.4 and
   0.65 ms), in an order drawn from [seed].  The total work does not
   depend on the seed. *)
let batch_sizes ~seed n =
  let a = Array.init n (fun i -> 23 + (i mod 3)) in
  let rng = Random.State.make [| seed |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

type round = {
  ro : ops;
  wrong_at : bool array;  (** the job's result differs from [fib_value] *)
  round_s : float;
  round_drain_ns : int;  (** last submit to the return of [Pool.drain] *)
  rt0 : int;
}

(* Submit every job at once (all due at the round's start), then drain. *)
let batch_round ?instr pool sizes =
  let n = Array.length sizes in
  let o = ops n in
  let results = Array.make n (-1) in
  let t0 = now () in
  Array.iteri
    (fun i size ->
      submit instr pool o i ~due:t0 ~lc:true (fun checkpoint ->
          results.(i) <- fib ~checkpoint size))
    sizes;
  let last_submit = now () in
  Pool.drain pool;
  let t1 = now () in
  {
    ro = o;
    wrong_at = Array.mapi (fun i size -> results.(i) <> fib_value size) sizes;
    round_s = float_of_int (t1 - t0) /. 1e9;
    round_drain_ns = t1 - last_submit;
    rt0 = t0;
  }

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of traced rt activity                             *)
(* ------------------------------------------------------------------ *)

let pct l p = if l = [] then 0.0 else Stats.percentile (Array.of_list l) p

(* [idx] selects the ops that count; [drain_ms] and [preemptions] come
   from the caller. *)
let layer_metrics ins (o : ops) ~idx ~lc ~drain_ms ~preemptions =
  let sel f = List.map (fun i -> float_of_int (f i)) idx in
  let submit = sel (fun i -> o.submit_ns.(i)) in
  let start = List.map (fun d -> d /. 1e3) (sel (fun i -> o.started.(i) - o.submitted.(i))) in
  let late = List.map (fun d -> d /. 1e3) (sel (fun i -> o.late_ns.(i))) in
  let jobs = float_of_int (max 1 (List.length idx)) in
  let polls = Atomic.get ins.polls in
  let n_lc = List.length (List.filter lc idx) in
  [
    ("fiber_rt.submit_ns.p50", pct submit 50.0);
    ("fiber_rt.submit_ns.p99", pct submit 99.0);
    ("fiber_rt.start_delay_us.p50", pct start 50.0);
    ("fiber_rt.start_delay_us.p99", pct start 99.0);
    ("fiber_rt.poll_ns", float_of_int (Atomic.get ins.poll_ns) /. float_of_int (max 1 polls));
    ("fiber_rt.polls_per_job", float_of_int polls /. jobs);
    ("fiber_rt.slice_us.p50", pct ins.slices 50.0);
    ("fiber_rt.slice_us.p99", pct ins.slices 99.0);
    ("fiber_rt.preempt_wait_us.p50", pct ins.waits 50.0);
    ("fiber_rt.preempt_wait_us.p99", pct ins.waits 99.0);
    ("fiber_rt.preemptions_per_job", float_of_int preemptions /. jobs);
    ("fiber_rt.drain_ms", drain_ms);
    ("gen.late_us.p50", pct late 50.0);
    ("gen.late_us.p99", pct late 99.0);
    ("gen.late_us.max", pct late 100.0);
    ("gen.lc_n", float_of_int n_lc);
    ("gen.be_n", float_of_int (List.length idx - n_lc));
  ]
