type _ Effect.t += Yield : unit Effect.t | Sleep_until : int -> unit Effect.t

type timer_mode = Inline | External

type t = {
  clk : Deadline_clock.t;
  deadline : int Atomic.t; (* absolute ns; 0 = disarmed *)
  flag : bool Atomic.t;
  mutable quantum : int;
  timer : timer_mode;
  mutable in_fn : bool;
  mutable on_preempt : unit -> unit;
  mutable total_preemptions : int;
  trace : Obs.Trace.t option;
}

type 'a state =
  | Running_state
  | Suspended of (unit, unit) Effect.Deep.continuation
  | Completed of 'a
  | Failed of exn

type 'a fn = {
  mutable rt : t;
  mutable st : 'a state;
  mutable preempts : int;
  mutable blocked_until : int option;
  fn_quantum : int option;
}

let create ?(quantum_ns = 1_000_000) ?(timer = Inline) ?trace ~clock () =
  if quantum_ns <= 0 then invalid_arg "Fiber.create: quantum must be positive";
  {
    clk = clock;
    deadline = Atomic.make 0;
    flag = Atomic.make false;
    quantum = quantum_ns;
    timer;
    in_fn = false;
    on_preempt = ignore;
    total_preemptions = 0;
    trace;
  }

let clock t = t.clk
let quantum_ns t = t.quantum

let set_quantum_ns t q =
  if q <= 0 then invalid_arg "Fiber.set_quantum_ns: quantum must be positive";
  t.quantum <- q

let tr t ~name ~arg =
  match t.trace with
  | Some trace -> Obs.Trace.instant trace Obs.Trace.Fiber ~name ~track:0 ~arg
  | None -> ()

let arm t q =
  Atomic.set t.flag false;
  Atomic.set t.deadline (Deadline_clock.now_ns t.clk + q);
  tr t ~name:"fiber.arm" ~arg:q

let disarm t =
  Atomic.set t.deadline 0;
  Atomic.set t.flag false

let deadline_ns t = Atomic.get t.deadline

let poll_slot t ~now_ns =
  let d = Atomic.get t.deadline in
  if d <> 0 && now_ns >= d then begin
    Atomic.set t.deadline 0;
    Atomic.set t.flag true;
    true
  end
  else false

(* Run a slice of [fn] (either its first activation or a continuation)
   with the deadline armed.  Restores runtime state even if the fiber
   body raises. *)
let exec fn slice =
  let t = fn.rt in
  if t.in_fn then invalid_arg "Fiber: a function is already running on this runtime";
  t.in_fn <- true;
  t.on_preempt <- (fun () -> fn.preempts <- fn.preempts + 1);
  fn.blocked_until <- None;
  arm t (match fn.fn_quantum with Some q -> q | None -> t.quantum);
  Fun.protect
    ~finally:(fun () ->
      t.in_fn <- false;
      t.on_preempt <- ignore;
      disarm t)
    slice

let handler (fn : _ fn) =
  {
    Effect.Deep.retc = (fun () -> ());
    exnc = (fun e -> fn.st <- Failed e; raise e);
    effc =
      (fun (type b) (eff : b Effect.t) ->
        match eff with
        | Yield ->
          Some
            (fun (k : (b, unit) Effect.Deep.continuation) -> fn.st <- Suspended k)
        | Sleep_until wake ->
          Some
            (fun (k : (b, unit) Effect.Deep.continuation) ->
              fn.st <- Suspended k;
              fn.blocked_until <- Some wake)
        | _ -> None);
  }

let fn_launch t ?quantum_ns f =
  (match quantum_ns with
  | Some q when q <= 0 -> invalid_arg "Fiber.fn_launch: quantum must be positive"
  | Some _ | None -> ());
  let fn =
    { rt = t; st = Running_state; preempts = 0; blocked_until = None; fn_quantum = quantum_ns }
  in
  let body () = fn.st <- Completed (f ()) in
  exec fn (fun () -> Effect.Deep.match_with body () (handler fn));
  fn

let fn_resume fn =
  match fn.st with
  | Suspended k ->
    fn.st <- Running_state;
    exec fn (fun () -> Effect.Deep.continue k ())
  | Running_state -> invalid_arg "Fiber.fn_resume: function is running"
  | Completed _ | Failed _ -> invalid_arg "Fiber.fn_resume: function already completed"

let fn_resume_on t fn =
  (* Rebind the continuation to another runtime (work stealing): the
     thief's deadline slot is armed for the next slice.  The body must
     locate its runtime dynamically (e.g. Pool.checkpoint via DLS), not
     capture the launch-time one. *)
  fn.rt <- t;
  fn_resume fn

let fn_completed fn =
  match fn.st with Completed _ | Failed _ -> true | Running_state | Suspended _ -> false

let result fn = match fn.st with Completed r -> Some r | _ -> None
let preempt_count fn = fn.preempts
let blocked_until fn = fn.blocked_until

let checkpoint t =
  if t.in_fn then begin
    let fire =
      match t.timer with
      | Inline ->
        let d = Atomic.get t.deadline in
        d <> 0 && Deadline_clock.now_ns t.clk >= d
      | External -> Atomic.get t.flag
    in
    if fire then begin
      disarm t;
      t.total_preemptions <- t.total_preemptions + 1;
      tr t ~name:"fiber.preempt" ~arg:t.total_preemptions;
      t.on_preempt ();
      Effect.perform Yield
    end
  end

let yield t =
  if not t.in_fn then invalid_arg "Fiber.yield: no function is running";
  tr t ~name:"fiber.yield" ~arg:0;
  Effect.perform Yield

let sleep_until t ~wake_ns =
  if not t.in_fn then invalid_arg "Fiber.sleep_until: no function is running";
  tr t ~name:"fiber.sleep" ~arg:wake_ns;
  Effect.perform (Sleep_until wake_ns)

let preemptions t = t.total_preemptions
