(* Quickstart: the paper's Fig 7 — a simple round-robin scheduler over N
   static user-level threads — running as REAL code on the effects-based
   fiber runtime.

   Each "request" is a CPU-bound loop with safepoints; the runtime
   preempts whichever function exceeds its time slice and the
   round-robin scheduler resumes the unfinished ones.

     dune exec examples/quickstart.exe *)

module F = Fiber_rt.Fiber
module Clock = Fiber_rt.Deadline_clock

let () =
  (* Deterministic demo on the virtual clock: each unit of work advances
     virtual time by 1us. A 50us quantum slices the long tasks. *)
  let clock = Clock.virtual_ () in
  let rt = F.create ~quantum_ns:50_000 ~clock () in
  let make_task name units =
    ( name,
      fun () ->
        for _ = 1 to units do
          Clock.advance clock 1_000;
          (* Safepoint: where an overdue deadline is observed. *)
          F.checkpoint rt
        done )
  in
  let tasks =
    [ make_task "short-a" 10; make_task "long-b" 400; make_task "short-c" 25; make_task "long-d" 300 ]
  in
  Format.printf "launching %d preemptible functions (quantum = 50us virtual)@."
    (List.length tasks);
  let order = ref [] in
  let wrapped =
    List.map
      (fun (name, body) () ->
        body ();
        order := name :: !order)
      tasks
  in
  (* Fig 7's scheduler loop: launch every function (each runs until it
     completes or its first slice ends), then resume the unfinished
     ones round-robin until all complete. *)
  let fns = List.map (fun body -> F.fn_launch rt body) wrapped in
  let rounds = ref 0 in
  while List.exists (fun fn -> not (F.fn_completed fn)) fns do
    incr rounds;
    List.iter (fun fn -> if not (F.fn_completed fn) then F.fn_resume fn) fns
  done;
  Format.printf "completed=%d scheduler_rounds=%d preemptions=%d@." (List.length fns) !rounds
    (List.fold_left (fun acc fn -> acc + F.preempt_count fn) 0 fns);
  Format.printf "completion order: %s@." (String.concat " -> " (List.rev !order));
  Format.printf
    "note how the short tasks finish first: preemption removed head-of-line blocking@.";

  (* The same runtime under wall-clock time on a one-worker pool, whose
     shared timer domain plays LibUtimer's timer core. On a single-CPU
     host the timer domain is scheduled by the kernel, so slices are
     coarser — exactly why the paper dedicates a core to the timer
     thread. *)
  let pool = Fiber_rt.Pool.create ~quantum_ns:1_000_000 ~workers:1 () in
  let spin ms () =
    let stop = Unix.gettimeofday () +. (float_of_int ms /. 1e3) in
    while Unix.gettimeofday () < stop do
      Fiber_rt.Pool.checkpoint ()
    done
  in
  List.iter (fun ms -> Fiber_rt.Pool.submit pool (spin ms)) [ 30; 30 ];
  Fiber_rt.Pool.drain pool;
  let st = Fiber_rt.Pool.stats pool in
  Fiber_rt.Pool.shutdown pool;
  Format.printf "wall-clock run: completed=%d preemptions=%d (timer domain delivered them)@."
    (Array.fold_left ( + ) 0 st.Fiber_rt.Pool.executed)
    st.Fiber_rt.Pool.preemptions
