(* Tests for the real-execution fiber runtime (OCaml 5 effects). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module F = Fiber_rt.Fiber
module Clock = Fiber_rt.Deadline_clock

let make ?(quantum = 1_000) () =
  let clock = Clock.virtual_ () in
  let rt = F.create ~quantum_ns:quantum ~clock () in
  (clock, rt)

(* A fiber that "works" for [units] steps of [step] virtual ns each,
   checkpointing between steps. *)
let worker clock rt ~units ~step () =
  for _ = 1 to units do
    Clock.advance clock step;
    F.checkpoint rt
  done;
  units * step

(* The paper's Fig 7 loop over the public API: launch every thunk, then
   resume the unfinished ones round-robin until all complete.  Returns
   the number of completed functions and their total preemptions. *)
let round_robin rt thunks =
  let fns = List.map (fun f -> F.fn_launch rt f) thunks in
  while List.exists (fun fn -> not (F.fn_completed fn)) fns do
    List.iter (fun fn -> if not (F.fn_completed fn) then F.fn_resume fn) fns
  done;
  ( List.length (List.filter F.fn_completed fns),
    List.fold_left (fun acc fn -> acc + F.preempt_count fn) 0 fns )

let test_completes_within_quantum () =
  let clock, rt = make () in
  let fn = F.fn_launch rt (worker clock rt ~units:2 ~step:100) in
  check_bool "completed in one slice" true (F.fn_completed fn);
  Alcotest.(check (option int)) "result" (Some 200) (F.result fn);
  check_int "no preemptions" 0 (F.preempt_count fn)

let test_preempted_at_quantum () =
  let clock, rt = make ~quantum:1_000 () in
  let fn = F.fn_launch rt (worker clock rt ~units:10 ~step:300) in
  check_bool "not completed yet" false (F.fn_completed fn);
  check_int "one preemption so far" 1 (F.preempt_count fn);
  (* 4 steps of 300 cross the 1000ns deadline; 6 remain. *)
  let rec drain n = if not (F.fn_completed fn) then (F.fn_resume fn; drain (n + 1)) else n in
  let resumes = drain 0 in
  check_bool "took multiple slices" true (resumes >= 1);
  Alcotest.(check (option int)) "full result" (Some 3_000) (F.result fn);
  check_bool "runtime counter matches" true (F.preemptions rt >= F.preempt_count fn)

let test_deterministic_slicing () =
  let run () =
    let clock, rt = make ~quantum:1_000 () in
    let order = ref [] in
    let task name units () =
      ignore (worker clock rt ~units ~step:400 ());
      order := name :: !order
    in
    let _, preemptions = round_robin rt [ task "a" 10; task "b" 3; task "c" 5 ] in
    (List.rev !order, preemptions)
  in
  let o1, p1 = run () and o2, p2 = run () in
  Alcotest.(check (list string)) "same interleaving" o1 o2;
  check_int "same preemption count" p1 p2;
  Alcotest.(check (list string)) "short tasks finish first" [ "b"; "c"; "a" ] o1

let test_fn_resume_errors () =
  let clock, rt = make () in
  let fn = F.fn_launch rt (worker clock rt ~units:1 ~step:10) in
  Alcotest.check_raises "resume completed"
    (Invalid_argument "Fiber.fn_resume: function already completed") (fun () -> F.fn_resume fn)

let test_nested_launch_rejected () =
  let clock, rt = make () in
  ignore clock;
  let fn =
    F.fn_launch rt (fun () ->
        try
          ignore (F.fn_launch rt (fun () -> ()));
          false
        with Invalid_argument _ -> true)
  in
  Alcotest.(check (option bool)) "nested launch rejected" (Some true) (F.result fn)

let test_exception_marks_failed () =
  let _, rt = make () in
  check_bool "exception propagates" true
    (try
       ignore (F.fn_launch rt (fun () -> failwith "boom"));
       false
     with Failure _ -> true);
  (* runtime is reusable after a failed fiber *)
  let fn = F.fn_launch rt (fun () -> 41 + 1) in
  Alcotest.(check (option int)) "recovered" (Some 42) (F.result fn)

let test_voluntary_yield () =
  let _, rt = make () in
  let fn = F.fn_launch rt (fun () -> F.yield rt; 7) in
  check_bool "suspended, not completed" false (F.fn_completed fn);
  check_int "voluntary: no preemption counted" 0 (F.preempt_count fn);
  F.fn_resume fn;
  Alcotest.(check (option int)) "completes after resume" (Some 7) (F.result fn)

let test_checkpoint_outside_fn_noop () =
  let _, rt = make () in
  F.checkpoint rt (* must not raise or preempt *)

let test_yield_outside_fn_rejected () =
  let _, rt = make () in
  Alcotest.check_raises "yield outside" (Invalid_argument "Fiber.yield: no function is running")
    (fun () -> F.yield rt)

let test_set_quantum () =
  let clock, rt = make ~quantum:10_000 () in
  F.set_quantum_ns rt 500;
  check_int "updated" 500 (F.quantum_ns rt);
  let fn = F.fn_launch rt (worker clock rt ~units:3 ~step:400) in
  check_bool "preempted under new quantum" false (F.fn_completed fn);
  let rec drain () = if not (F.fn_completed fn) then (F.fn_resume fn; drain ()) in
  drain ();
  Alcotest.check_raises "non-positive quantum"
    (Invalid_argument "Fiber.set_quantum_ns: quantum must be positive") (fun () ->
      F.set_quantum_ns rt 0)

let test_per_fn_quantum () =
  let clock, rt = make ~quantum:1_000_000 () in
  let fn = F.fn_launch rt ~quantum_ns:500 (worker clock rt ~units:3 ~step:400) in
  check_bool "tight per-fn quantum preempts" false (F.fn_completed fn);
  let rec drain () = if not (F.fn_completed fn) then (F.fn_resume fn; drain ()) in
  drain ()

let test_virtual_clock_rules () =
  let wall = Clock.wall () in
  check_bool "wall ticks" true (Clock.now_ns wall > 0);
  Alcotest.check_raises "cannot advance wall"
    (Invalid_argument "Deadline_clock.advance: cannot advance the wall clock") (fun () ->
      Clock.advance wall 1)

(* ------------------------------------------------------------------ *)
(* Edge cases: sub-checkpoint quanta, cross-domain flag visibility,    *)
(* lifecycle stress                                                    *)
(* ------------------------------------------------------------------ *)

let test_resume_while_running_rejected () =
  (* A fiber that (on its second slice) tries to resume itself while
     running: fn_resume must reject a Running_state fn. *)
  let _, rt = make () in
  let self = ref None in
  let caught = ref false in
  let g =
    F.fn_launch rt (fun () ->
        F.yield rt;
        match !self with
        | Some s -> ( try F.fn_resume s with Invalid_argument _ -> caught := true)
        | None -> ())
  in
  self := Some g;
  F.fn_resume g;
  check_bool "completed" true (F.fn_completed g);
  check_bool "resuming a running fn raises" true !caught

let test_quantum_smaller_than_checkpoint_interval () =
  (* Quantum 50 ns but every checkpoint interval advances 300 ns: the
     slice expires before the first safepoint, so every checkpoint
     preempts and progress is exactly one step per slice. *)
  let clock, rt = make ~quantum:50 () in
  let units = 5 in
  let fn = F.fn_launch rt (worker clock rt ~units ~step:300) in
  let resumes = ref 0 in
  while not (F.fn_completed fn) do
    incr resumes;
    F.fn_resume fn
  done;
  Alcotest.(check (option int)) "correct result" (Some 1500) (F.result fn);
  check_bool "one preemption per step" true (F.preempt_count fn >= units);
  check_int "one resume per step" units !resumes

let test_external_flag_visible_across_domains () =
  (* Atomic fence correctness: domain B raises the preempt flag via
     poll_slot; the fiber spinning on domain A must observe it at a
     checkpoint and suspend. *)
  let rt = F.create ~quantum_ns:1_000_000_000 ~timer:F.External ~clock:(Clock.wall ()) () in
  let progress = Atomic.make 0 in
  let d =
    Domain.spawn (fun () ->
        let fn =
          F.fn_launch rt (fun () ->
              while true do
                Atomic.incr progress;
                F.checkpoint rt
              done)
        in
        (* fn_launch returns when the fiber suspends. *)
        (F.fn_completed fn, F.preempt_count fn))
  in
  while Atomic.get progress = 0 do
    Domain.cpu_relax ()
  done;
  (* Fire the slot from this domain (now >= any armed deadline). *)
  while not (F.poll_slot rt ~now_ns:max_int) do
    Domain.cpu_relax ()
  done;
  let completed, preempts = Domain.join d in
  check_bool "fiber suspended, not completed" false completed;
  check_int "exactly one preemption observed" 1 preempts

let test_external_poll_slot_disarmed () =
  let _, rt = make () in
  check_bool "disarmed slot does not fire" false (F.poll_slot rt ~now_ns:max_int)

let test_sleep_until_blocked_until () =
  let clock, rt = make ~quantum:1_000_000 () in
  ignore clock;
  let fn = F.fn_launch rt (fun () -> F.sleep_until rt ~wake_ns:12_345) in
  check_bool "suspended" false (F.fn_completed fn);
  Alcotest.(check (option int)) "wake time recorded" (Some 12_345) (F.blocked_until fn);
  F.fn_resume fn;
  check_bool "completed" true (F.fn_completed fn);
  Alcotest.(check (option int)) "cleared on resume" None (F.blocked_until fn);
  Alcotest.check_raises "sleep outside fn"
    (Invalid_argument "Fiber.sleep_until: no function is running") (fun () ->
      F.sleep_until rt ~wake_ns:1)

let test_lifecycle_stress_100_pools () =
  (* Pool create/shutdown must be leak-free and idempotent under
     repetition: 100 one-worker pools in sequence, each runs one job,
     then a double shutdown.  Each pool joins its worker and timer
     domains before the next is created, so at most two pool domains
     are alive at any time. *)
  for i = 1 to 100 do
    let pool = Fiber_rt.Pool.create ~workers:1 () in
    let r = Atomic.make 0 in
    Fiber_rt.Pool.submit pool (fun () -> Atomic.set r (i * 2));
    Fiber_rt.Pool.drain pool;
    Fiber_rt.Pool.shutdown pool;
    Fiber_rt.Pool.shutdown pool;
    check_int "job ran" (i * 2) (Atomic.get r)
  done

let round_robin_property =
  QCheck.Test.make ~name:"round robin completes every fiber exactly once" ~count:30
    QCheck.(list_of_size (Gen.int_range 1 12) (int_range 1 20))
    (fun sizes ->
      let clock, rt = make ~quantum:700 () in
      let done_count = ref 0 in
      let tasks =
        List.map
          (fun units () ->
            ignore (worker clock rt ~units ~step:250 ());
            incr done_count)
          sizes
      in
      let completed, _ = round_robin rt tasks in
      completed = List.length sizes && !done_count = List.length sizes)

let suites =
  [
    ( "fiber_rt.fiber",
      [
        Alcotest.test_case "completes within quantum" `Quick test_completes_within_quantum;
        Alcotest.test_case "preempted at quantum" `Quick test_preempted_at_quantum;
        Alcotest.test_case "deterministic slicing" `Quick test_deterministic_slicing;
        Alcotest.test_case "resume errors" `Quick test_fn_resume_errors;
        Alcotest.test_case "nested launch rejected" `Quick test_nested_launch_rejected;
        Alcotest.test_case "exception handling" `Quick test_exception_marks_failed;
        Alcotest.test_case "voluntary yield" `Quick test_voluntary_yield;
        Alcotest.test_case "checkpoint outside fn" `Quick test_checkpoint_outside_fn_noop;
        Alcotest.test_case "yield outside fn" `Quick test_yield_outside_fn_rejected;
        Alcotest.test_case "set_quantum" `Quick test_set_quantum;
        Alcotest.test_case "per-fn quantum" `Quick test_per_fn_quantum;
        Alcotest.test_case "clock rules" `Quick test_virtual_clock_rules;
        Alcotest.test_case "resume while running rejected" `Quick
          test_resume_while_running_rejected;
        Alcotest.test_case "quantum below checkpoint interval" `Quick
          test_quantum_smaller_than_checkpoint_interval;
        Alcotest.test_case "preempt flag visible across domains" `Slow
          test_external_flag_visible_across_domains;
        Alcotest.test_case "poll_slot on a disarmed slot" `Quick
          test_external_poll_slot_disarmed;
        Alcotest.test_case "sleep_until records wake time" `Quick
          test_sleep_until_blocked_until;
        Alcotest.test_case "100-runtime create/shutdown stress" `Slow
          test_lifecycle_stress_100_pools;
        QCheck_alcotest.to_alcotest round_robin_property;
      ] );
  ]
