(* Tests for the discrete-event simulation engine. *)

open Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Units                                                               *)
(* ------------------------------------------------------------------ *)

let test_units_roundtrip () =
  check_int "1us" 1_000 (Units.us 1);
  check_int "1ms" 1_000_000 (Units.ms 1);
  check_int "1s" 1_000_000_000 (Units.sec 1);
  check_int "1.5us" 1_500 (Units.us_f 1.5);
  check_int "0.25ms" 250_000 (Units.ms_f 0.25);
  Alcotest.(check (float 1e-9)) "to_us" 2.5 (Units.to_us 2_500);
  Alcotest.(check (float 1e-9)) "to_ms" 0.5 (Units.to_ms 500_000);
  Alcotest.(check (float 1e-12)) "to_sec" 1e-9 (Units.to_sec 1)

let test_units_pp () =
  let s v = Format.asprintf "%a" Units.pp_duration v in
  Alcotest.(check string) "ns range" "700ns" (s 700);
  Alcotest.(check string) "us range" "3.0us" (s 3_000);
  Alcotest.(check string) "ms range" "1.50ms" (s 1_500_000);
  Alcotest.(check string) "s range" "2.00s" (s (Units.sec 2))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_copy_independent () =
  let a = Rng.create 3L in
  let _ = Rng.bits64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues stream" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_split_differs () =
  let a = Rng.create 3L in
  let b = Rng.split a in
  let xa = Rng.bits64 a and xb = Rng.bits64 b in
  check_bool "split streams differ" true (xa <> xb)

let test_rng_float_range () =
  let r = Rng.create 11L in
  for _ = 1 to 10_000 do
    let x = Rng.float r in
    check_bool "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_int_range () =
  let r = Rng.create 13L in
  for _ = 1 to 10_000 do
    let x = Rng.int r 7 in
    check_bool "in [0,7)" true (x >= 0 && x < 7)
  done

let test_rng_int_rejects_nonpositive () =
  let r = Rng.create 1L in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_exponential_mean () =
  let r = Rng.create 17L in
  let n = 200_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential r ~mean:5.0
  done;
  let mean = !acc /. float_of_int n in
  check_bool "mean close to 5"
    true
    (abs_float (mean -. 5.0) < 0.1)

let test_rng_normal_moments () =
  let r = Rng.create 19L in
  let n = 200_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.normal r ~mu:10.0 ~sigma:2.0 in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  check_bool "mean ~ 10" true (abs_float (mean -. 10.0) < 0.05);
  check_bool "var ~ 4" true (abs_float (var -. 4.0) < 0.2)

let test_rng_pareto_bounds () =
  let r = Rng.create 23L in
  for _ = 1 to 10_000 do
    let x = Rng.pareto r ~scale:2.0 ~shape:1.5 in
    check_bool "pareto >= scale" true (x >= 2.0)
  done

(* ------------------------------------------------------------------ *)
(* Event_heap                                                          *)
(* ------------------------------------------------------------------ *)

let test_heap_orders_by_time () =
  let h = Event_heap.create () in
  let names = [| "a"; "b"; "c" |] in
  Event_heap.add h ~time:30 ~seq:1 2;
  Event_heap.add h ~time:10 ~seq:2 0;
  Event_heap.add h ~time:20 ~seq:3 1;
  let pop () =
    match Event_heap.pop h with Some (_, _, id) -> names.(id) | None -> "?"
  in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ first; second; third ]

let test_heap_fifo_at_equal_time () =
  let h = Event_heap.create () in
  for i = 1 to 50 do
    Event_heap.add h ~time:5 ~seq:i i
  done;
  let out = ref [] in
  let rec drain () =
    match Event_heap.pop h with
    | Some (_, _, v) ->
      out := v :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "insertion order" (List.init 50 (fun i -> i + 1)) (List.rev !out)

let test_heap_grow () =
  let h = Event_heap.create ~capacity:1 () in
  for i = 1000 downto 1 do
    Event_heap.add h ~time:i ~seq:(1001 - i) i
  done;
  check_int "size" 1000 (Event_heap.size h);
  let prev = ref 0 in
  let rec drain () =
    match Event_heap.pop h with
    | Some (time, _, _) ->
      check_bool "non-decreasing" true (time >= !prev);
      prev := time;
      drain ()
    | None -> ()
  in
  drain ();
  check_bool "empty" true (Event_heap.is_empty h)

let test_heap_clear () =
  let h = Event_heap.create () in
  Event_heap.add h ~time:1 ~seq:1 7;
  Event_heap.clear h;
  check_bool "empty after clear" true (Event_heap.is_empty h);
  check_bool "id gone" false (Event_heap.mem h 7);
  Alcotest.(check bool) "pop none" true (Event_heap.pop h = None);
  Event_heap.add h ~time:2 ~seq:2 7;
  check_int "id reusable" 2 (Event_heap.time_of h 7)

let heap_property =
  QCheck.Test.make ~name:"heap pops sorted by (time,seq)" ~count:200
    QCheck.(list (pair (int_bound 1000) (int_bound 1000)))
    (fun entries ->
      let h = Event_heap.create () in
      List.iteri (fun i (time, _) -> Event_heap.add h ~time ~seq:i i) entries;
      let rec drain acc =
        match Event_heap.pop h with
        | Some (time, seq, _) -> drain ((time, seq) :: acc)
        | None -> List.rev acc
      in
      let out = drain [] in
      let sorted = List.sort compare out in
      out = sorted)

(* Model test: interleaved add/pop/remove against a sorted-list oracle.
   The oracle keeps (time, seq, id) sorted by (time, seq) with a stable
   insert, so it also pins FIFO tie-breaking on equal deadlines — the
   generator draws times from a narrow range to force collisions.  Ids
   are the smallest ones not in the heap, as the engine's slab reuses
   them, and [Remove k] takes id [k] out wherever it sits (or checks
   that an absent id is refused). *)
type heap_op = Add of int | Pop | Remove of int

let heap_ops =
  let open QCheck in
  let op =
    Gen.frequency
      [
        (4, Gen.map (fun t -> Add t) (Gen.int_bound 20));
        (2, Gen.return Pop);
        (3, Gen.map (fun k -> Remove k) (Gen.int_bound 24));
      ]
  in
  let print = function
    | Add t -> Printf.sprintf "add %d" t
    | Pop -> "pop"
    | Remove k -> Printf.sprintf "remove %d" k
  in
  make ~print:(Print.list print) ~shrink:Shrink.list (Gen.list op)

let heap_model =
  QCheck.Test.make ~name:"heap matches sorted-list oracle (interleaved ops)"
    ~count:300 heap_ops
    (fun ops ->
      let h = Event_heap.create ~capacity:2 () in
      let oracle = ref [] in
      let seq = ref 0 in
      let in_oracle id = List.exists (fun (_, _, i) -> i = id) !oracle in
      let rec free_id i = if in_oracle i then free_id (i + 1) else i in
      let insert time id =
        (* Stable insert: equal keys keep arrival order. *)
        let rec go = function
          | [] -> [ (time, !seq, id) ]
          | ((t', s', _) as e) :: rest when (t', s') <= (time, !seq) -> e :: go rest
          | rest -> (time, !seq, id) :: rest
        in
        oracle := go !oracle
      in
      let agrees () =
        Event_heap.size h = List.length !oracle
        && Event_heap.peek h = (match !oracle with [] -> None | e :: _ -> Some e)
        && List.for_all (fun (t, _, id) -> Event_heap.time_of h id = t) !oracle
      in
      List.for_all
        (fun op ->
          (match op with
          | Add time ->
            incr seq;
            let id = free_id 0 in
            Event_heap.add h ~time ~seq:!seq id;
            insert time id;
            true
          | Pop -> (
            match (Event_heap.pop h, !oracle) with
            | None, [] -> true
            | Some e, e' :: rest ->
              oracle := rest;
              e = e'
            | Some _, [] | None, _ :: _ -> false)
          | Remove id when in_oracle id ->
            Event_heap.remove h id;
            oracle := List.filter (fun (_, _, i) -> i <> id) !oracle;
            not (Event_heap.mem h id)
          | Remove id -> (
            (not (Event_heap.mem h id))
            &&
            match Event_heap.remove h id with
            | () -> false
            | exception Invalid_argument _ -> true))
          && agrees ())
        ops)

(* ------------------------------------------------------------------ *)
(* Sim                                                                 *)
(* ------------------------------------------------------------------ *)

let test_sim_runs_in_time_order () =
  let sim = Sim.create () in
  let log = ref [] in
  let note tag () = log := (tag, Sim.now sim) :: !log in
  ignore (Sim.at sim 300 (note "c"));
  ignore (Sim.at sim 100 (note "a"));
  ignore (Sim.at sim 200 (note "b"));
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "order and clock" [ ("a", 100); ("b", 200); ("c", 300) ] (List.rev !log)

let test_sim_after_relative () =
  let sim = Sim.create () in
  let hits = ref [] in
  ignore
    (Sim.after sim 50 (fun () ->
         hits := Sim.now sim :: !hits;
         ignore (Sim.after sim 25 (fun () -> hits := Sim.now sim :: !hits))));
  Sim.run sim;
  Alcotest.(check (list int)) "nested after" [ 50; 75 ] (List.rev !hits)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let ev = Sim.at sim 10 (fun () -> fired := true) in
  check_bool "pending" true (Sim.is_pending ev);
  Sim.cancel ev;
  check_bool "not pending" false (Sim.is_pending ev);
  Sim.run sim;
  check_bool "cancelled event did not fire" false !fired

let test_sim_cancel_is_idempotent () =
  let sim = Sim.create () in
  let ev = Sim.at sim 10 (fun () -> ()) in
  Sim.cancel ev;
  Sim.cancel ev;
  Sim.run sim

let test_sim_rejects_past () =
  let sim = Sim.create () in
  ignore (Sim.at sim 100 (fun () -> ()));
  Sim.run sim;
  check_int "clock at 100" 100 (Sim.now sim);
  Alcotest.check_raises "past scheduling"
    (Invalid_argument "Sim.at: time 50 is in the past (now 100)") (fun () ->
      ignore (Sim.at sim 50 (fun () -> ())))

let test_sim_rejects_negative_delay () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Sim.after: negative delay")
    (fun () -> ignore (Sim.after sim (-1) (fun () -> ())))

let test_sim_run_until () =
  let sim = Sim.create () in
  let fired = ref [] in
  List.iter
    (fun t -> ignore (Sim.at sim t (fun () -> fired := t :: !fired)))
    [ 10; 20; 30; 40 ];
  Sim.run_until sim 25;
  Alcotest.(check (list int)) "only <= 25" [ 10; 20 ] (List.rev !fired);
  check_int "clock advanced to limit" 25 (Sim.now sim);
  Sim.run sim;
  Alcotest.(check (list int)) "rest run" [ 10; 20; 30; 40 ] (List.rev !fired)

let test_sim_run_until_skips_cancelled_head () =
  let sim = Sim.create () in
  let fired = ref [] in
  let ev = Sim.at sim 10 (fun () -> fired := 10 :: !fired) in
  ignore (Sim.at sim 50 (fun () -> fired := 50 :: !fired));
  Sim.cancel ev;
  Sim.run_until sim 20;
  Alcotest.(check (list int)) "nothing fired" [] !fired;
  check_int "clock at 20" 20 (Sim.now sim)

let test_sim_equal_times_fifo () =
  let sim = Sim.create () in
  let order = ref [] in
  for i = 1 to 20 do
    ignore (Sim.at sim 5 (fun () -> order := i :: !order))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo at same tick" (List.init 20 (fun i -> i + 1))
    (List.rev !order)

let test_sim_max_events () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Sim.after sim 1 tick)
  in
  ignore (Sim.after sim 1 tick);
  Sim.run ~max_events:100 sim;
  check_int "bounded" 100 !count

let test_sim_null_event () =
  let sim = Sim.create () in
  check_bool "null never pending" false (Sim.is_pending Sim.null);
  Sim.cancel Sim.null;
  Sim.cancel Sim.null;
  check_bool "still not pending" false (Sim.is_pending Sim.null);
  (* A component parked on [null] must not disturb a live simulation. *)
  let fired = ref 0 in
  ignore (Sim.at sim 5 (fun () -> incr fired));
  Sim.run sim;
  check_int "live event unaffected" 1 !fired

(* The free list recycles event records across firings; a burst of
   schedule/cancel/fire cycles must behave exactly like a fresh sim
   (records carry no state across reuse). *)
let test_sim_recycling_determinism () =
  let run_once () =
    let sim = Sim.create ~seed:77L () in
    let r = Sim.fork_rng sim in
    let log = ref [] in
    let rec burst n =
      if n > 0 then begin
        let d = 1 + Rng.int r 20 in
        let keep = Sim.after sim d (fun () -> log := Sim.now sim :: !log) in
        let doomed = Sim.after sim (d + 3) (fun () -> log := -1 :: !log) in
        Sim.cancel doomed;
        ignore keep;
        ignore (Sim.after sim (d + 1) (fun () -> burst (n - 1)))
      end
    in
    burst 500;
    Sim.run sim;
    !log
  in
  let a = run_once () in
  Alcotest.(check (list int)) "replay equal across recycling" a (run_once ());
  check_bool "cancelled callbacks never ran" true (not (List.mem (-1) a))

let test_sim_events_fired_counts_only_live () =
  let sim = Sim.create () in
  ignore (Sim.at sim 1 (fun () -> ()));
  let doomed = Sim.at sim 2 (fun () -> ()) in
  Sim.cancel doomed;
  ignore (Sim.at sim 3 (fun () -> ()));
  Sim.run sim;
  check_int "two fired" 2 (Sim.events_fired sim)

let test_sim_fork_rng_independent () =
  let sim = Sim.create ~seed:9L () in
  let a = Sim.fork_rng sim and b = Sim.fork_rng sim in
  check_bool "distinct streams" true (Rng.bits64 a <> Rng.bits64 b)

let test_sim_deterministic_replay () =
  let run_once () =
    let sim = Sim.create ~seed:123L () in
    let r = Sim.fork_rng sim in
    let trace = ref [] in
    let rec arrival n =
      if n > 0 then begin
        let d = 1 + Rng.int r 100 in
        ignore
          (Sim.after sim d (fun () ->
               trace := Sim.now sim :: !trace;
               arrival (n - 1)))
      end
    in
    arrival 200;
    Sim.run sim;
    !trace
  in
  Alcotest.(check (list int)) "replay equal" (run_once ()) (run_once ())

(* Model test: random interleavings of at/after (narrow delays, so
   many events share a timestamp), cancel, step and run_until against a
   reference queue with lazy deletion — a list ordered by (time, seq)
   whose cancelled entries stay until they reach the head, which is
   what the engine did before it removed cancelled events eagerly.  The
   firing sequence, [now], [live_events], [events_fired] and every
   pending handle's [time_of] must agree after each op.  Some events
   schedule a child when they fire, so a freed record is reused from
   inside a callback.  Cancels follow the handle contract: they pick a
   pending event, and [Cancel_twice] repeats the cancel with nothing
   scheduled between; [Cancel_sched_step] cancels, schedules, then
   steps. *)
type sim_op =
  | At of int (* delay from now *)
  | After of int
  | Nested of int * int (* delay, then the child's delay from the firing *)
  | Cancel of int (* index into the pending events *)
  | Cancel_twice of int
  | Cancel_sched_step of int * int
  | Cancel_null
  | Step
  | Run_until of int

let sim_ops =
  let open QCheck in
  let d = Gen.int_bound 3 in
  let k = Gen.int_bound 50 in
  let op =
    Gen.frequency
      [
        (3, Gen.map (fun d -> At d) d);
        (3, Gen.map (fun d -> After d) d);
        (2, Gen.map2 (fun d c -> Nested (d, c)) d d);
        (2, Gen.map (fun k -> Cancel k) k);
        (1, Gen.map (fun k -> Cancel_twice k) k);
        (1, Gen.map2 (fun k d -> Cancel_sched_step (k, d)) k d);
        (1, Gen.return Cancel_null);
        (4, Gen.return Step);
        (1, Gen.map (fun d -> Run_until d) Gen.(int_bound 6));
      ]
  in
  let print = function
    | At d -> Printf.sprintf "at +%d" d
    | After d -> Printf.sprintf "after %d" d
    | Nested (d, c) -> Printf.sprintf "nested %d/%d" d c
    | Cancel k -> Printf.sprintf "cancel #%d" k
    | Cancel_twice k -> Printf.sprintf "cancel twice #%d" k
    | Cancel_sched_step (k, d) -> Printf.sprintf "cancel #%d; after %d; step" k d
    | Cancel_null -> "cancel null"
    | Step -> "step"
    | Run_until d -> Printf.sprintf "run_until +%d" d
  in
  make ~print:(Print.list print) ~shrink:Shrink.list (Gen.list_size (Gen.int_range 0 80) op)

type model_entry = {
  m_time : int;
  m_seq : int;
  tag : int;
  handle : Sim.event;
  mutable alive : bool;
}

let sim_model =
  QCheck.Test.make ~name:"sim matches lazy-deletion queue model" ~count:500 sim_ops
    (fun ops ->
      let sim = Sim.create () in
      let log = ref [] and model_log = ref [] in
      let queue = ref [] and clock = ref 0 and seq = ref 0 and fired = ref 0 in
      let tags = ref 0 in
      (* Schedule on both sides at once.  The engine's callback logs its
         tag and schedules the child through this same function, so the
         model queue gets the child the moment the engine does. *)
      let rec schedule ~time ~use_after child =
        incr tags;
        incr seq;
        let tag = !tags in
        let cb () =
          log := tag :: !log;
          match child with
          | Some c -> ignore (schedule ~time:(Sim.now sim + c) ~use_after:true None : model_entry)
          | None -> ()
        in
        let handle =
          if use_after then Sim.after sim (time - Sim.now sim) cb else Sim.at sim time cb
        in
        let e = { m_time = time; m_seq = !seq; tag; handle; alive = true } in
        let rec insert = function
          | e' :: rest when (e'.m_time, e'.m_seq) <= (time, !seq) -> e' :: insert rest
          | rest -> e :: rest
        in
        queue := insert !queue;
        e
      in
      let rec fire_next ~limit =
        match !queue with
        | e :: rest when e.m_time <= limit ->
          queue := rest;
          if e.alive then begin
            e.alive <- false;
            clock := e.m_time;
            incr fired;
            model_log := e.tag :: !model_log;
            true
          end
          else fire_next ~limit
        | _ -> false
      in
      let step () =
        let got = Sim.step sim in
        got = fire_next ~limit:max_int
      in
      let pending () = List.filter (fun e -> e.alive) !queue in
      let nth_pending k =
        match pending () with [] -> None | l -> Some (List.nth l (k mod List.length l))
      in
      let cancel e =
        Sim.cancel e.handle;
        e.alive <- false
      in
      let agrees () =
        let live = pending () in
        Sim.now sim = !clock
        && Sim.live_events sim = List.length live
        && Sim.events_fired sim = !fired
        && !log = !model_log
        && List.for_all (fun e -> Sim.is_pending e.handle && Sim.time_of e.handle = e.m_time) live
        && not (Sim.is_pending Sim.null)
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | At d -> ignore (schedule ~time:(!clock + d) ~use_after:false None); true
            | After d -> ignore (schedule ~time:(!clock + d) ~use_after:true None); true
            | Nested (d, c) -> ignore (schedule ~time:(!clock + d) ~use_after:false (Some c)); true
            | Cancel k -> (
              match nth_pending k with
              | Some e ->
                cancel e;
                not (Sim.is_pending e.handle)
              | None -> true)
            | Cancel_twice k -> (
              match nth_pending k with
              | Some e ->
                cancel e;
                Sim.cancel e.handle;
                true
              | None -> true)
            | Cancel_sched_step (k, d) ->
              (match nth_pending k with Some e -> cancel e | None -> ());
              ignore (schedule ~time:(!clock + d) ~use_after:true None);
              step ()
            | Cancel_null ->
              Sim.cancel Sim.null;
              true
            | Step -> step ()
            | Run_until d ->
              let limit = !clock + d in
              Sim.run_until sim limit;
              while fire_next ~limit do () done;
              clock := max !clock limit;
              true
          in
          ok && agrees ())
        ops)

let suites =
  [
    ( "engine.units",
      [
        Alcotest.test_case "roundtrip" `Quick test_units_roundtrip;
        Alcotest.test_case "pp_duration" `Quick test_units_pp;
      ] );
    ( "engine.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "copy" `Quick test_rng_copy_independent;
        Alcotest.test_case "split" `Quick test_rng_split_differs;
        Alcotest.test_case "float range" `Quick test_rng_float_range;
        Alcotest.test_case "int range" `Quick test_rng_int_range;
        Alcotest.test_case "int bound check" `Quick test_rng_int_rejects_nonpositive;
        Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
        Alcotest.test_case "normal moments" `Slow test_rng_normal_moments;
        Alcotest.test_case "pareto bounds" `Quick test_rng_pareto_bounds;
      ] );
    ( "engine.event_heap",
      [
        Alcotest.test_case "orders by time" `Quick test_heap_orders_by_time;
        Alcotest.test_case "fifo at equal time" `Quick test_heap_fifo_at_equal_time;
        Alcotest.test_case "grow" `Quick test_heap_grow;
        Alcotest.test_case "clear" `Quick test_heap_clear;
        QCheck_alcotest.to_alcotest heap_property;
        QCheck_alcotest.to_alcotest heap_model;
      ] );
    ( "engine.sim",
      [
        Alcotest.test_case "time order" `Quick test_sim_runs_in_time_order;
        Alcotest.test_case "after nested" `Quick test_sim_after_relative;
        Alcotest.test_case "cancel" `Quick test_sim_cancel;
        Alcotest.test_case "cancel idempotent" `Quick test_sim_cancel_is_idempotent;
        Alcotest.test_case "rejects past" `Quick test_sim_rejects_past;
        Alcotest.test_case "rejects negative delay" `Quick test_sim_rejects_negative_delay;
        Alcotest.test_case "run_until" `Quick test_sim_run_until;
        Alcotest.test_case "run_until skips cancelled" `Quick
          test_sim_run_until_skips_cancelled_head;
        Alcotest.test_case "fifo same tick" `Quick test_sim_equal_times_fifo;
        Alcotest.test_case "max_events" `Quick test_sim_max_events;
        Alcotest.test_case "null event" `Quick test_sim_null_event;
        Alcotest.test_case "recycling determinism" `Quick test_sim_recycling_determinism;
        Alcotest.test_case "events_fired" `Quick test_sim_events_fired_counts_only_live;
        Alcotest.test_case "fork_rng" `Quick test_sim_fork_rng_independent;
        Alcotest.test_case "deterministic replay" `Quick test_sim_deterministic_replay;
        QCheck_alcotest.to_alcotest sim_model;
      ] );
  ]
