(* Tests for the hardware model: UINTR fabric, posted IPIs, cores. *)

open Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let params = Hw.Params.default

(* ------------------------------------------------------------------ *)
(* Params                                                              *)
(* ------------------------------------------------------------------ *)

let test_tsc_conversion () =
  (* 1.7 GHz: 1000 ns = 1700 cycles *)
  check_int "ns->tsc" 1700 (Hw.Params.tsc_of_ns params 1000);
  check_int "tsc->ns" 1000 (Hw.Params.ns_of_tsc params 1700)

(* ------------------------------------------------------------------ *)
(* Uintr                                                               *)
(* ------------------------------------------------------------------ *)

let make_fabric () =
  let sim = Sim.create () in
  (sim, Hw.Uintr.create sim params)

let test_uintr_delivery_running () =
  let sim, fabric = make_fabric () in
  let delivered = ref [] in
  let r =
    Hw.Uintr.register_receiver fabric
      ~handler:(fun _ ~vector -> delivered := (vector, Sim.now sim) :: !delivered)
      ()
  in
  let s = Hw.Uintr.create_sender fabric () in
  let idx = Hw.Uintr.connect s r ~vector:3 in
  Hw.Uintr.senduipi s idx;
  Sim.run sim;
  (match !delivered with
  | [ (v, t) ] ->
    check_int "vector" 3 v;
    check_int "delivery latency" params.Hw.Params.uintr_delivery_ns t
  | l -> Alcotest.failf "expected one delivery, got %d" (List.length l));
  let st = Hw.Uintr.stats fabric in
  check_int "sends" 1 st.Hw.Uintr.sends;
  check_int "running deliveries" 1 st.Hw.Uintr.deliveries_running;
  check_int "blocked deliveries" 0 st.Hw.Uintr.deliveries_blocked

let test_uintr_delivery_blocked () =
  let sim, fabric = make_fabric () in
  let delivered_at = ref (-1) in
  let r =
    Hw.Uintr.register_receiver fabric
      ~handler:(fun _ ~vector:_ -> delivered_at := Sim.now sim)
      ()
  in
  Hw.Uintr.set_state r Hw.Uintr.Blocked;
  let s = Hw.Uintr.create_sender fabric () in
  let idx = Hw.Uintr.connect s r ~vector:0 in
  Hw.Uintr.senduipi s idx;
  Sim.run sim;
  check_int "kernel-assisted latency"
    (params.Hw.Params.uintr_delivery_ns + params.Hw.Params.uintr_blocked_extra_ns)
    !delivered_at;
  check_bool "receiver woken" true (Hw.Uintr.state r = Hw.Uintr.Running);
  let st = Hw.Uintr.stats fabric in
  check_int "blocked deliveries" 1 st.Hw.Uintr.deliveries_blocked

let test_uintr_suppression () =
  let sim, fabric = make_fabric () in
  let delivered = ref 0 in
  let r = Hw.Uintr.register_receiver fabric ~handler:(fun _ ~vector:_ -> incr delivered) () in
  Hw.Uintr.set_suppressed r true;
  let s = Hw.Uintr.create_sender fabric () in
  let idx = Hw.Uintr.connect s r ~vector:1 in
  Hw.Uintr.senduipi s idx;
  Sim.run sim;
  check_int "suppressed: nothing delivered" 0 !delivered;
  Alcotest.(check (list int)) "vector pending" [ 1 ] (Hw.Uintr.pending_vectors r);
  (* Clearing SN triggers the delivery of pending vectors. *)
  Hw.Uintr.set_suppressed r false;
  Sim.run sim;
  check_int "delivered after unsuppress" 1 !delivered;
  let st = Hw.Uintr.stats fabric in
  check_int "suppressed posts counted" 1 st.Hw.Uintr.suppressed_posts

let test_uintr_coalescing_and_vector_order () =
  let sim, fabric = make_fabric () in
  let order = ref [] in
  let r =
    Hw.Uintr.register_receiver fabric ~handler:(fun _ ~vector -> order := vector :: !order) ()
  in
  Hw.Uintr.set_suppressed r true;
  let s = Hw.Uintr.create_sender fabric () in
  let i2 = Hw.Uintr.connect s r ~vector:2 in
  let i7 = Hw.Uintr.connect s r ~vector:7 in
  let i5 = Hw.Uintr.connect s r ~vector:5 in
  Hw.Uintr.senduipi s i2;
  Hw.Uintr.senduipi s i7;
  Hw.Uintr.senduipi s i5;
  Hw.Uintr.senduipi s i7;
  (* duplicate: coalesces *)
  Hw.Uintr.set_suppressed r false;
  Sim.run sim;
  Alcotest.(check (list int)) "highest vector first" [ 7; 5; 2 ] (List.rev !order);
  let st = Hw.Uintr.stats fabric in
  check_int "coalesced" 1 st.Hw.Uintr.coalesced

let test_uintr_unblock_delivers_pending () =
  let sim, fabric = make_fabric () in
  let delivered = ref 0 in
  let r = Hw.Uintr.register_receiver fabric ~handler:(fun _ ~vector:_ -> incr delivered) () in
  Hw.Uintr.set_suppressed r true;
  let s = Hw.Uintr.create_sender fabric () in
  let idx = Hw.Uintr.connect s r ~vector:0 in
  Hw.Uintr.senduipi s idx;
  Sim.run sim;
  check_int "still pending" 0 !delivered;
  (* Going blocked then runnable with SN cleared re-evaluates PIR. *)
  Hw.Uintr.set_suppressed r false;
  Sim.run sim;
  check_int "delivered" 1 !delivered

let test_uintr_connect_errors () =
  let _sim, fabric = make_fabric () in
  let r = Hw.Uintr.register_receiver fabric ~handler:(fun _ ~vector:_ -> ()) () in
  let s = Hw.Uintr.create_sender fabric () in
  Alcotest.check_raises "vector range" (Invalid_argument "Uintr.connect: vector out of range")
    (fun () -> ignore (Hw.Uintr.connect s r ~vector:64));
  Alcotest.check_raises "bad index" (Invalid_argument "Uintr.senduipi: invalid UITT index 0")
    (fun () -> Hw.Uintr.senduipi s 0)

let test_uintr_uitt_capacity () =
  let _sim, fabric = make_fabric () in
  let r = Hw.Uintr.register_receiver fabric ~handler:(fun _ ~vector:_ -> ()) () in
  let s = Hw.Uintr.create_sender fabric ~name:"full" () in
  for _ = 1 to params.Hw.Params.uitt_size do
    ignore (Hw.Uintr.connect s r ~vector:0)
  done;
  check_bool "next connect raises" true
    (try
       ignore (Hw.Uintr.connect s r ~vector:0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Ipi                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ipi_delivery () =
  let sim = Sim.create () in
  let ipi = Hw.Ipi.create sim params in
  let at = ref (-1) in
  let tgt = Hw.Ipi.register ipi ~handler:(fun () -> at := Sim.now sim) in
  Hw.Ipi.send ipi tgt;
  Sim.run sim;
  check_int "delivery latency" params.Hw.Params.ipi_delivery_ns !at;
  check_int "sends counted" 1 (Hw.Ipi.sends ipi)

let test_ipi_core_limit () =
  let sim = Sim.create () in
  let ipi = Hw.Ipi.create sim params in
  for _ = 1 to params.Hw.Params.apic_max_cores do
    ignore (Hw.Ipi.register ipi ~handler:(fun () -> ()))
  done;
  check_bool "registration beyond APIC limit raises" true
    (try
       ignore (Hw.Ipi.register ipi ~handler:(fun () -> ()));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Hwtimer                                                             *)
(* ------------------------------------------------------------------ *)

let make_hwtimer () =
  let sim = Sim.create () in
  let fabric = Hw.Uintr.create sim params in
  (sim, fabric, Hw.Hwtimer.create sim fabric)

let test_hwtimer_fires_exactly () =
  let sim, fabric, hwt = make_hwtimer () in
  let hits = ref [] in
  let r =
    Hw.Uintr.register_receiver fabric ~handler:(fun _ ~vector:_ -> hits := Sim.now sim :: !hits) ()
  in
  let slot = Hw.Hwtimer.register hwt ~receiver:r ~vector:0 in
  Hw.Hwtimer.arm_after slot ~ns:10_000;
  Sim.run sim;
  (match !hits with
  | [ t ] ->
    (* no polling: only the delivery pipeline separates deadline and
       handler *)
    check_int "fires at deadline + delivery" (10_000 + params.Hw.Params.uintr_delivery_ns) t
  | l -> Alcotest.failf "expected one interrupt, got %d" (List.length l));
  check_int "fired" 1 (Hw.Hwtimer.fired hwt);
  Alcotest.(check (float 1e-9)) "zero lateness" 0.0
    (Stat.Summary.report (Hw.Hwtimer.lateness hwt)).Stat.Summary.mean

let test_hwtimer_disarm_and_rearm () =
  let sim, fabric, hwt = make_hwtimer () in
  let hits = ref 0 in
  let r = Hw.Uintr.register_receiver fabric ~handler:(fun _ ~vector:_ -> incr hits) () in
  let slot = Hw.Hwtimer.register hwt ~receiver:r ~vector:0 in
  Hw.Hwtimer.arm_after slot ~ns:5_000;
  check_bool "armed" true (Hw.Hwtimer.is_armed slot);
  Hw.Hwtimer.disarm slot;
  check_bool "disarmed" false (Hw.Hwtimer.is_armed slot);
  Sim.run sim;
  check_int "no fire after disarm" 0 !hits;
  (* re-arm overwrites *)
  Hw.Hwtimer.arm_after slot ~ns:3_000;
  Hw.Hwtimer.arm_after slot ~ns:9_000;
  Sim.run sim;
  check_int "single fire after re-arm" 1 !hits

let test_hwtimer_past_deadline_fires_now () =
  let sim, fabric, hwt = make_hwtimer () in
  let hits = ref 0 in
  let r = Hw.Uintr.register_receiver fabric ~handler:(fun _ ~vector:_ -> incr hits) () in
  let slot = Hw.Hwtimer.register hwt ~receiver:r ~vector:0 in
  ignore (Sim.at sim 1_000 (fun () -> Hw.Hwtimer.arm_at slot ~time_ns:500));
  Sim.run sim;
  check_int "overdue deadline fires immediately" 1 !hits

(* ------------------------------------------------------------------ *)
(* Core                                                                *)
(* ------------------------------------------------------------------ *)

let test_core_completes_work () =
  let sim = Sim.create () in
  let core = Hw.Core.create sim ~id:0 in
  let done_at = ref (-1) in
  Hw.Core.begin_work core ~duration:1000 ~on_done:(fun () -> done_at := Sim.now sim);
  check_bool "busy" true (Hw.Core.busy core);
  Sim.run sim;
  check_int "completed on time" 1000 !done_at;
  check_bool "idle after" false (Hw.Core.busy core);
  check_int "busy accounting" 1000 (Hw.Core.busy_ns core)

let test_core_abort_returns_progress () =
  let sim = Sim.create () in
  let core = Hw.Core.create sim ~id:0 in
  let completed = ref false in
  Hw.Core.begin_work core ~duration:1000 ~on_done:(fun () -> completed := true);
  ignore
    (Sim.at sim 400 (fun () ->
         check_int "consumed" 400 (Hw.Core.consumed core);
         check_int "remaining" 600 (Hw.Core.remaining core);
         check_int "abort returns progress" 400 (Hw.Core.abort core)));
  Sim.run sim;
  check_bool "on_done suppressed" false !completed;
  check_int "busy total counts partial work" 400 (Hw.Core.busy_ns core)

let test_core_stall_delays_completion () =
  let sim = Sim.create () in
  let core = Hw.Core.create sim ~id:0 in
  let done_at = ref (-1) in
  Hw.Core.begin_work core ~duration:1000 ~on_done:(fun () -> done_at := Sim.now sim);
  ignore (Sim.at sim 300 (fun () -> Hw.Core.stall core 200));
  Sim.run sim;
  check_int "completion pushed by stall" 1200 !done_at;
  check_int "stall accounted" 200 (Hw.Core.stall_ns core)

let test_core_nested_stalls () =
  let sim = Sim.create () in
  let core = Hw.Core.create sim ~id:0 in
  let done_at = ref (-1) in
  Hw.Core.begin_work core ~duration:1000 ~on_done:(fun () -> done_at := Sim.now sim);
  ignore
    (Sim.at sim 300 (fun () ->
         Hw.Core.stall core 200;
         (* still stalled at 400: extends the stall *)
         ignore (Sim.at sim 400 (fun () -> Hw.Core.stall core 300))));
  Sim.run sim;
  (* 300ns of work, then stalled 300..800 (the second stall extends the
     first), then the remaining 700ns: completes at 1500. *)
  check_int "stalls accumulate" 1500 !done_at

let test_core_consumed_frozen_during_stall () =
  let sim = Sim.create () in
  let core = Hw.Core.create sim ~id:0 in
  Hw.Core.begin_work core ~duration:1000 ~on_done:(fun () -> ());
  ignore (Sim.at sim 300 (fun () -> Hw.Core.stall core 500));
  ignore (Sim.at sim 600 (fun () -> check_int "no progress while stalled" 300 (Hw.Core.consumed core)));
  Sim.run sim

let test_core_errors () =
  let sim = Sim.create () in
  let core = Hw.Core.create sim ~id:7 in
  Alcotest.check_raises "stall idle" (Invalid_argument "Core.stall: core is idle") (fun () ->
      Hw.Core.stall core 10);
  Alcotest.check_raises "abort idle" (Invalid_argument "Core.abort: core is idle") (fun () ->
      ignore (Hw.Core.abort core));
  Hw.Core.begin_work core ~duration:10 ~on_done:(fun () -> ());
  Alcotest.check_raises "double begin" (Invalid_argument "Core.begin_work: core 7 is busy")
    (fun () -> Hw.Core.begin_work core ~duration:10 ~on_done:(fun () -> ()))

let suites =
  [
    ( "hw.tsc",
      [ Alcotest.test_case "conversion" `Quick test_tsc_conversion ] );
    ( "hw.uintr",
      [
        Alcotest.test_case "delivery running" `Quick test_uintr_delivery_running;
        Alcotest.test_case "delivery blocked" `Quick test_uintr_delivery_blocked;
        Alcotest.test_case "suppression" `Quick test_uintr_suppression;
        Alcotest.test_case "coalescing + vector order" `Quick
          test_uintr_coalescing_and_vector_order;
        Alcotest.test_case "unsuppress delivers pending" `Quick
          test_uintr_unblock_delivers_pending;
        Alcotest.test_case "connect errors" `Quick test_uintr_connect_errors;
        Alcotest.test_case "uitt capacity" `Quick test_uintr_uitt_capacity;
      ] );
    ( "hw.ipi",
      [
        Alcotest.test_case "delivery" `Quick test_ipi_delivery;
        Alcotest.test_case "apic core limit" `Quick test_ipi_core_limit;
      ] );
    ( "hw.hwtimer",
      [
        Alcotest.test_case "fires exactly" `Quick test_hwtimer_fires_exactly;
        Alcotest.test_case "disarm/re-arm" `Quick test_hwtimer_disarm_and_rearm;
        Alcotest.test_case "overdue fires now" `Quick test_hwtimer_past_deadline_fires_now;
      ] );
    ( "hw.core",
      [
        Alcotest.test_case "completes work" `Quick test_core_completes_work;
        Alcotest.test_case "abort returns progress" `Quick test_core_abort_returns_progress;
        Alcotest.test_case "stall delays completion" `Quick test_core_stall_delays_completion;
        Alcotest.test_case "nested stalls" `Quick test_core_nested_stalls;
        Alcotest.test_case "no progress while stalled" `Quick
          test_core_consumed_frozen_during_stall;
        Alcotest.test_case "errors" `Quick test_core_errors;
      ] );
  ]
