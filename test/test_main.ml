let () =
  Alcotest.run "libpreemptible"
    (Test_engine.suites @ Test_stat.suites @ Test_hw.suites @ Test_ksim.suites
   @ Test_workload.suites @ Test_utimer.suites @ Test_fault.suites
   @ Test_preemptible.suites @ Test_guard.suites @ Test_baselines.suites @ Test_fiber.suites
   @ Test_integration.suites @ Test_properties.suites @ Test_edge.suites
   @ Test_cluster.suites @ Test_obs.suites @ Test_telemetry.suites @ Test_exec.suites
   @ Test_scenario.suites @ Test_spmc.suites @ Test_rt_sched.suites
   @ Test_crossval.suites @ Test_cli.suites @ Test_figure.suites)
