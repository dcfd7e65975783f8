(* Aggregates all test suites into one alcotest binary. The wide crash
   sweep and the reset and recovery explorers' wide bounds are
   registered only when named on the command line, as [dune build
   @crash-slow] does, so [dune runtest] leaves them out. *)

let slow =
  if Array.mem "crash-slow" Sys.argv then
    [
      ( "crash-slow",
        Test_crashpoints.slow_suite @ Test_reset_explore.slow_suite
        @ Test_recovery_explore.slow_suite );
    ]
  else []

let () = Alcotest.run "amoeba-dirsvc" ([ ("sim", Test_sim.suite); ("trace", Test_trace.suite); ("net", Test_net.suite); ("rpc", Test_rpc.suite); ("group", Test_group.suite); ("capability", Test_capability.suite); ("storage", Test_storage.suite); ("format", Test_format.suite); ("directory", Test_directory.suite); ("skeen", Test_skeen.suite); ("dirsvc", Test_dirsvc.suite); ("recovery", Test_recovery.suite); ("workload", Test_workload.suite); ("pool", Test_pool.suite); ("shard", Test_shard.suite); ("baseline", Test_baseline.suite); ("crash", Test_crashpoints.suite); ("explore", Test_reset_explore.suite); ("step", Test_reset_step.suite); ("recovery-step", Test_recovery_step.suite); ("recovery-explore", Test_recovery_explore.suite) ] @ slow)
