let () =
  Alcotest.run "nbhash"
    (Test_bits.suite @ Test_xoshiro.suite @ Test_stats.suite @ Test_backoff.suite @ Test_alias.suite @ Test_clock.suite
   @ Test_intset.suite @ Test_policy.suite @ Test_fsets.suite
   @ Test_fset_concurrent.suite @ Test_tables.suite
   @ Test_hashset_concurrent.suite @ Test_ordered_list.suite
   @ Test_splitorder.suite @ Test_hashmap.suite @ Test_wf_hashmap.suite
   @ Test_keyed.suite @ Test_generic.suite @ Test_differential.suite
   @ Test_ulist.suite @ Test_extend.suite @ Test_linearizability.suite
   @ Test_targeted.suite
   @ Test_workload.suite @ Test_telemetry.suite @ Test_json.suite
   @ Test_trace.suite @ Test_profile.suite @ Test_churn.suite
   @ Test_inspect.suite @ Test_openmetrics.suite
   @ Test_protocol.suite @ Test_server.suite
   @ Test_lint.suite @ Test_analyze.suite @ Test_alloc.suite)
