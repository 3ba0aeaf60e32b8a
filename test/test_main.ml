let () =
  Alcotest.run "slice"
    [
      ("util", Test_util.suite);
      ("hash", Test_hash.suite);
      ("sim", Test_sim.suite);
      ("xdr", Test_xdr.suite);
      ("net", Test_net.suite);
      ("nfs", Test_nfs.suite);
      ("disk", Test_disk.suite);
      ("bcache", Test_bcache.suite);
      ("wal", Test_wal.suite);
      ("storage", Test_storage.suite);
      ("dir", Test_dir.suite);
      ("smallfile", Test_smallfile.suite);
      ("proxy", Test_proxy.suite);
      ("table", Test_table.suite);
      ("reconfig", Test_reconfig.suite);
      ("metacache", Test_metacache.suite);
      ("fault", Test_fault.suite);
      ("trace", Test_trace.suite);
      ("workload", Test_workload.suite);
      ("qos", Test_qos.suite);
      ("baseline", Test_baseline.suite);
      ("experiments", Test_experiments.suite);
      ("lint", Test_lint.suite);
    ]
