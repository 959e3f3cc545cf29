let () =
  Alcotest.run "neutron_fall"
    [
      ("util", Test_util.suite);
      ("linalg", Test_linalg.suite);
      ("lattice", Test_lattice.suite);
      ("dirac", Test_dirac.suite);
      ("solver", Test_solver.suite);
      ("vrank", Test_vrank.suite);
      ("machine", Test_machine.suite);
      ("autotune", Test_autotune.suite);
      ("jobman", Test_jobman.suite);
      ("qio", Test_qio.suite);
      ("physics", Test_physics.suite);
      ("core", Test_core.suite);
      ("check", Test_check.suite);
      ("transport", Test_transport.suite);
      ("pool", Test_pool.suite);
      ("fused", Test_fused.suite);
      ("plan", Test_plan.suite);
      ("multirhs", Test_multirhs.suite);
      ("recon", Test_recon.suite);
      ("deflate", Test_deflate.suite);
      ("properties", Test_properties.suite);
      ("oracle", Test_oracle.suite);
    ]
