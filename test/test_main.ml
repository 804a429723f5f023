(* [CENSUS_LONG=1] (the [@census] alias) adds the n = 5 census sweep,
   which runtest leaves out for its length. *)
let census_long =
  if Sys.getenv_opt "CENSUS_LONG" = Some "1" then [ ("census-n5", Test_census.long_suite) ]
  else []

let () =
  Alcotest.run "dgs"
    ([
      ("util", Test_util.suite);
      ("graph", Test_graph.suite);
      ("ralgebra", Test_ralgebra.suite);
      ("antlist", Test_antlist.suite);
      ("mark/priority", Test_priority.suite);
      ("grp-node", Test_grp_node.suite);
      ("wire", Test_wire.suite);
      ("sim", Test_sim.suite);
      ("sharded", Test_sharded.suite);
      ("elision", Test_elision.suite);
      ("reference", Test_reference.suite);
      ("digest", Test_digest.suite);
      ("spec", Test_spec.suite);
      ("spatial", Test_spatial.suite);
      ("incremental", Test_incremental.suite);
      ("mobility", Test_mobility.suite);
      ("baselines", Test_baselines.suite);
      ("metrics", Test_metrics.suite);
      ("metrics-registry", Test_registry.suite);
      ("postmortem", Test_postmortem.suite);
      ("stabilization", Test_stabilization.suite);
      ("census", Test_census.suite);
      ("propositions", Test_propositions.suite);
      ("continuity", Test_continuity.suite);
      ("workload", Test_workload.suite);
      ("trace", Test_trace.suite);
      ("causal", Test_causal.suite);
      ("check", Test_check.suite);
      ("parallel", Test_parallel.suite);
      ("docs", Test_docs.suite);
    ]
    @ census_long)
