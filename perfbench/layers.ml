(* Every per-layer metric with its unit, in BENCHMARK.json order.  A
   traced run prints all of them; a layer the workload does not reach
   reads 0 there. *)

let paper = Pqcore.Registry.names_paper

let host_cells =
  [ ("locked-heap", [ 1; 2 ]); ("bin-pq", [ 1; 2 ]); ("multi-pq", [ 1; 2 ]);
    ("tree-pq", [ 1 ]) ]

let all =
  [
    ("trace.round_s", "s");
    ("trace.overhead_s", "s");
    ("psim.events", "count");
    ("psim.runs", "count");
    ("psim.ns_per_event", "ns");
    ("psim.minor_words_per_event", "words");
  ]
  @ List.concat_map
      (fun q ->
        [
          ("mem." ^ q ^ ".misses_per_access", "misses/access");
          ("mem." ^ q ^ ".updates_per_access", "updates/access");
          ("mem." ^ q ^ ".queue_wait_per_access", "cycles/access");
          (q ^ ".insert_cycles", "cycles");
          (q ^ ".delete_cycles", "cycles");
          (q ^ ".cas_fail_ratio", "ratio");
          (q ^ ".lock_wait_cycles", "cycles/access");
          (q ^ ".host_s", "s");
        ])
      paper
  @ List.concat_map
      (fun q -> [ (q ^ ".combining_ratio", "ratio"); (q ^ ".elimination_ratio", "ratio") ])
      [ "LinearFunnels"; "FunnelTree" ]
  @ [
      ("explore.histories", "count");
      ("explore.simulate_s", "s");
      ("lincheck.checks", "count");
      ("lincheck.s", "s");
      ("lincheck.ms_per_check", "ms");
      ("lincheck.gave_up", "count");
      ("shrink.runs", "count");
      ("shrink.s", "s");
      ("shrink.kept_ratio", "ratio");
      ("races.s", "s");
      ("races.events", "count");
      ("lockdep.s", "s");
      ("lockdep.notes", "count");
      ("chaos.s", "s");
      ("chaos.cells", "count");
      ("rank.s", "s");
    ]
  @ List.concat_map
      (fun (q, ds) ->
        List.concat_map
          (fun d ->
            let p = Printf.sprintf "host.%s.d%d." q d in
            [
              (p ^ "ns_per_op", "ns");
              (p ^ "empty_ratio", "ratio");
              (p ^ "minor_words_per_op", "words");
            ])
          ds)
      host_cells
  @ [ ("host.tree-pq.d2.lost", "count") ]
