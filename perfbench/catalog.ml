(* Every metric the benchmark reports, by name, with its unit.

   End-to-end metrics are what a user of NDroid sees; every workload
   reports all of them, each for its own unit of work.  Per-layer metrics
   come from the traced run; a workload that does not call into a layer
   reports that layer's metrics as 0.  README.md gives, for each
   per-layer metric, the end-to-end metric and workload it should move;
   BENCHMARK.json gives directions and bounds. *)

let end_to_end =
  [ ("setup_s", "s"); ("peak_rss_mb", "MB"); ("ops_per_s", "1/s"); ("p50_ms", "ms");
    ("p99_ms", "ms") ]

(* CF-Bench categories as metric-name stems: "Native Memory Read" ->
   "native_memory_read". *)
let slug name =
  String.map (fun c -> if c = ' ' then '_' else Char.lowercase_ascii c) name

let cfbench_categories =
  List.map (fun (w : Ndroid_apps.Cfbench.workload) -> slug w.Ndroid_apps.Cfbench.w_name)
    Ndroid_apps.Cfbench.workloads

let layers =
  [ ("corpus.materialize_s", "s"); ("static.analyze_s", "s"); ("static.methods", "count");
    ("static.native_insns", "count"); ("static.rounds", "count");
    ("static.xir_nodes", "count"); ("static.pruned_ratio", "ratio");
    ("market_exec.focused_s", "s"); ("market_exec.bytecodes", "count");
    ("market_exec.skipped_bytecodes", "count"); ("pool.analyze_cpu_s", "s");
    ("pool.collect_s", "s"); ("pool.digest_s", "s"); ("pool.steals", "count");
    ("pool.parallel_efficiency", "ratio"); ("cache.hit_us", "us");
    ("proto.encode_us", "us"); ("proto.decode_us", "us"); ("serve.analysis_ms", "ms");
    ("serve.overhead_ms", "ms"); ("serve.cached_ratio", "ratio");
    ("serve.admission_depth_p99", "count"); ("serve.shed", "count");
    ("serve.coalesced", "count"); ("serve.analyses", "count");
    ("loadgen.late_p99_ms", "ms"); ("device.boot_s", "s");
    ("ndroid.attach_s", "s"); ("ndroid.execute_s", "s"); ("ndroid.collect_s", "s");
    ("dalvik.bytecodes", "count"); ("jni.crossings", "count");
    ("emulator.traced_insns", "count"); ("summary.applied", "count");
    ("summary.hit_ratio", "ratio"); ("report.to_report_s", "s"); ("json.encode_s", "s");
    ("gc.alloc_mb", "MB"); ("gc.major_collections", "count") ]
  @ List.concat_map
      (fun c ->
        [ (Printf.sprintf "cfbench.%s_s" c, "s");
          (Printf.sprintf "cfbench.%s_native_insns" c, "count");
          (Printf.sprintf "cfbench.%s_bytecodes" c, "count") ])
      cfbench_categories
  @ [ ("emulator.native_mips", "MIPS"); ("arm.icache_hit_ratio", "ratio");
      ("cfbench.slowdown_native", "x"); ("cfbench.slowdown_java", "x");
      ("trace.overhead_ratio", "ratio"); ("trace.coverage_ratio", "ratio") ]
