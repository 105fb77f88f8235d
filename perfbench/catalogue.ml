(* Every metric the benchmark reports: name, unit, and which direction
   is better.  Host times and rates are scaled to the reference machine
   speed ({!Host.reference}), except bench.ref_ms and
   bench.raw_ops_per_s, the raw readings behind the scaling.
   BENCHMARK.json at the repository root lists the same metrics;
   perfbench/METRICS.md says what each one means per workload and which
   end-to-end metric each per-layer metric should move. *)

type dir = Higher | Lower
type metric = { name : string; unit : string; better : dir }

let m name unit better = { name; unit; better }

(* Reported by an untraced invocation. *)
let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "ops_per_s" "1/s" Higher;
    m "peak_rss_mb" "MiB" Lower;
    m "latency_p50_us" "us" Lower;
    m "latency_tail_us" "us" Lower;
    m "stw_p50_us" "us" Lower;
    m "stw_tail_us" "us" Lower;
    m "waf" "ratio" Lower;
    m "nvm_bytes_per_op" "B" Lower;
    m "sim_kops" "kops/s" Higher;
  ]

let restore_phases =
  [
    "journal_replay";
    "meta_validate";
    "oroot_select";
    "page_remap";
    "materialize";
    "captree_rebuild";
    "oroot_gc";
    "buddy_reconcile";
    "drain_settle";
    "ring_reattach";
    "untracked";
  ]

let self_layers = [ "bench"; "serve"; "apps"; "core"; "ckpt"; "crashtest" ]

(* Reported by a traced invocation. *)
let per_layer =
  [
    m "core.boot_s" "s" Lower;
    m "core.tick_idle_ns_p50" "ns" Lower;
    m "ckpt.commit_host_us_p50" "us" Lower;
    m "ckpt.commit_host_us_p99" "us" Lower;
    m "ckpt.commits" "count" Lower;
    m "ckpt.captree_us" "us" Lower;
    m "ckpt.hybrid_us" "us" Lower;
    m "ckpt.ipi_us" "us" Lower;
    m "ckpt.others_us" "us" Lower;
    m "ckpt.objects_walked" "count" Lower;
    m "ckpt.objects_skipped" "count" Higher;
    m "ckpt.walk_ratio" "ratio" Lower;
    m "ckpt.pages_protected" "count" Lower;
    m "ckpt.dram_dirty_copied" "count" Lower;
    m "ckpt.migrated_in" "count" Lower;
    m "ckpt.migrated_out" "count" Lower;
    m "ckpt.cached_pages" "count" Higher;
    m "ckpt.pages_drained" "count" Lower;
    m "ckpt.cow_faults" "count" Lower;
    m "ckpt.drain_us" "us" Lower;
    m "ckpt.snapshot_bytes" "B" Lower;
    m "serve.step_us_p50" "us" Lower;
    m "serve.step_us_p99" "us" Lower;
    m "apps.set_us_p50" "us" Lower;
    m "apps.set_us_p99" "us" Lower;
    m "apps.get_us_p50" "us" Lower;
    m "apps.get_us_p99" "us" Lower;
    m "kernel.syscalls_per_op" "count" Lower;
    m "kernel.ipc_per_op" "count" Lower;
    m "kernel.cow_faults_per_op" "count" Lower;
    m "kernel.alloc_faults_per_op" "count" Lower;
    m "extsync.shed" "count" Lower;
    m "extsync.published_per_commit" "count" Higher;
  ]
  @ List.map (fun sub -> m ("nvm.bytes_per_op." ^ sub) "B" Lower) Sysmetrics.wear_subsystems
  @ [ m "nvm.txn_words_per_op" "count" Lower; m "nvm.alloc_pages_per_op" "count" Lower ]
  @ List.map (fun p -> m ("restore." ^ p ^ "_us") "us" Lower) restore_phases
  @ [
      m "restore.objects" "count" Lower;
      m "restore.pages" "count" Lower;
      m "crashtest.schedule_ms_p50" "ms" Lower;
      m "crashtest.schedule_ms_p99" "ms" Lower;
      m "gc.minor_words_per_op" "words" Lower;
      m "gc.major_per_kop" "count" Lower;
      m "bench.late_p99_us" "us" Lower;
      m "obs.trace_overhead_pct" "%" Lower;
      m "bench.ref_ms" "ms" Lower;
      m "bench.raw_ops_per_s" "1/s" Higher;
      m "error_rate" "fraction" Lower;
    ]
  @ List.map (fun l -> m ("self_us_per_op." ^ l) "us" Lower) self_layers
