(* kv-write-big: one Memcached instance, 40k keys x 1 KiB (about 10x the
   hybrid DRAM cache), driven closed loop with 90% SET / 10% GET over
   uniform keys.  An op's latency runs from its start to the commit that
   makes it durable — when an externally synchronous server could
   release its reply.

   Every SET writes a value unique to that write (key and write sequence
   number in its header) and a DRAM shadow keeps the last sequence number
   of every key, so each GET checks read-your-writes inline, and after
   the final commit a crash and recovery must bring back exactly the
   shadow.  A full store is counted as a refused op, not raised. *)

module System = Treesls.System
module Kv_app = Treesls_apps.Kv_app
module Kvstore = Treesls_apps.Kvstore
module Probe = Treesls_obs.Probe
module Rng = Treesls_util.Rng

let keys = 40_000
let value_size = 1024
let interval_us = 1_000
let nvm_pages = 1 lsl 16
let set_pct = 90

(* warm-up: 16 intervals of simulated time, twice the active list's idle
   limit; the window: a fixed op count giving >= 1000 commits *)
let warm_ns = 16 * interval_us * 1000
let window_ops = 150_000

let key_of i = Printf.sprintf "key%08d" i

let value_of =
  let buf = Bytes.make value_size '.' in
  fun k seq ->
    Bytes.blit_string (Printf.sprintf "k%08d:w%010d:" k seq) 0 buf 0 21;
    Bytes.to_string buf

type run = {
  mutable ops : int;
  mutable refused : int;
  mutable mismatches : int;
  lat : Samples.t;  (* op start -> the commit that makes it durable, sim ns *)
  pending : Samples.t;  (* start times of ops not yet committed *)
  set_host : Samples.t;
  get_host : Samples.t;
  idle_host : Samples.t;
  commit_host : Samples.t;
}

let new_run () =
  {
    ops = 0;
    refused = 0;
    mismatches = 0;
    lat = Samples.create ();
    pending = Samples.create ();
    set_host = Samples.create ();
    get_host = Samples.create ();
    idle_host = Samples.create ();
    commit_host = Samples.create ();
  }

let setup ~seed sp =
  let t0 = Host.now_ns () in
  let sys = System.boot ~nvm_pages ~interval_us () in
  let boot_s = Host.seconds_since t0 in
  let app = Kv_app.launch ~keys_hint:keys ~value_size sys Kv_app.Memcached in
  let key = Array.init keys key_of in
  let shadow = Array.make keys 0 in
  let seq = ref 0 in
  let rng = Rng.create (Int64.of_int seed) in
  let commits = ref (Commits.create sys) in
  let chunks = Chunks.create ~every:20 in
  let s_set = Span.name sp "apps.set" in
  let s_get = Span.name sp "apps.get" in
  let s_idle = Span.name sp "core.tick" in
  let s_commit = Span.name sp "ckpt.commit" in
  let req () = if Span.enabled sp then Probe.req_current () else 0 in
  let set run k =
    incr seq;
    let v = value_of k !seq in
    Span.enter sp;
    (match Kv_app.set app ~key:key.(k) ~value:v with
    | () -> shadow.(k) <- !seq
    | exception Kvstore.Full -> run.refused <- run.refused + 1);
    let dur = Span.leave sp s_set ~req:(req ()) in
    if Span.enabled sp then Samples.add run.set_host dur
  in
  let get run k =
    Span.enter sp;
    let got = Kv_app.get app ~key:key.(k) in
    let dur = Span.leave sp s_get ~req:(req ()) in
    if Span.enabled sp then Samples.add run.get_host dur;
    if got <> Some (value_of k shadow.(k)) then run.mismatches <- run.mismatches + 1
  in
  let tick run =
    Span.enter sp;
    let captured = System.tick sys <> None in
    let committed = Commits.poll !commits in
    let layer = if captured || committed then s_commit else s_idle in
    let dur = Span.leave sp layer ~req:0 in
    if Span.enabled sp then
      Samples.add (if layer = s_commit then run.commit_host else run.idle_host) dur;
    if committed then begin
      Chunks.note chunks ~ops:run.ops ~marks:(Commits.count !commits);
      Samples.release ~pending:run.pending ~into:run.lat ~now:(System.now_ns sys)
    end
  in
  let op run =
    Samples.add run.pending (System.now_ns sys);
    let k = Rng.int rng keys in
    if Rng.int rng 100 < set_pct then set run k else get run k;
    run.ops <- run.ops + 1;
    tick run
  in
  let preload = new_run () in
  for k = 0 to keys - 1 do
    set preload k
  done;
  if preload.refused > 0 then failwith "kv-write-big: preload did not fit the store";
  ignore (System.checkpoint sys);
  System.drain_settle sys;
  let warm = new_run () in
  let warm_end = System.now_ns sys + warm_ns in
  while System.now_ns sys < warm_end do
    op warm
  done;
  let the_run = new_run () in
  let before = ref (Sysmetrics.mark sys) in
  let after = ref !before in
  let window () =
    commits := Commits.create sys;
    before := Sysmetrics.mark sys;
    let sim_start = System.now_ns sys in
    let run = the_run in
    Chunks.start chunks ~ops:0 ~marks:0;
    for _ = 1 to window_ops do
      op run
    done;
    (* the last partial interval commits at its own deadline *)
    while Samples.count run.pending > 0 do
      System.advance_us sys 1;
      tick run
    done;
    let sim_end = System.now_ns sys in
    after := Sysmetrics.mark sys;
    let c = !commits in
    let a = !before and b = !after in
    let us ns = float_of_int ns /. 1000.0 in
    let ops = run.ops in
    let sim =
      [
        ("latency_p50_us", us (Samples.percentile run.lat 50.0));
        ("latency_tail_us", us (Samples.tail run.lat));
      ]
      @ Commits.stw_metrics c
      @ [
          ("waf", Commits.waf c);
          ("nvm_bytes_per_op", float_of_int (Sysmetrics.nvm_bytes a b) /. float_of_int ops);
          ("sim_kops", float_of_int ops /. float_of_int (sim_end - sim_start) *. 1e6);
        ]
      @ Commits.layer_metrics c
      @ Sysmetrics.per_op ~ops a b
    in
    let host =
      [
        ("apps.set_us_p50", us (Samples.percentile run.set_host 50.0));
        ("apps.set_us_p99", us (Samples.percentile run.set_host 99.0));
        ("apps.get_us_p50", us (Samples.percentile run.get_host 50.0));
        ("apps.get_us_p99", us (Samples.percentile run.get_host 99.0));
        ("core.tick_idle_ns_p50", float_of_int (Samples.percentile run.idle_host 50.0));
        ("ckpt.commit_host_us_p50", us (Samples.percentile run.commit_host 50.0));
        ("ckpt.commit_host_us_p99", us (Samples.percentile run.commit_host 99.0));
      ]
    in
    { Workload.ops; refused = run.refused; rate = Chunks.median_rate chunks;
      ref_ns = Chunks.median_ref chunks; sim; host }
  in
  let check () =
    let run = the_run in
    if run.mismatches > 0 then
      failwith (Printf.sprintf "%d GETs did not read their key's last write" run.mismatches);
    Commits.warn_if_few !commits;
    Commits.check !commits;
    Sysmetrics.check_wear !before !after;
    (* commit everything, lose power, and expect every key's last write *)
    System.drain_settle sys;
    ignore (System.checkpoint sys);
    System.drain_settle sys;
    ignore (System.crash_and_recover sys);
    Kv_app.refresh app;
    let kv = Kv_app.kv app in
    let lost = ref 0 in
    for k = 0 to keys - 1 do
      if Kvstore.get kv ~key:key.(k) <> Some (value_of k shadow.(k)) then incr lost
    done;
    if !lost > 0 then failwith (Printf.sprintf "%d keys lost their last committed value" !lost);
    let errors = Treesls_audit.Audit.errors (System.audit sys) in
    if errors > 0 then failwith (Printf.sprintf "audit after recovery: %d errors" errors)
  in
  { Workload.boot_s; setup_sim = []; window; check }

let workload = { Workload.name = "kv-write-big"; min_traced_windows = 2; setup }
