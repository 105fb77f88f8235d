(* serve-ycsb: 32 YCSB tenants under an open loop, replies released by
   external synchrony.

   Each tenant is an isolated capability subtree (its own KV shard,
   client and reply ring; Serve/Tenant defaults: 1k keys x 64 B, Zipfian
   50/45/5 read/update/insert, 256-slot ring).  Tenant [i]'s op [j] is
   due at [t0 + j*gap + i*gap/32]; the loop fires checkpoint deadlines at
   their exact instant, so a pause starts on time rather than at the next
   op.  A reply's visible latency runs from its request's due time to the
   commit that releases it, detected as a bump of the committed version;
   inside the window nothing reads the rings (a kernel read would charge
   simulated time). *)

module System = Treesls.System
module Manager = Treesls_ckpt.Manager
module Clock = Treesls_sim.Clock
module Serve = Treesls_serve.Serve
module Tenant = Treesls_serve.Tenant
module Probe = Treesls_obs.Probe
module Kvstore = Treesls_apps.Kvstore

let tenants = 32
let gap_ns = 192_000
let interval_us = 1_000
let nvm_pages = 1 lsl 16

(* warm-up: 16 intervals, twice the active list's idle limit, so the
   hybrid DRAM cache reaches its steady hot set before timing *)
let warm_ops = 16 * interval_us * 1000 / gap_ns

(* the window: 1.3 s of schedule, over 1000 commits at a 1 ms interval
   plus the pause *)
let window_ops = 1_300 * interval_us * 1000 / gap_ns

type run = {
  lat : Samples.t;  (* due -> visible, sim ns *)
  late : Samples.t;  (* op start - due, sim ns *)
  pending : Samples.t;  (* due times of parked replies *)
  mutable sent : int;
  mutable shed : int;
  mutable full : int;  (* ops refused by a full tenant store *)
  step_host : Samples.t;
  idle_host : Samples.t;
  commit_host : Samples.t;
}

let new_run () =
  {
    lat = Samples.create ();
    late = Samples.create ();
    pending = Samples.create ();
    sent = 0;
    shed = 0;
    full = 0;
    step_host = Samples.create ();
    idle_host = Samples.create ();
    commit_host = Samples.create ();
  }

let setup ~seed sp =
  let t0 = Host.now_ns () in
  let sys = System.boot ~nvm_pages ~interval_us () in
  let boot_s = Host.seconds_since t0 in
  let serve =
    Serve.create sys
      {
        Serve.default_cfg with
        Serve.tenants;
        ops_per_tenant = warm_ops + window_ops;
        gap_ns;
        seed = Int64.of_int seed;
      }
  in
  let ts = Array.of_list (Serve.tenants serve) in
  let mgr = System.manager sys in
  let clock = System.clock sys in
  let commits = ref (Commits.create sys) in
  let chunks = Chunks.create ~every:20 in
  let s_step = Span.name sp "serve.step" in
  let s_idle = Span.name sp "core.tick" in
  let s_commit = Span.name sp "ckpt.commit" in
  let stagger = max 1 (gap_ns / tenants) in
  (* A tick's host time goes to the commit path when it captured or
     committed, to the idle tick otherwise.  A commit releases every
     parked reply at the instant it returns. *)
  let timed_tick run f =
    Span.enter sp;
    let captured = f () in
    let committed = Commits.poll !commits in
    let layer = if captured || committed then s_commit else s_idle in
    let dur = Span.leave sp layer ~req:0 in
    if Span.enabled sp then
      Samples.add (if layer = s_commit then run.commit_host else run.idle_host) dur;
    if committed then begin
      Chunks.note chunks ~ops:(run.sent + run.full) ~marks:(Commits.count !commits);
      Samples.release ~pending:run.pending ~into:run.lat ~now:(System.now_ns sys)
    end
  in
  (* Let simulated time pass up to [target], firing every checkpoint
     deadline on the way at its exact instant. *)
  let rec advance_to run target =
    if System.now_ns sys < target then begin
      (match Manager.next_deadline mgr with
      | Some d when d <= target ->
        if System.now_ns sys < d then Clock.advance clock (d - System.now_ns sys);
        timed_tick run (fun () -> Manager.tick mgr <> None)
      | Some _ | None -> Clock.advance clock (target - System.now_ns sys));
      advance_to run target
    end
  in
  let base = ref 0 in
  let drive run ~j0 ~j1 =
    for j = j0 to j1 - 1 do
      for i = 0 to tenants - 1 do
        let due = !base + (j * gap_ns) + (i * stagger) in
        advance_to run due;
        Samples.add run.late (System.now_ns sys - due);
        let tn = ts.(i) in
        let shed0 = Tenant.shed tn in
        Span.enter sp;
        let stored =
          match Tenant.step tn with () -> true | exception Kvstore.Full -> false
        in
        let dur = Span.leave sp s_step ~req:(if Span.enabled sp then Probe.req_current () else 0) in
        if Span.enabled sp then Samples.add run.step_host dur;
        if not stored then run.full <- run.full + 1
        else begin
          run.sent <- run.sent + 1;
          if Tenant.shed tn > shed0 then run.shed <- run.shed + 1
          else Samples.add run.pending due
        end;
        timed_tick run (fun () -> System.tick sys <> None)
      done
    done
  in
  (* settle the creation/preload burst with the forced full first walk,
     then run the warm-up stretch of the schedule *)
  ignore (System.checkpoint sys);
  System.drain_settle sys;
  base := System.now_ns sys;
  drive (new_run ()) ~j0:0 ~j1:warm_ops;
  let the_run = new_run () in
  let before = ref (Sysmetrics.mark sys) in
  let after = ref !before in
  let window () =
    commits := Commits.create sys;
    before := Sysmetrics.mark sys;
    let sim_start = System.now_ns sys in
    let run = the_run in
    Chunks.start chunks ~ops:0 ~marks:0;
    drive run ~j0:warm_ops ~j1:(warm_ops + window_ops);
    (* release the last partial interval at its own deadline, then settle
       whatever an asynchronous drain still holds *)
    (match Manager.next_deadline mgr with Some d -> advance_to run d | None -> ());
    timed_tick run (fun () ->
        System.drain_settle sys;
        false);
    if Samples.count run.pending > 0 then
      timed_tick run (fun () ->
          ignore (System.checkpoint sys);
          System.drain_settle sys;
          true);
    let sim_end = System.now_ns sys in
    after := Sysmetrics.mark sys;
    let ops = run.sent + run.full in
    let c = !commits in
    let a = !before and b = !after in
    let us ns = float_of_int ns /. 1000.0 in
    let sim =
      [
        ("latency_p50_us", us (Samples.percentile run.lat 50.0));
        ("latency_tail_us", us (Samples.tail run.lat));
      ]
      @ Commits.stw_metrics c
      @ [
          ("waf", Commits.waf c);
          ( "nvm_bytes_per_op",
            float_of_int (Sysmetrics.nvm_bytes a b) /. float_of_int (max 1 ops) );
          ("sim_kops", float_of_int ops /. float_of_int (sim_end - sim_start) *. 1e6);
        ]
      @ Commits.layer_metrics c
      @ Sysmetrics.per_op ~ops a b
      @ [
          ("extsync.shed", float_of_int run.shed);
          ( "extsync.published_per_commit",
            float_of_int (Sysmetrics.counter_delta a b "extsync.published")
            /. float_of_int (max 1 (Commits.count c)) );
          ("bench.late_p99_us", us (Samples.percentile run.late 99.0));
        ]
    in
    let host =
      [
        ("serve.step_us_p50", us (Samples.percentile run.step_host 50.0));
        ("serve.step_us_p99", us (Samples.percentile run.step_host 99.0));
        ("core.tick_idle_ns_p50", float_of_int (Samples.percentile run.idle_host 50.0));
        ("ckpt.commit_host_us_p50", us (Samples.percentile run.commit_host 50.0));
        ("ckpt.commit_host_us_p99", us (Samples.percentile run.commit_host 99.0));
      ]
    in
    { Workload.ops; refused = run.shed + run.full; rate = Chunks.median_rate chunks;
      ref_ns = Chunks.median_ref chunks; sim; host }
  in
  let check () =
    let run = the_run in
    if Samples.count run.pending > 0 then
      failwith (Printf.sprintf "%d replies never released" (Samples.count run.pending));
    if Samples.count run.lat + run.shed <> run.sent then
      failwith
        (Printf.sprintf "released %d + shed %d <> sent %d" (Samples.count run.lat) run.shed
           run.sent);
    Array.iter
      (fun tn ->
        if Tenant.sent tn <> Tenant.delivered tn + Tenant.shed tn then
          failwith
            (Printf.sprintf "%s: sent %d <> delivered %d + shed %d" (Tenant.name tn)
               (Tenant.sent tn) (Tenant.delivered tn) (Tenant.shed tn)))
      ts;
    Commits.warn_if_few !commits;
    Commits.check !commits;
    Sysmetrics.check_wear !before !after;
    let errors = Treesls_audit.Audit.errors (System.audit sys) in
    if errors > 0 then failwith (Printf.sprintf "audit: %d errors" errors)
  in
  { Workload.boot_s; setup_sim = []; window; check }

let workload = { Workload.name = "serve-ycsb"; min_traced_windows = 2; setup }
