(* crash-sweep: Crashtest.run over four 60-op traces — journal commit
   points torn at all four phases, named checkpoint and restore crash
   sites, and DRAM-loss crashes, capped to a little over 100 schedules
   in all.  Every schedule is recovered and checked by the sweep's own
   oracles (audit, twin fingerprint, liveness, wear, black box,
   extsync); one failure fails the run.  Four short traces rather than
   one long one keep the RTO percentiles from hinging on one trace.

   Set-up replays eight traces — the four swept ones and four more —
   without injecting anything, as the sweep's enumeration run does but
   extended to [replay_ops] ops (a trace's first 60 ops are the swept
   ones), and yields their checkpoint metrics (STW, WAF, NVM bytes).
   Those vary a lot from trace to trace, hence the eight; the replays
   boot a smaller NVM than the sweep's default, which changes none of
   their checkpoint figures beyond the allocator's journal words and
   keeps eight boots cheap.  The window is the sweep itself; its
   latency metrics are the victims' recovery times (RTO). *)

module System = Treesls.System
module C = Treesls_crashtest.Crashtest
module Rto = Treesls_obs.Rto

let swept = 4
let replayed = 8
let trace_ops = 60
let replay_ops = 1000
let replay_nvm_pages = 1 lsl 14
let min_schedules = 100

let config trace_seed =
  {
    C.default_config with
    C.seed = trace_seed;
    ops = trace_ops;
    commit_cap = 4;
    per_site_cap = 1;
    op_cap = 1;
  }

let us ns = float_of_int ns /. 1000.0

let setup ~seed sp =
  let replays = List.init replayed (fun k -> config ((replayed * seed) + k)) in
  let cfgs = List.filteri (fun k _ -> k < swept) replays in
  let boots = ref [] in
  let commits = ref [] in
  let a = ref None and b = ref None in
  let sim_ns = ref 0 in
  List.iter
    (fun cfg ->
      let t0 = Host.now_ns () in
      let sys = System.boot ~nvm_pages:replay_nvm_pages () in
      boots := Host.seconds_since t0 :: !boots;
      let ops = C.gen_trace ~seed:cfg.C.seed ~ops:replay_ops in
      ignore (System.checkpoint sys);
      let c = Commits.create sys in
      let m0 = Sysmetrics.mark sys in
      let t0 = System.now_ns sys in
      C.replay sys ops ~on_op:(fun _ -> ignore (Commits.poll c));
      ignore (System.checkpoint sys);
      System.drain_settle sys;
      ignore (Commits.poll c);
      sim_ns := !sim_ns + System.now_ns sys - t0;
      let m1 = Sysmetrics.mark sys in
      Commits.check c;
      Sysmetrics.check_wear m0 m1;
      commits := c :: !commits;
      a := Some (Sysmetrics.add_mark !a m0);
      b := Some (Sysmetrics.add_mark !b m1))
    replays;
  let boot_s = Samples.median_float !boots in
  let commits = Commits.merge !commits in
  let a = Option.get !a and b = Option.get !b in
  let ops = replayed * replay_ops in
  let setup_sim =
    Commits.stw_metrics commits
    @ [
        ("waf", Commits.waf commits);
        ("nvm_bytes_per_op", float_of_int (Sysmetrics.nvm_bytes a b) /. float_of_int ops);
        ("sim_kops", float_of_int ops /. float_of_int !sim_ns *. 1e6);
      ]
    @ Commits.layer_metrics commits
    @ Sysmetrics.per_op ~ops a b
  in
  let s_sched = Span.name sp "crashtest.schedule" in
  let sched_host = Samples.create () in
  let sweep = ref [] in
  let window () =
    (* the sweep's throughput is its schedules over its whole host time,
       enumeration and twin runs included; the machine-speed reference
       runs after every schedule, and its own time is taken out *)
    let t0 = Host.now_ns () in
    let refs = Samples.create () in
    let ref_total = ref 0 in
    let open_span = ref false in
    let close () =
      if !open_span then begin
        Samples.add sched_host (Span.leave sp s_sched ~req:0);
        let r = Host.reference () in
        Samples.add refs r;
        ref_total := !ref_total + r
      end;
      open_span := false
    in
    let progress _ _ =
      close ();
      Span.enter sp;
      open_span := true
    in
    let ss =
      List.map
        (fun cfg ->
          let s = C.run ~progress cfg in
          close ();
          (cfg, s))
        cfgs
    in
    sweep := ss;
    let results = List.concat_map (fun (_, s) -> s.C.results) ss in
    let failed = List.concat_map (fun (_, s) -> s.C.failed) ss in
    let records = List.filter_map (fun r -> r.C.recovery) results in
    let dist f =
      let x = Samples.create () in
      List.iter (fun r -> Samples.add x (f r)) records;
      x
    in
    let p50 f = Samples.percentile (dist f) 50.0 in
    let phase name (r : Rto.record) =
      if name = "untracked" then r.Rto.r_untracked_ns
      else Option.value ~default:0 (List.assoc_opt name r.Rto.r_phases)
    in
    let total = dist (fun r -> r.Rto.r_total_ns) in
    let sim =
      [
        ("latency_p50_us", us (Samples.percentile total 50.0));
        ("latency_tail_us", us (Samples.tail total));
      ]
      @ List.map (fun p -> ("restore." ^ p ^ "_us", us (p50 (phase p)))) Catalogue.restore_phases
      @ [
          ("restore.objects", float_of_int (p50 (fun r -> r.Rto.r_restored_objects)));
          ("restore.pages", float_of_int (p50 (fun r -> r.Rto.r_pages_restored)));
        ]
    in
    let host =
      [
        ("crashtest.schedule_ms_p50", float_of_int (Samples.percentile sched_host 50.0) /. 1e6);
        ("crashtest.schedule_ms_p99", float_of_int (Samples.percentile sched_host 99.0) /. 1e6);
      ]
    in
    {
      Workload.ops = List.length results;
      refused = List.length failed;
      rate =
        float_of_int (List.length results) *. 1e9 /. float_of_int (Host.now_ns () - t0 - !ref_total);
      ref_ns = (if Samples.count refs = 0 then Host.ref_ns () else Samples.percentile refs 50.0);
      sim;
      host;
    }
  in
  let check () =
    let results = List.concat_map (fun (_, s) -> s.C.results) !sweep in
    List.iter
      (fun (cfg, s) ->
        List.iter
          (fun (r : C.result) ->
            Printf.eprintf "crash-sweep: FAIL %s: %s\n" (C.reproducer cfg r.C.point)
              (C.outcome_to_string r.C.outcome))
          s.C.failed)
      !sweep;
    let n = List.length results in
    let failed = List.length (List.filter (fun r -> not (C.outcome_is_pass r.C.outcome)) results) in
    if failed > 0 then failwith (Printf.sprintf "%d of %d schedules failed" failed n);
    if n < min_schedules then failwith (Printf.sprintf "only %d schedules" n);
    let recovered = List.length (List.filter (fun r -> r.C.recovery <> None) results) in
    if recovered <> n then
      failwith (Printf.sprintf "%d of %d schedules left no recovery record" (n - recovered) n)
  in
  { Workload.boot_s; setup_sim; window; check }

let workload = { Workload.name = "crash-sweep"; min_traced_windows = 1; setup }
