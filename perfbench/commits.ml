(* Settled checkpoint reports, collected on every bump of the committed
   version (System.version is a host-side read that charges no simulated
   time).  The report is read back from the manager at that moment, not
   taken from [tick]'s return value: with an asynchronous drain, [tick]
   returns the stop-the-world capture alone, whose drain and WAF fields
   are only filled in when the window settles. *)

module System = Treesls.System
module Manager = Treesls_ckpt.Manager
module Report = Treesls_ckpt.Report

type t = {
  sys : System.t;
  mutable version : int;
  mutable reports : Report.t list;  (* newest first *)
  mutable n : int;
}

let create sys = { sys; version = System.version sys; reports = []; n = 0 }

(* True when a commit landed since the last poll. *)
let poll t =
  let v = System.version t.sys in
  if v = t.version then false
  else begin
    t.version <- v;
    (match Manager.last_report (System.manager t.sys) with
    | Some r ->
      t.reports <- r :: t.reports;
      t.n <- t.n + 1
    | None -> ());
    true
  end

let count t = t.n

(* The reports of several systems, for metrics over all of them. *)
let merge = function
  | [] -> invalid_arg "Commits.merge"
  | t :: _ as l ->
    {
      t with
      reports = List.concat_map (fun t -> t.reports) l;
      n = List.fold_left (fun acc t -> acc + t.n) 0 l;
    }

(* The STW percentiles want at least 1000 commits; fewer is a sizing
   problem of the window, not a wrong output. *)
let warn_if_few t =
  if count t < 1000 then Printf.eprintf "perfbench: only %d commits in the window\n%!" (count t)

(* Every report's per-subtree costs sum exactly to its captree time, and
   its STW components tile its pause exactly: quiesce/resume, then the
   leader's walk overlapped with the other cores' hybrid copy (the pause
   waits for the slower), then the commit. *)
let check t =
  List.iter
    (fun (r : Report.t) ->
      let groups = List.fold_left (fun acc (_, g) -> acc + g.Report.g_ns) 0 r.Report.per_group in
      if groups <> r.Report.captree_ns then
        failwith
          (Printf.sprintf "version %d: per-group sum %d <> captree_ns %d" r.Report.version groups
             r.Report.captree_ns);
      let parts =
        r.Report.ipi_ns + max r.Report.captree_ns r.Report.hybrid_ns + r.Report.others_ns
      in
      if parts <> r.Report.stw_ns then
        failwith
          (Printf.sprintf "version %d: ipi+max(captree,hybrid)+others %d <> stw_ns %d"
             r.Report.version parts r.Report.stw_ns))
    t.reports

let us ns = float_of_int ns /. 1000.0

(* Simulated-clock metrics of the collected commits.  [stw] holds the
   end-to-end pair; the rest is the per-layer breakdown. *)
let stw_metrics t =
  let s = Samples.create () in
  List.iter (fun (r : Report.t) -> Samples.add s r.Report.stw_ns) t.reports;
  [ ("stw_p50_us", us (Samples.percentile s 50.0)); ("stw_tail_us", us (Samples.tail s)) ]

let sum f t = List.fold_left (fun acc r -> acc + f r) 0 t.reports

let waf t =
  let logical = sum (fun r -> r.Report.logical_dirty_bytes) t in
  float_of_int (sum (fun r -> r.Report.nvm_bytes_written) t) /. float_of_int (max 1 logical)

let layer_metrics t =
  let n = float_of_int (max 1 (count t)) in
  let mean f = float_of_int (sum f t) /. n in
  let walked = sum (fun r -> r.Report.objects_walked) t in
  let skipped = sum (fun r -> r.Report.objects_skipped) t in
  [
    ("ckpt.commits", float_of_int (count t));
    ("ckpt.captree_us", mean (fun r -> r.Report.captree_ns) /. 1000.0);
    ("ckpt.hybrid_us", mean (fun r -> r.Report.hybrid_ns) /. 1000.0);
    ("ckpt.ipi_us", mean (fun r -> r.Report.ipi_ns) /. 1000.0);
    ("ckpt.others_us", mean (fun r -> r.Report.others_ns) /. 1000.0);
    ("ckpt.objects_walked", mean (fun r -> r.Report.objects_walked));
    ("ckpt.objects_skipped", mean (fun r -> r.Report.objects_skipped));
    ("ckpt.walk_ratio", float_of_int walked /. float_of_int (max 1 (walked + skipped)));
    ("ckpt.pages_protected", mean (fun r -> r.Report.pages_protected));
    ("ckpt.dram_dirty_copied", mean (fun r -> r.Report.dram_dirty_copied));
    ("ckpt.migrated_in", mean (fun r -> r.Report.migrated_in));
    ("ckpt.migrated_out", mean (fun r -> r.Report.migrated_out));
    ("ckpt.cached_pages", mean (fun r -> r.Report.cached_pages));
    ("ckpt.pages_drained", mean (fun r -> r.Report.pages_drained));
    ("ckpt.cow_faults", mean (fun r -> r.Report.cow_faults));
    ("ckpt.drain_us", mean (fun r -> r.Report.drain_ns) /. 1000.0);
    ("ckpt.snapshot_bytes", mean (fun r -> r.Report.snapshot_bytes));
  ]
