module Kobj = Treesls_cap.Kobj
module Radix = Treesls_cap.Radix
module Kernel = Treesls_kernel.Kernel
module Pagetable = Treesls_kernel.Pagetable
module Store = Treesls_nvm.Store
module Paddr = Treesls_nvm.Paddr
module Global_meta = Treesls_nvm.Global_meta
module Crash_site = Treesls_nvm.Crash_site
module Cost = Treesls_sim.Cost
module Clock = Treesls_sim.Clock
module Stats = Treesls_util.Stats
module Id_gen = Treesls_cap.Id_gen
module Probe = Treesls_obs.Probe

let now st = Clock.now (Kernel.clock st.State.kernel)
let probe st = Kernel.probe st.State.kernel
let wearmap st = Probe.wearmap (probe st)
let hit st site = Crash_site.hit (Store.crash_sites (Kernel.store st.State.kernel)) site

let archive_page st pmo pno paddr =
  match st.State.page_archive_hook with Some h -> h pmo pno paddr | None -> ()

(* Charge the cost of copying one object's own state into its backup. A
   full (first-time) checkpoint additionally pays allocation and structure
   construction, which is what separates the Full and Incr columns of
   Table 3. *)
let charge_object_copy st obj ~full =
  let store = Kernel.store st.State.kernel in
  let c = Store.cost store in
  let bytes = Kobj.copy_bytes obj in
  let copy = Cost.object_copy_ns c ~to_nvm:true ~bytes_len:bytes in
  if full then Store.charge store (c.Cost.alloc_small_ns + (3 * copy))
  else Store.charge store copy

(* Checkpoint one object (step 2). Returns true if it was a full (first)
   checkpoint. *)
let checkpoint_object st obj ~new_ver =
  let kernel = st.State.kernel in
  let store = Kernel.store kernel in
  let c = Store.cost store in
  let oroot, full = State.oroot_for st obj ~version:new_ver in
  oroot.Oroot.last_seen_ver <- new_ver;
  oroot.Oroot.runtime <- Some obj;
  oroot.Oroot.saved_gen <- Kobj.gen obj;
  charge_object_copy st obj ~full;
  let snap = Snapshot.take obj in
  Oroot.save oroot ~version:new_ver snap;
  (* the snapshot lands in the ORoot's NVM slot: physical bytes, but no
     single device page backs the (modeled) object store *)
  Treesls_obs.Wearmap.note (wearmap st) ~subsystem:"ckpt.snapshot" ~bytes:(Snapshot.bytes snap);
  (match obj with
  | Kobj.Pmo pmo when pmo.Kobj.pmo_kind = Kobj.Pmo_normal ->
    let pages = Oroot.pages_exn oroot in
    if full then
      (* First checkpoint of this PMO: build a checkpointed-page record
         for every present page. Dominates full-PMO checkpoint time. *)
      Radix.iter
        (fun pno paddr ->
          ignore (Ckpt_page.ensure store pages ~pno ~born_ver:new_ver);
          archive_page st pmo pno paddr)
        pmo.Kobj.pmo_radix
    else
      List.iter
        (fun pno -> ignore (Ckpt_page.ensure store pages ~pno ~born_ver:new_ver))
        (State.drain_fresh st pmo)
  | Kobj.Pmo _ | Kobj.Cap_group _ | Kobj.Thread _ | Kobj.Vmspace _ | Kobj.Ipc_conn _
  | Kobj.Notification _ | Kobj.Irq_notification _ -> ());
  (match obj with
  | Kobj.Vmspace vms when st.State.features.State.track_dirty ->
    (* Re-arm copy-on-write: mark pages dirtied since the last checkpoint
       read-only again. DRAM-cached pages stay writable — they are covered
       by stop-and-copy, and leaving them writable is precisely how hybrid
       copy eliminates their faults. *)
    Option.iter
      (fun pt ->
        ignore
          (Pagetable.protect_dirty pt (fun pte ->
               let pg = pte.Pagetable.page in
               archive_page st pg.Pagetable.pmo pg.Pagetable.pno pte.Pagetable.paddr;
               if Paddr.is_dram pte.Pagetable.paddr then false
               else begin
                 Store.charge store c.Cost.mark_ro_ns;
                 (* clear the hardware dirty bit along with re-protection:
                    the page is now exactly as cold as its checkpoint *)
                 Pagetable.clean pte;
                 true
               end)))
      (Kernel.pagetable kernel vms)
  | Kobj.Vmspace _ | Kobj.Cap_group _ | Kobj.Thread _ | Kobj.Pmo _ | Kobj.Ipc_conn _
  | Kobj.Notification _ | Kobj.Irq_notification _ -> ());
  (full, Snapshot.bytes snap)

(* The asynchronous drain rides on the hybrid/CoW machinery: without dirty
   tracking, fault backups and the active list there is nothing to defer,
   so a [Lazy] policy silently degrades to eager capture. *)
let async_on st =
  let f = st.State.features in
  (match f.State.drain with Drain.Lazy _ -> true | Drain.Eager -> false)
  && f.State.track_dirty && f.State.copy_on_fault && f.State.hybrid

(* Step 3: one core's traversal of its sub-list of the active page list. *)
let hybrid_sublist st ~new_ver entries counters =
  let kernel = st.State.kernel in
  let store = Kernel.store kernel in
  let dirty_copied, migrated_in, migrated_out = counters in
  List.iter
    (fun (pg : Active_list.entry) ->
      let pmo = pg.Pagetable.pmo and pno = pg.Pagetable.pno in
      (* every live PMO has its ORoot by now (the walk ran first); a PMO
         without one left the tree and its ORoot was collected *)
      let oroot = Hashtbl.find_opt st.State.oroots pmo.Kobj.pmo_id in
      match (Radix.get pmo.Kobj.pmo_radix pno, oroot) with
      | None, _ | _, None -> Active_list.drop st.State.active pg
      | Some runtime, Some oroot ->
        if not pg.Pagetable.dram then begin
          (* newly appended: NVM -> DRAM migration (swapped-out pages wait
             until a fault brings them back to NVM) *)
          if not (Paddr.is_nvm runtime) then ()
          else
          match Store.alloc_dram_page store with
          | None -> () (* DRAM cache full; stay on NVM *)
          | Some dram ->
            let pages = Oroot.pages_exn oroot in
            ignore (Ckpt_page.ensure store pages ~pno ~born_ver:new_ver);
            Store.copy_page store ~src:runtime ~dst:dram;
            Pagetable.remap_page pg dram;
            (* The old NVM runtime page becomes the latest backup. *)
            (match Ckpt_page.find pages pno with
            | Some cp when cp.Ckpt_page.b2 = None ->
              Ckpt_page.attach_runtime_as_backup pages ~pno ~old_runtime:runtime ~new_ver;
              Store.seal_page store runtime;
              (* CPP needs both backups: materialise b1 now if absent. *)
              (match cp.Ckpt_page.b1 with
              | Some _ -> ()
              | None ->
                let b1 = Store.alloc_page store in
                Store.copy_page store ~src:dram ~dst:b1;
                Store.seal_page store b1;
                cp.Ckpt_page.b1 <- Some b1;
                cp.Ckpt_page.b1_ver <- new_ver)
            | Some _ | None ->
              (* unexpected CPP state: undo the migration and retire the
                 entry — leaving it live would retry (and fail) the same
                 migration on every checkpoint *)
              Pagetable.remap_page pg runtime;
              Store.free_dram_page store dram;
              Active_list.drop st.State.active pg);
            (match Radix.get pmo.Kobj.pmo_radix pno with
            | Some p when Paddr.is_dram p ->
              pg.Pagetable.dram <- true;
              pg.Pagetable.idle <- 0;
              Pagetable.clear_page_dirty pg;
              incr migrated_in;
              hit st "ckpt.hybrid.migrated_in"
            | Some _ | None -> ())
        end
        else begin
          let pages = Oroot.pages_exn oroot in
          if Pagetable.page_dirty pg then begin
            archive_page st pmo pno runtime;
            Pagetable.clear_page_dirty pg;
            pg.Pagetable.idle <- 0;
            if async_on st then begin
              (* async drain: capture the page logically now — protect it
                 and flip the dirty bookkeeping as the eager copy would —
                 but owe the copy itself to the backlog.  A write landing
                 before the drain reaches it faults into [cow_fault] and
                 pays exactly one page. *)
              List.iter Pagetable.protect pg.Pagetable.maps;
              Store.charge store (Store.cost store).Cost.mark_ro_ns;
              Drain.enqueue st.State.drain pg
            end
            else begin
              (* dirty DRAM page: stop-and-copy into the stale backup *)
              Ckpt_page.stop_and_copy_dram store pages ~runtime ~pno ~new_ver;
              incr dirty_copied;
              hit st "ckpt.hybrid.copied"
            end
          end
          else begin
            pg.Pagetable.idle <- pg.Pagetable.idle + 1;
            if pg.Pagetable.idle > (Active_list.config st.State.active).Active_list.idle_limit
            then begin
              (* cold: DRAM -> NVM demotion *)
              let nvm_page = Ckpt_page.detach_runtime_slot store pages ~pno ~latest:(Some runtime) in
              Pagetable.remap_page pg nvm_page;
              (* back on NVM: resume copy-on-write tracking *)
              List.iter Pagetable.protect pg.Pagetable.maps;
              Store.free_dram_page store runtime;
              pg.Pagetable.dram <- false;
              Active_list.drop st.State.active pg;
              incr migrated_out;
              hit st "ckpt.hybrid.migrated_out"
            end
          end
        end)
    entries

(* THE atomic commit: bump the version, then collect dead ORoots.  An
   ORoot is dead when its object left the tree.  Objects only leave
   through an edge change, which makes the next walk rebuild the live
   index, so only a commit whose walk rebuilt it ([live]) can find any. *)
let commit_version st live =
  Global_meta.commit_checkpoint (Store.meta (Kernel.store st.State.kernel));
  hit st "ckpt.version_bump";
  Option.iter (fun index -> ignore (State.gc_dead_oroots st ~live:(Live_index.is_live index))) live;
  hit st "ckpt.gc_done"

(* The commit probes ([finish_commit]): counters/gauges for the committed
   version, wear telemetry, then the black-box sample last — it snapshots
   the whole registry and fires the SLO watchdog + adaptive-interval hook. *)
let emit_commit_probes st (r : Report.t) =
  let store = Kernel.store st.State.kernel in
  let p = probe st in
  Probe.count p "ckpt.runs" 1;
  Probe.count p "ckpt.objects_walked" r.Report.objects_walked;
  Probe.count p "ckpt.objects_skipped" r.Report.objects_skipped;
  Probe.count p "ckpt.full_objects" r.Report.full_objects;
  Probe.gauge p "ckpt.dirty_fraction_pct"
    (100 * r.Report.objects_walked / max 1 (r.Report.objects_walked + r.Report.objects_skipped));
  Probe.count p "ckpt.pages.protected" r.Report.pages_protected;
  Probe.count p "ckpt.pages.dirty_copied" r.Report.dram_dirty_copied;
  Probe.count p "ckpt.pages.migrated_in" r.Report.migrated_in;
  Probe.count p "ckpt.pages.migrated_out" r.Report.migrated_out;
  Probe.gauge p "ckpt.cached_pages" r.Report.cached_pages;
  Probe.gauge p "ckpt.version" r.Report.version;
  Probe.observe p "ckpt.stw_ns" r.Report.stw_ns;
  Probe.observe p "ckpt.captree_ns" r.Report.captree_ns;
  Probe.observe p "ckpt.hybrid_ns" r.Report.hybrid_ns;
  Probe.observe p "ckpt.others_ns" r.Report.others_ns;
  (* drain telemetry: the per-window backlog (0 when eager, so the gauge —
     and its tseries column — exists in both modes), the total protection
     flips the window rode on, and the resolved copy/fault counts *)
  Probe.gauge p "ckpt.drain.backlog" r.Report.pages_drained;
  Probe.gauge p "ckpt.pages.protected.last" (r.Report.pages_protected + r.Report.pages_drained);
  if r.Report.pages_drained > 0 then Probe.count p "ckpt.drain.pages" r.Report.pages_drained;
  if r.Report.cow_faults > 0 then Probe.count p "ckpt.drain.cow_faults" r.Report.cow_faults;
  if r.Report.drain_ns > 0 then Probe.observe p "ckpt.drain_ns" r.Report.drain_ns;
  (* wear telemetry: WAF ×100 (integer gauge), per-subsystem cumulative
     bytes, device materialisation watermarks, and — with tracing on — a
     Perfetto counter-track sample of the same per-subsystem series *)
  Probe.gauge p "ckpt.nvm.waf"
    (100 * r.Report.nvm_bytes_written / max 1 r.Report.logical_dirty_bytes);
  Probe.count p "ckpt.nvm.bytes" r.Report.nvm_bytes_written;
  List.iter
    (fun (name, _writes, bytes) -> Probe.gauge p ("nvm.bytes_written." ^ name) bytes)
    (Treesls_obs.Wearmap.subsystems (Probe.wearmap p));
  Probe.gauge p "nvm.pages_touched" (Store.nvm_pages_touched store);
  Probe.gauge p "dram.pages_touched" (Store.dram_pages_touched store);
  Probe.wear_counter_sample p;
  (* black-box sample last, once every post-commit gauge above is in the
     registry: one tseries sample per committed version, then the SLO
     watchdog and the adaptive-interval feedback hook *)
  Probe.tseries_sample p ~version:r.Report.version ~stw_ns:r.Report.stw_ns
    ~interval_ns:st.State.interval_ns

(* Everything downstream of a commit, shared by the eager commit inside
   [run] and the drain settle.  The commit and its STW window are recorded
   first, so the extsync callbacks can attribute each released reply to
   this version (and bind flow arrows to its ckpt.stw slice).  Then the
   write amplification: physical NVM bytes landed since the previous
   commit (wearmap delta — app data, CoW backups, hybrid and drain copies,
   snapshots, journal, meta) over the application-level dirty delta (dirty
   pages x page size, identical whatever the walk strategy or policy). *)
let finish_commit st (r : Report.t) ~stw_t0 ~stw_t1 =
  Probe.ckpt_committed (probe st) ~version:r.Report.version ~stw_t0 ~stw_t1;
  List.iter (fun cb -> cb ()) st.State.ckpt_callbacks;
  let wear_now = Treesls_obs.Wearmap.total_bytes (wearmap st) in
  let nvm_bytes_written = wear_now - st.State.wear_mark in
  st.State.wear_mark <- wear_now;
  let logical_dirty_bytes =
    (Kernel.cost st.State.kernel).Cost.page_size
    * (r.Report.pages_protected + r.Report.dram_dirty_copied + r.Report.pages_drained)
  in
  let report = { r with Report.nvm_bytes_written; logical_dirty_bytes } in
  st.State.last_report <- Some report;
  emit_commit_probes st report;
  report

(* The page's checkpoint record, with its runtime frame: [None] for a page
   outside checkpoint management (unmanaged PMO, unbacked page, no record). *)
let page_record st pmo pno =
  match Hashtbl.find_opt st.State.oroots pmo.Kobj.pmo_id with
  | None -> None
  | Some oroot -> (
    match (oroot.Oroot.pages, Radix.get pmo.Kobj.pmo_radix pno) with
    | Some pages, Some runtime ->
      Option.map (fun cp -> (pages, cp, runtime)) (Ckpt_page.find pages pno)
    | (Some _ | None), _ -> None)

(* Pay one owed copy: stop-and-copy the backlogged DRAM page into its
   stale CPP slot for the staged version and reopen it for writing.  False
   when the page vanished or left DRAM since the STW: no copy is owed. *)
let pay_owed st (p : Drain.pending) (pg : Pagetable.page) =
  match page_record st pg.Pagetable.pmo pg.Pagetable.pno with
  | Some (pages, _, runtime) when Paddr.is_dram runtime ->
    Ckpt_page.stop_and_copy_dram (Kernel.store st.State.kernel) pages ~runtime
      ~pno:pg.Pagetable.pno ~new_ver:p.Drain.p_ver;
    List.iter Pagetable.unprotect pg.Pagetable.maps;
    p.Drain.p_drained <- p.Drain.p_drained + 1;
    true
  | Some _ | None -> false

(* Copy up to [limit] backlog pages into their stale CPP slots on the
   follower cores (metered — the shared clock does not advance; ops running
   meanwhile only pay for pages they fault on). *)
let drain_copies st (p : Drain.pending) ~limit =
  let store = Kernel.store st.State.kernel in
  let drain = st.State.drain in
  let copied = ref 0 in
  let meter = ref 0 in
  Treesls_obs.Wearmap.with_writer (wearmap st) "ckpt.drain" (fun () ->
      Store.with_sink store (Store.Meter meter) (fun () ->
          let exhausted = ref false in
          while (not !exhausted) && !copied < limit do
            match Drain.pop drain with
            | None -> exhausted := true
            | Some e ->
              if pay_owed st p e then begin
                incr copied;
                hit st "ckpt.drain.copied"
              end
          done));
  p.Drain.p_drain_ns <- p.Drain.p_drain_ns + !meter;
  !copied

(* The settle step: the backlog is empty — apply the CoW restamps and
   drain-saved frames, commit the version deferred from the STW, and
   release everything that waited on durability ([finish_commit]). *)
let settle_commit st (p : Drain.pending) =
  let store = Kernel.store st.State.kernel in
  let drain = st.State.drain in
  let meter = ref 0 in
  Treesls_obs.Wearmap.with_writer (wearmap st) "ckpt.drain" (fun () ->
      Store.with_sink store (Store.Meter meter) (fun () ->
          Drain.apply_settle store drain ~ver:p.Drain.p_ver));
  p.Drain.p_drain_ns <- p.Drain.p_drain_ns + !meter;
  hit st "ckpt.drain.settled";
  commit_version st p.Drain.p_live;
  Drain.clear_pending drain;
  Probe.span_at (probe st) "ckpt.drain" ~ts_ns:p.Drain.p_stw_t1 ~dur_ns:(now st - p.Drain.p_stw_t1)
    ~args:
      [
        ("version", string_of_int p.Drain.p_ver);
        ("deferred", string_of_int p.Drain.p_enqueued);
        ("drained", string_of_int p.Drain.p_drained);
        ("cow_faults", string_of_int p.Drain.p_cow_faults);
      ];
  (* replies released at the commit attribute to the STW window that
     staged them *)
  ignore
    (finish_commit st
       {
         p.Drain.p_report with
         Report.pages_drained = p.Drain.p_drained;
         cow_faults = p.Drain.p_cow_faults;
         drain_ns = p.Drain.p_drain_ns;
       }
       ~stw_t0:p.Drain.p_stw_t0 ~stw_t1:p.Drain.p_stw_t1)

(* Copy up to [limit] backlog pages of the pending window, if any, and
   settle it once the backlog is empty.  Returns pages copied. *)
let drain_up_to st ~limit =
  match Drain.pending st.State.drain with
  | None -> 0
  | Some p ->
    let n = drain_copies st p ~limit in
    if Drain.backlog st.State.drain = 0 then settle_commit st p;
    n

(* One asynchronous drain step, called between operations (System.tick):
   [Lazy n] copies [n] backlog pages per step ([Lazy max_int] empties it
   at the first opportunity).  [run] force-settles any window still
   pending before the next capture — one staged version in flight, ever. *)
let drain_step st =
  drain_up_to st
    ~limit:(match st.State.features.State.drain with Drain.Lazy n -> n | Drain.Eager -> max_int)

let settle st = ignore (drain_up_to st ~limit:max_int)

(* Bank what a write to a protected page would destroy before it lands.
   With no drain window pending the committed version is the only restore
   target and the pre-image is its backup.  Inside a window (staged version
   N over committed N-1) the fault must keep both versions restorable. *)
let bank_fault_backup st (pg : Pagetable.page) =
  let pmo = pg.Pagetable.pmo and pno = pg.Pagetable.pno in
  let store = Kernel.store st.State.kernel in
  let committed = Global_meta.version (Store.meta store) in
  match Drain.pending st.State.drain with
  | None -> (
    match page_record st pmo pno with
    | Some (_, cp, _) when cp.Ckpt_page.born_ver > committed -> ()
    | Some (pages, _, runtime) ->
      ignore (Ckpt_page.cow_backup store pages ~runtime ~pno ~global:committed)
    | None -> ())
  | Some p -> (
    let key = (pmo.Kobj.pmo_id, pno) in
    let resolved () =
      p.Drain.p_cow_faults <- p.Drain.p_cow_faults + 1;
      hit st "ckpt.cow_fault.resolved"
    in
    if Drain.take st.State.drain pg then begin
      (* backlogged DRAM page: pay its owed copy right now — the faulting
         op pays one page and the page reopens for writing *)
      if Treesls_obs.Wearmap.with_writer (wearmap st) "ckpt.cow_fault" (fun () -> pay_owed st p pg)
      then resolved ()
    end
    else (
      (* NVM page protected at the STW: its backup must serve two masters —
         a crash mid-window restores to N-1, a settled window to N. *)
      match page_record st pmo pno with
      | Some (pages, cp, runtime) when Paddr.is_nvm runtime ->
        Treesls_obs.Wearmap.with_writer (wearmap st) "ckpt.cow_fault" (fun () ->
            if Ckpt_page.cow_backup store pages ~runtime ~pno ~global:committed then begin
              (* clean at N: the pre-image just banked equals the page's
                 content at both N-1 and N, so settle lifts the stamp to
                 N without another copy *)
              Drain.note_restamp st.State.drain key cp;
              resolved ()
            end
            else if
              (cp.Ckpt_page.b1_ver = committed && cp.Ckpt_page.b1 <> None)
              || (cp.Ckpt_page.b2_ver = committed && cp.Ckpt_page.b2 <> None)
            then begin
              (* dirty at N (a backup stamped N-1 already exists): the
                 runtime holds the only copy of the staged content — save
                 it to a fresh frame before the write lands; settle
                 installs the frame as the N backup, a crash frees it *)
              let frame = Store.alloc_page store in
              Store.copy_page store ~src:runtime ~dst:frame;
              Store.seal_page store frame;
              Drain.note_saved st.State.drain key cp frame;
              resolved ()
            end)
      | Some _ | None -> ()))

(* Step 6 of Figure 5, the kernel's write-fault hook on a protected page:
   the copy-on-write backup, then hotness tracking for hybrid copy. *)
let cow_fault st pg =
  let f = st.State.features in
  if f.State.copy_on_fault then bank_fault_backup st pg;
  if f.State.hybrid then Active_list.record_fault st.State.active pg

let run st =
  (* one staged version in flight, ever: a window still draining must
     finish (deadline semantics) before the next capture starts *)
  settle st;
  let kernel = st.State.kernel in
  let store = Kernel.store kernel in
  let meta = Store.meta store in
  let new_ver = Global_meta.version meta + 1 in
  let obs = probe st in
  let t0 = now st in
  let stw_tok = Probe.enter obs "ckpt.stw" ~args:[ ("version", string_of_int new_ver) ] in
  (* step 1: quiesce *)
  let quiesce_tok = Probe.enter obs "ckpt.quiesce" in
  let ipi_ns = Kernel.quiesce kernel in
  Probe.exit obs quiesce_tok;
  Global_meta.begin_checkpoint meta;
  hit st "ckpt.begin";
  (* step 2: leader walks the capability tree *)
  let walk_tok = Probe.enter obs "ckpt.captree" in
  let walk0 = now st in
  let per_kind = Hashtbl.create 8 in
  (* group name -> (ns, objects, per-kind ns) *)
  let per_group : (string, int ref * int ref * (Kobj.kind, int) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let objects = ref 0 and fulls = ref 0 and snap_bytes = ref 0 in
  let protected_before =
    List.fold_left
      (fun acc p -> acc + Pagetable.dirty_count p.Kernel.pt)
      0 (Kernel.processes kernel)
  in
  (* Dirty-set walk.  The live index (live set, DFS order, owners) is
     rebuilt by one traversal only when the tree's edges changed since it
     was built, or after boot and restore; otherwise the candidates are the
     kernel's dirty set restricted to live objects, in cached DFS order.
     Eager walks (the ablation, and the resync after boot/restore) and
     rebuild commits seed the candidates with every live object.  Either
     way an object whose generation still matches the one recorded at its
     last checkpoint is skipped: its backups are already current.  All of
     this is host-side bookkeeping; the simulated cost is the per-object
     copy charge of the objects actually checkpointed. *)
  let log = Kernel.log kernel in
  let index, rebuilt =
    match st.State.index with
    | Some index when (not st.State.force_full) && Live_index.epoch index = Kobj.edge_epoch log ->
      (index, false)
    | Some _ | None ->
      let index = Live_index.build kernel in
      st.State.index <- Some index;
      (index, true)
  in
  let incremental = st.State.features.State.incremental_walk && not st.State.force_full in
  let visit obj =
    let clean =
      incremental
      &&
      match Hashtbl.find_opt st.State.oroots (Kobj.id obj) with
      | Some o -> o.Oroot.saved_gen = Kobj.gen obj
      | None -> false
    in
    if not clean then begin
      let t_obj0 = now st in
      let full, bytes = checkpoint_object st obj ~new_ver in
      hit st "ckpt.captree.obj";
      let dt = now st - t_obj0 in
      incr objects;
      if full then incr fulls;
      snap_bytes := !snap_bytes + bytes;
      let kind = Kobj.kind obj in
      Hashtbl.replace per_kind kind (dt + Option.value ~default:0 (Hashtbl.find_opt per_kind kind));
      let gname = Live_index.owner index (Kobj.id obj) in
      Probe.instant_v obs "ckpt.obj"
        ~args:[ ("id", string_of_int (Kobj.id obj)); ("group", gname) ];
      let g_ns, g_objs, g_kinds =
        match Hashtbl.find_opt per_group gname with
        | Some g -> g
        | None ->
          let g = (ref 0, ref 0, Hashtbl.create 8) in
          Hashtbl.add per_group gname g;
          g
      in
      g_ns := !g_ns + dt;
      incr g_objs;
      Hashtbl.replace g_kinds kind (dt + Option.value ~default:0 (Hashtbl.find_opt g_kinds kind));
      let cost_stats = State.obj_cost st kind in
      Stats.add (if full then cost_stats.State.full else cost_stats.State.incr) (float_of_int dt)
    end
  in
  Treesls_obs.Wearmap.with_writer (wearmap st) "ckpt.captree" (fun () ->
      if incremental && not rebuilt then List.iter visit (Live_index.live_dirty index log)
      else Array.iter visit (Live_index.order index));
  (* cleared only once the walk is through: a walk cut short by a crash
     site leaves the set whole *)
  Kobj.clear_dirty log;
  let skipped = Live_index.size index - !objects in
  st.State.force_full <- false;
  let walk_ns = now st - walk0 in
  Probe.exit obs walk_tok
    ~args:
      [
        ("objects", string_of_int !objects);
        ("full", string_of_int !fulls);
        ("skipped", string_of_int skipped);
        ("snapshot_bytes", string_of_int !snap_bytes);
      ];
  hit st "ckpt.captree.done";
  (* step 3: parallel hybrid copy by the other cores *)
  let dirty_copied = ref 0 and migrated_in = ref 0 and migrated_out = ref 0 in
  let hybrid_ns =
    if st.State.features.State.hybrid then begin
      let cores = max 1 (Kernel.ncores kernel - 1) in
      let sublists = Active_list.sublists st.State.active ~cores in
      let worst = ref 0 in
      Array.iter
        (fun entries ->
          let meter = ref 0 in
          Treesls_obs.Wearmap.with_writer (wearmap st) "ckpt.hybrid" (fun () ->
              Store.with_sink store (Store.Meter meter) (fun () ->
                  hybrid_sublist st ~new_ver entries (dirty_copied, migrated_in, migrated_out)));
          if !meter > !worst then worst := !meter)
        sublists;
      Active_list.compact st.State.active;
      !worst
    end
    else 0
  in
  (* the pause lasts until both the leader and the slowest core finish *)
  if hybrid_ns > walk_ns then Clock.advance (Kernel.clock kernel) (hybrid_ns - walk_ns);
  (* The hybrid copy ran on the other cores in parallel with the leader's
     walk: record it with explicit timestamps, overlapping ckpt.captree. *)
  if st.State.features.State.hybrid then
    Probe.span_at obs "ckpt.hybrid_copy" ~ts_ns:walk0 ~dur_ns:hybrid_ns
      ~args:
        [
          ("dirty_copied", string_of_int !dirty_copied);
          ("migrated_in", string_of_int !migrated_in);
          ("migrated_out", string_of_int !migrated_out);
        ];
  (* step 4: atomic commit — or, with the drain on, staging *)
  let others_tok = Probe.enter obs "ckpt.others" in
  let others0 = now st in
  (* The id high-water mark is part of the staged state: it must be in
     place BEFORE the version bump, or a crash right after the bump would
     restore with a stale mark and recycle ids still owned by restored
     objects. A crash before the bump leaves it too high for the rolled
     back version, which only costs id-space gaps. *)
  st.State.ids_hwm <- Id_gen.current (Kernel.ids kernel);
  (* Everything is staged.  With an empty backlog the version bump below
     is THE atomic commit; with deferred copies outstanding the bump (and
     with it the GC, the extsync callbacks, wear accounting and the
     black-box sample) waits in [settle_commit] until the drain empties —
     a mid-window crash rolls back to the still-committed N-1. *)
  hit st "ckpt.publish";
  let enqueued = Drain.backlog st.State.drain in
  let live = if rebuilt then Some index else None in
  if enqueued = 0 then commit_version st live;
  Store.charge store (Store.cost store).Cost.tlb_shootdown_ns;
  let others_ns = now st - others0 in
  Probe.exit obs others_tok;
  (* step 5: resume *)
  let resume_tok = Probe.enter obs "ckpt.resume" in
  let resume_ns = Kernel.resume_cores kernel in
  Probe.exit obs resume_tok;
  let stw_ns = now st - t0 in
  Probe.exit obs stw_tok ~args:[ ("stw_ns", string_of_int stw_ns) ];
  let report =
    {
      Report.version = new_ver;
      stw_ns;
      ipi_ns = ipi_ns + resume_ns;
      captree_ns = walk_ns;
      others_ns;
      hybrid_ns;
      per_kind_ns = Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_kind [];
      per_group =
        Hashtbl.fold
          (fun name (g_ns, g_objs, g_kinds) acc ->
            ( name,
              {
                Report.g_ns = !g_ns;
                g_objects = !g_objs;
                g_kinds = Hashtbl.fold (fun k v acc -> (k, v) :: acc) g_kinds [];
              } )
            :: acc)
          per_group [];
      objects_walked = !objects;
      full_objects = !fulls;
      objects_skipped = skipped;
      pages_protected = protected_before;
      dram_dirty_copied = !dirty_copied;
      migrated_in = !migrated_in;
      migrated_out = !migrated_out;
      cached_pages = Active_list.cached_count st.State.active;
      snapshot_bytes = !snap_bytes;
      nvm_bytes_written = 0;
      logical_dirty_bytes = 0;
      pages_drained = 0;
      cow_faults = 0;
      drain_ns = 0;
    }
  in
  if enqueued = 0 then finish_commit st report ~stw_t0:t0 ~stw_t1:(t0 + stw_ns)
  else begin
    (* async: the STW only staged version N.  Publish the window — the
       drain ([drain_step]/[settle]) owes [enqueued] copies, and the
       durability point with everything downstream of it moves to
       [settle_commit].  The partial report carries the STW-side truth;
       wear/WAF and drain fields are finalised at settle. *)
    Probe.gauge obs "ckpt.drain.backlog" enqueued;
    Drain.publish st.State.drain
      {
        Drain.p_ver = new_ver;
        p_live = live;
        p_stw_t0 = t0;
        p_stw_t1 = t0 + stw_ns;
        p_enqueued = enqueued;
        p_report = report;
        p_drained = 0;
        p_cow_faults = 0;
        p_drain_ns = 0;
      };
    st.State.last_report <- Some report;
    report
  end
