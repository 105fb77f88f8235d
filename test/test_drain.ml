(* Asynchronous checkpoint drain (DESIGN.md §16): unit tests for the
   [Lazy n] drain state machine (batched and [Lazy max_int]), CoW-fault
   resolution against a pending backlog, mid-drain crash recovery, boot-time
   policy validation, and a property test that a system checkpointed with
   the async drain restores byte-identically to an eager twin driven by the
   same trace — under arbitrary interleavings of app writes and drain
   steps. *)

module System = Treesls.System
module Kernel = Treesls_kernel.Kernel
module Ipc = Treesls_kernel.Ipc
module Manager = Treesls_ckpt.Manager
module State = Treesls_ckpt.State
module Checkpoint = Treesls_ckpt.Checkpoint
module Drain = Treesls_ckpt.Drain
module Active_list = Treesls_ckpt.Active_list
module Snapshot = Treesls_ckpt.Snapshot
module Report = Treesls_ckpt.Report
module Audit = Treesls_audit.Audit
module Kobj = Treesls_cap.Kobj
module Radix = Treesls_cap.Radix
module Store = Treesls_nvm.Store
module Rng = Treesls_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let boot_with drain = System.boot ~features:{ (State.default_features ()) with State.drain } ()

(* Build [n] DRAM-cached heap pages that are dirty right now, so the next
   checkpoint has exactly [n] hybrid-copy candidates: fault each page onto
   the active list, checkpoint (migrates them into the DRAM cache), then
   re-dirty them. *)
let make_hot_pages sys n =
  let k = System.kernel sys in
  let st = Manager.state (System.manager sys) in
  let p = Kernel.create_process k ~name:"hot" ~threads:1 ~prio:5 in
  let vpn0 = Kernel.grow_heap k p ~pages:n in
  for i = 0 to n - 1 do
    Kernel.touch_write k p ~vpn:(vpn0 + i)
  done;
  ignore (System.checkpoint sys);
  System.drain_settle sys;
  let al = st.State.active in
  for i = 0 to n - 1 do
    let pte = Option.get (Treesls_kernel.Pagetable.lookup p.Kernel.pt ~vpn:(vpn0 + i)) in
    for _ = 1 to (Active_list.config al).Active_list.hot_threshold do
      Active_list.record_fault al pte.Treesls_kernel.Pagetable.page
    done
  done;
  ignore (System.checkpoint sys);
  System.drain_settle sys;
  for i = 0 to n - 1 do
    Kernel.touch_write k p ~vpn:(vpn0 + i)
  done;
  (p, vpn0)

(* ---- the lazy drain window: stage, step, settle ---- *)

let lazy_staging () =
  let sys = boot_with (Drain.Lazy 2) in
  ignore (make_hot_pages sys 5);
  let v0 = System.version sys in
  let r = System.checkpoint sys in
  check_int "version not bumped at the STW" v0 (System.version sys);
  check_int "backlog = dirty cached pages" 5 (System.drain_backlog sys);
  check_int "nothing stop-and-copied inside the pause" 0 r.Report.dram_dirty_copied;
  check_int "staged report has no drained pages yet" 0 r.Report.pages_drained;
  check_int "first step copies one batch" 2 (Manager.drain_step (System.manager sys));
  check_int "backlog shrinks by the batch" 3 (System.drain_backlog sys);
  check_int "still not committed" v0 (System.version sys);
  ignore (Manager.drain_step (System.manager sys));
  ignore (Manager.drain_step (System.manager sys));
  check_int "backlog empty" 0 (System.drain_backlog sys);
  check_int "settle committed exactly one version" (v0 + 1) (System.version sys);
  (match Manager.last_report (System.manager sys) with
  | Some r -> check_int "drained pages accounted at settle" 5 r.Report.pages_drained
  | None -> Alcotest.fail "no last report");
  check_int "further steps are no-ops" 0 (Manager.drain_step (System.manager sys));
  check_int "audit clean" 0 (Audit.errors (System.audit sys))

let cow_fault_resolution () =
  let sys = boot_with (Drain.Lazy 1) in
  let p, vpn0 = make_hot_pages sys 4 in
  let k = System.kernel sys in
  let v0 = System.version sys in
  ignore (System.checkpoint sys);
  check_int "staged" 4 (System.drain_backlog sys);
  (* write a still-backlogged page: the fault resolves its owed copy *)
  Kernel.touch_write k p ~vpn:(vpn0 + 3);
  check_int "fault took the entry off the backlog" 3 (System.drain_backlog sys);
  (* the page reopened for writing: a second write is free *)
  Kernel.touch_write k p ~vpn:(vpn0 + 3);
  check_int "second write does not fault" 3 (System.drain_backlog sys);
  System.drain_settle sys;
  check_int "committed" (v0 + 1) (System.version sys);
  (match Manager.last_report (System.manager sys) with
  | Some r ->
    check_int "cow fault counted" 1 r.Report.cow_faults;
    check_int "every staged page accounted" 4 r.Report.pages_drained
  | None -> Alcotest.fail "no last report");
  check_int "audit clean" 0 (Audit.errors (System.audit sys))

let mid_drain_crash () =
  let sys = boot_with (Drain.Lazy 1) in
  ignore (make_hot_pages sys 4);
  let v0 = System.version sys in
  ignore (System.checkpoint sys);
  ignore (Manager.drain_step (System.manager sys));
  check_bool "window still pending" true (System.drain_backlog sys > 0);
  ignore (System.crash_and_recover sys);
  check_int "rolled back to the committed version" v0 (System.version sys);
  check_int "drain state abandoned by restore" 0 (System.drain_backlog sys);
  check_bool "no pending window after restore" true
    (Manager.drain_pending_version (System.manager sys) = None);
  check_int "audit clean" 0 (Audit.errors (System.audit sys));
  (* liveness: staging and settling still work end to end *)
  ignore (make_hot_pages sys 2);
  ignore (System.checkpoint sys);
  System.drain_settle sys;
  check_int "audit clean after new work" 0 (Audit.errors (System.audit sys))

let unbounded_batch () =
  let sys = boot_with (Drain.Lazy max_int) in
  ignore (make_hot_pages sys 6);
  let v0 = System.version sys in
  ignore (System.checkpoint sys);
  check_int "staged all" 6 (System.drain_backlog sys);
  check_int "first tick drains the whole backlog" 6
    (Manager.drain_step (System.manager sys));
  check_int "committed" (v0 + 1) (System.version sys);
  check_int "audit clean" 0 (Audit.errors (System.audit sys))

let eager_policy_fallback () =
  let sys = boot_with Drain.Eager in
  ignore (make_hot_pages sys 3);
  let v0 = System.version sys in
  let r = System.checkpoint sys in
  check_int "no backlog under the eager policy" 0 (System.drain_backlog sys);
  check_int "committed at the STW" (v0 + 1) (System.version sys);
  check_int "pages stop-and-copied inside the pause" 3 r.Report.dram_dirty_copied;
  check_int "nothing drained" 0 r.Report.pages_drained

let empty_batch_rejected () =
  List.iter
    (fun n ->
      match boot_with (Drain.Lazy n) with
      | _ -> Alcotest.failf "Lazy %d accepted at boot" n
      | exception Invalid_argument _ -> ())
    [ 0; -1 ]

(* ---- restore equivalence under randomized traces + drain interleaving ---- *)

(* Whole-state fingerprint, as in test_incr: every reachable object's
   snapshot plus the byte contents of every normal-PMO page. *)
let fingerprint sys =
  let k = System.kernel sys in
  let store = System.store sys in
  let objs = ref [] in
  Kobj.iter_tree ~root:(Kernel.root k) (fun obj ->
      let pages =
        match obj with
        | Kobj.Pmo p when p.Kobj.pmo_kind = Kobj.Pmo_normal ->
          List.sort compare
            (Radix.fold
               (fun pno paddr acc ->
                 (pno, Bytes.to_string (Store.page_bytes store paddr)) :: acc)
               p.Kobj.pmo_radix [])
        | Kobj.Pmo _ | Kobj.Cap_group _ | Kobj.Thread _ | Kobj.Vmspace _ | Kobj.Ipc_conn _
        | Kobj.Notification _ | Kobj.Irq_notification _ -> []
      in
      objs := (Kobj.id obj, Snapshot.take obj, pages) :: !objs);
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) !objs

type op =
  | Notify of int
  | Wait of int
  | Touch of int
  | Write of int
  | Spawn
  | Exit of int
  | Grow
  | Ckpt

let gen_trace rng n =
  List.init n (fun _ ->
      match Rng.int rng 16 with
      | 0 | 1 | 2 -> Notify (Rng.int rng 1000)
      | 3 | 4 -> Wait (Rng.int rng 1000)
      | 5 | 6 | 7 | 8 -> Touch (Rng.int rng 1000)
      | 9 | 10 -> Write (Rng.int rng 1000)
      | 11 -> Spawn
      | 12 -> Exit (Rng.int rng 1000)
      | 13 -> Grow
      | _ -> Ckpt)

(* Replay [ops] on [sys].  [drain_gap] interleaves drain steps with app
   work: one drain step every [drain_gap] ops (0 = never mid-trace, so
   the whole backlog resolves via CoW faults and the final settle) — a
   no-op on eager systems either way.  Ends with a checkpoint plus a
   forced settle so both twins commit the same final state. *)
let apply sys ~drain_gap ops =
  let k () = System.kernel sys in
  let base = Kernel.create_process (k ()) ~name:"driver" ~threads:1 ~prio:5 in
  let heap0 = Kernel.grow_heap (k ()) base ~pages:4 in
  let heap_pages = 4 in
  let psz = (Kernel.cost (k ())).Treesls_sim.Cost.page_size in
  let notifs = ref [| Kernel.create_notification (k ()) base |] in
  let procs = ref [] in
  let spawned = ref 0 in
  List.iteri
    (fun idx op ->
      (match op with
      | Notify i -> Ipc.notify (k ()) !notifs.(i mod Array.length !notifs)
      | Wait i ->
        let n = !notifs.(i mod Array.length !notifs) in
        if n.Kobj.nt_count > 0 then
          ignore (Ipc.wait (k ()) n (List.hd base.Kernel.threads))
      | Touch i -> Kernel.touch_write (k ()) base ~vpn:(heap0 + (i mod heap_pages))
      | Write i ->
        Kernel.write_bytes (k ()) base
          ~vaddr:(((heap0 + (i mod heap_pages)) * psz) + 64)
          (Bytes.of_string (Printf.sprintf "w%06d" i))
      | Spawn ->
        incr spawned;
        let p =
          Kernel.create_process (k ()) ~name:(Printf.sprintf "w%d" !spawned) ~threads:1
            ~prio:5
        in
        notifs := Array.append !notifs [| Kernel.create_notification (k ()) p |];
        procs := !procs @ [ p ]
      | Exit i -> (
        match !procs with
        | [] -> ()
        | ps ->
          let j = i mod List.length ps in
          Kernel.exit_process (k ()) (List.nth ps j);
          procs := List.filteri (fun l _ -> l <> j) ps)
      | Grow ->
        let v = Kernel.grow_heap (k ()) base ~pages:2 in
        Kernel.touch_write (k ()) base ~vpn:v
      | Ckpt -> ignore (System.checkpoint sys));
      if drain_gap > 0 && (idx + 1) mod drain_gap = 0 then System.drain_tick sys)
    ops;
  ignore (System.checkpoint sys);
  System.drain_settle sys

let prop_async_restore_equivalence =
  QCheck.Test.make
    ~name:"async-drain restore = eager restore (random traces, audit clean)" ~count:6
    QCheck.(
      triple (int_bound 10_000)
        (pair (int_range 60 160) (int_bound 5))
        (oneofl [ Drain.Lazy 1; Drain.Lazy 8; Drain.Lazy max_int ]))
    (fun (seed, (nops, drain_gap), policy) ->
      let trace = gen_trace (Rng.create (Int64.of_int seed)) nops in
      let run drain =
        let sys =
          System.boot
            ~features:{ (State.default_features ()) with State.drain }
            ~active_cfg:{ Active_list.default_config with Active_list.hot_threshold = 1 }
            ()
        in
        apply sys ~drain_gap trace;
        ignore (System.crash_and_recover sys);
        sys
      in
      let sys_e = run Drain.Eager in
      let sys_a = run policy in
      System.version sys_e = System.version sys_a
      && fingerprint sys_e = fingerprint sys_a
      && Audit.errors (System.audit sys_e) = 0
      && Audit.errors (System.audit sys_a) = 0)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_async_restore_equivalence ]

let () =
  Alcotest.run "drain"
    [
      ( "window",
        [
          Alcotest.test_case "lazy stage/step/settle" `Quick lazy_staging;
          Alcotest.test_case "cow fault resolves a backlogged page" `Quick cow_fault_resolution;
          Alcotest.test_case "mid-drain crash restores cleanly" `Quick mid_drain_crash;
          Alcotest.test_case "Lazy max_int drains in one tick" `Quick unbounded_batch;
          Alcotest.test_case "eager policy falls back to stop-and-copy" `Quick
            eager_policy_fallback;
          Alcotest.test_case "Lazy n < 1 rejected at boot" `Quick empty_batch_rejected;
        ] );
      ("properties", qsuite);
    ]
