(* Incremental capability-tree walk (DESIGN.md "Dirty-object tracking"):
   unit tests for the fault path's first-match region resolution, fault
   injection into the hybrid-copy undo path, skip accounting, and a property test
   that a system checkpointed with skips restores byte-identically to an
   eagerly-walked twin driven by the same trace. *)

module System = Treesls.System
module Kernel = Treesls_kernel.Kernel
module Pagetable = Treesls_kernel.Pagetable
module Ipc = Treesls_kernel.Ipc
module Manager = Treesls_ckpt.Manager
module State = Treesls_ckpt.State
module Checkpoint = Treesls_ckpt.Checkpoint
module Oroot = Treesls_ckpt.Oroot
module Ckpt_page = Treesls_ckpt.Ckpt_page
module Active_list = Treesls_ckpt.Active_list
module Snapshot = Treesls_ckpt.Snapshot
module Report = Treesls_ckpt.Report
module Audit = Treesls_audit.Audit
module Kobj = Treesls_cap.Kobj
module Radix = Treesls_cap.Radix
module Store = Treesls_nvm.Store
module Paddr = Treesls_nvm.Paddr
module Rng = Treesls_util.Rng
module Trace = Treesls_obs.Trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let feats ~incr =
  let f = State.default_features () in
  f.State.incremental_walk <- incr;
  f

(* The descriptor of a page the process has mapped. *)
let page_at (p : Kernel.process) vpn = (Option.get (Pagetable.lookup p.Kernel.pt ~vpn)).Pagetable.page

(* ---- region resolution: overlapping and adjacent regions ---- *)

(* The fault path resolves a vpn against the region list, first match
   wins, and the PTE it maps points at that (PMO, page) descriptor. *)
let resolve_overlapping () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let p = Kernel.create_process k ~name:"regions" ~threads:1 ~prio:5 in
  let pmo_at vpn =
    (List.find (fun r -> r.Kobj.vr_vpn = vpn) p.Kernel.vms.Kobj.vs_regions).Kobj.vr_pmo
  in
  let a = pmo_at (Kernel.grow_heap k p ~pages:8) in
  let b = pmo_at (Kernel.grow_heap k p ~pages:4) in
  let c = pmo_at (Kernel.grow_heap k p ~pages:2) in
  let region pmo vpn pages = { Kobj.vr_vpn = vpn; vr_pages = pages; vr_pmo = pmo; vr_writable = true } in
  (* a covers 100..103, b covers 102..105 (overlap on 102..103), c is
     exactly adjacent at 106..107 *)
  p.Kernel.vms.Kobj.vs_regions <- [ region a 100 4; region b 102 4; region c 106 2 ];
  let check msg vpn expect =
    let got =
      match Kernel.page_paddr k p ~vpn with
      | None -> None
      | Some _ ->
        let pg = page_at p vpn in
        Some (pg.Pagetable.pmo.Kobj.pmo_id, pg.Pagetable.pno)
    in
    Alcotest.(check (option (pair int int))) msg expect got
  in
  let id pmo = pmo.Kobj.pmo_id in
  check "below all regions" 99 None;
  check "first page of a" 100 (Some (id a, 0));
  check "interior of a" 101 (Some (id a, 1));
  (* on the overlap, the first region in list order must win *)
  check "overlap start -> a" 102 (Some (id a, 2));
  check "overlap end -> a" 103 (Some (id a, 3));
  check "b after a ends" 104 (Some (id b, 2));
  check "last page of b" 105 (Some (id b, 3));
  check "adjacent region c" 106 (Some (id c, 0));
  check "last page of c" 107 (Some (id c, 1));
  check "past all regions" 108 None

(* ---- hybrid copy: unexpected-CPP-state undo retires the entry ---- *)

let hybrid_undo_drops_entry () =
  let sys = System.boot ~features:(feats ~incr:true) () in
  let k = System.kernel sys in
  let st = Manager.state (System.manager sys) in
  let p = Kernel.create_process k ~name:"hot" ~threads:1 ~prio:5 in
  let vpn = Kernel.grow_heap k p ~pages:1 in
  Kernel.touch_write k p ~vpn;
  ignore (System.checkpoint sys);
  let pg = page_at p vpn in
  let pmo = pg.Pagetable.pmo and pno = pg.Pagetable.pno in
  let runtime = Option.get (Radix.get pmo.Kobj.pmo_radix pno) in
  check_bool "page starts on NVM" true (Paddr.is_nvm runtime);
  (* cross the hotness threshold: the next checkpoint will try to migrate
     the page into the DRAM cache *)
  let al = st.State.active in
  for _ = 1 to (Active_list.config al).Active_list.hot_threshold do
    Active_list.record_fault al pg
  done;
  let on_list () = List.memq pg (Active_list.entries al) in
  check_bool "hot page appended" true (on_list ());
  (* Fault injection: give the CP record a second backup slot while the
     runtime still lives on NVM — the CP invariant (runtime-on-NVM implies
     b2 = None) no longer holds, so the migration must be undone. *)
  let oroot = Hashtbl.find st.State.oroots (Kobj.id (Kobj.Pmo pmo)) in
  let cp = Option.get (Ckpt_page.find (Oroot.pages_exn oroot) pno) in
  cp.Ckpt_page.b2 <- Some (Store.alloc_page (System.store sys));
  ignore (System.checkpoint sys);
  check_bool "undo: runtime stayed on NVM" true
    (match Radix.get pmo.Kobj.pmo_radix pno with
    | Some pa -> Paddr.is_nvm pa
    | None -> false);
  check_bool "undo: entry retired from the active list" false (on_list ());
  (* a retired entry must not come back and retry the doomed migration *)
  ignore (System.checkpoint sys);
  check_bool "no retry on later checkpoints" false (on_list ())

(* ---- a process exiting with DRAM-cached pages ---- *)

(* The dead heap PMO's active-list entries must die with its ORoot: left
   behind, the hybrid step would resurrect an ORoot for it on every
   commit, its DRAM frames would never be freed, and after [idle_limit]
   clean commits the demotion would find no CP record. *)
let exit_with_dram_cached_pages () =
  let sys = System.boot () in
  let k = System.kernel sys in
  let st = Manager.state (System.manager sys) in
  let store = System.store sys in
  let dram0 = Store.dram_pages_free store in
  let p = Kernel.create_process k ~name:"leaver" ~threads:1 ~prio:5 in
  let vpn0 = Kernel.grow_heap k p ~pages:4 in
  let heap = (List.find (fun r -> r.Kobj.vr_vpn = vpn0) p.Kernel.vms.Kobj.vs_regions).Kobj.vr_pmo in
  for _ = 1 to 5 do
    for i = 0 to 3 do
      Kernel.touch_write k p ~vpn:(vpn0 + i)
    done;
    ignore (System.checkpoint sys)
  done;
  check_bool "heap pages cached in DRAM" true (Store.dram_pages_free store < dram0);
  Kernel.exit_process k p;
  let idle = (Active_list.config st.State.active).Active_list.idle_limit in
  for _ = 1 to idle + 2 do
    ignore (System.checkpoint sys)
  done;
  check_bool "no ORoot for the dead heap" false (Hashtbl.mem st.State.oroots heap.Kobj.pmo_id);
  check_bool "no descriptors for the dead heap" true (Kernel.page k heap ~pno:0 = None);
  check_int "DRAM frames returned" dram0 (Store.dram_pages_free store);
  check_int "audit clean" 0 (Audit.errors (System.audit sys))

(* ---- skip accounting: conservation against an eager twin ---- *)

let conservation () =
  let mk incr =
    let sys = System.boot ~features:(feats ~incr) () in
    let k = System.kernel sys in
    let p = Kernel.create_process k ~name:"pool" ~threads:1 ~prio:5 in
    let ns = Array.init 40 (fun _ -> Kernel.create_notification k p) in
    (* the first post-boot walk is forced eager in both modes *)
    ignore (System.checkpoint sys);
    ignore (System.checkpoint sys);
    (sys, k, ns)
  in
  let sys_e, k_e, ns_e = mk false in
  let sys_i, k_i, ns_i = mk true in
  for i = 0 to 3 do
    Ipc.notify k_e ns_e.(i);
    Ipc.notify k_i ns_i.(i)
  done;
  let re = System.checkpoint sys_e in
  let ri = System.checkpoint sys_i in
  check_int "eager walk never skips" 0 re.Report.objects_skipped;
  check_int "walked + skipped = eager walked" re.Report.objects_walked
    (ri.Report.objects_walked + ri.Report.objects_skipped);
  check_bool "some objects were skipped" true (ri.Report.objects_skipped > 0);
  check_bool "the walk scales with the delta" true
    (ri.Report.objects_walked < re.Report.objects_walked / 2);
  (* nothing mutated since: a steady-state checkpoint skips the tree *)
  let r2 = System.checkpoint sys_i in
  check_bool "clean checkpoint walks (almost) nothing" true (r2.Report.objects_walked <= 4)

(* ---- restore equivalence under randomized mutation traces ---- *)

(* Whole-state fingerprint: every reachable object's snapshot plus the
   byte contents of every normal-PMO page, sorted by object id. *)
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
  | Connect of int
  | Call of int
  | Grant of int
  | Share of int
  | Ckpt

let gen_trace rng n =
  List.init n (fun _ ->
      match Rng.int rng 20 with
      | 0 | 1 | 2 -> Notify (Rng.int rng 1000)
      | 3 | 4 -> Wait (Rng.int rng 1000)
      | 5 | 6 | 7 -> Touch (Rng.int rng 1000)
      | 8 | 9 -> Write (Rng.int rng 1000)
      | 10 -> Spawn
      | 11 -> Exit (Rng.int rng 1000)
      | 12 -> Grow
      | 13 -> Connect (Rng.int rng 1000)
      | 14 -> Call (Rng.int rng 1000)
      | 15 -> Grant (Rng.int rng 1000)
      | 16 -> Share (Rng.int rng 1000)
      | _ -> Ckpt)

(* Test-side reference for the next checkpoint: a full tree walk keeping
   the objects the walk must checkpoint — every reachable one when the
   walk is eager, otherwise those never checkpointed or mutated since —
   in DFS order, each with its owner computed from scratch (the first
   process, in creation order, whose subtree reaches it). *)
let reference_walk sys =
  let k = System.kernel sys in
  let st = Manager.state (System.manager sys) in
  let eager = st.State.force_full || not st.State.features.State.incremental_walk in
  let owner = Hashtbl.create 256 in
  List.iter
    (fun (p : Kernel.process) ->
      Kobj.iter_tree ~root:p.Kernel.cg (fun obj ->
          if not (Hashtbl.mem owner (Kobj.id obj)) then
            Hashtbl.add owner (Kobj.id obj) p.Kernel.pname))
    (Kernel.processes k);
  let walked = ref [] in
  Kobj.iter_tree ~root:(Kernel.root k) (fun obj ->
      let oid = Kobj.id obj in
      let dirty =
        match Hashtbl.find_opt st.State.oroots oid with
        | Some o -> o.Oroot.saved_gen <> Kobj.gen obj
        | None -> true
      in
      if eager || dirty then
        walked := (oid, Option.value ~default:"kernel" (Hashtbl.find_opt owner oid)) :: !walked);
  List.rev !walked

(* Checkpoint and compare what the walk did — its verbose-tier "ckpt.obj"
   events (object id and group, in walk order) and the report's per-group
   object counts — against [reference_walk].  Returns the mismatches. *)
let checked_checkpoint sys =
  let expected = reference_walk sys in
  let tr = System.trace sys in
  Trace.clear tr;
  let r = System.checkpoint sys in
  let walked =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.Trace.name = "ckpt.obj" then
          let arg key = List.assoc key e.Trace.args in
          Some (int_of_string (arg "id"), arg "group")
        else None)
      (Trace.events tr)
  in
  let counts l =
    List.sort_uniq compare
      (List.map (fun (_, g) -> (g, List.length (List.filter (fun (_, g') -> g' = g) l))) l)
  in
  let groups =
    List.sort compare (List.map (fun (g, s) -> (g, s.Report.g_objects)) r.Report.per_group)
  in
  let bad = ref [] in
  if Trace.dropped tr > 0 then bad := "trace ring wrapped" :: !bad;
  if walked <> expected then
    bad :=
      Printf.sprintf "v%d: walked %d objects, reference %d" r.Report.version (List.length walked)
        (List.length expected)
      :: !bad;
  if groups <> counts expected then
    bad := Printf.sprintf "v%d: per_group differs from the reference" r.Report.version :: !bad;
  (r, !bad)

(* Replay [ops] on [sys] (deterministic: the same trace drives the eager
   and the incremental system identically), ending with a checkpoint so
   both commit the same state; every checkpoint is checked against the
   reference walk.  Returns the total skipped-object count and the
   mismatches found. *)
let apply sys ops =
  let k () = System.kernel sys in
  System.enable_tracing ~verbose:true ~eternal_backing:false sys;
  let base = Kernel.create_process (k ()) ~name:"driver" ~threads:1 ~prio:5 in
  let heap0 = Kernel.grow_heap (k ()) base ~pages:4 in
  let heap_pages = 4 in
  let psz = (Kernel.cost (k ())).Treesls_sim.Cost.page_size in
  let notifs = ref [| Kernel.create_notification (k ()) base |] in
  let procs = ref [] in
  let conns = ref [] in
  let spawned = ref 0 in
  let skipped = ref 0 in
  let mismatches = ref [] in
  let ckpt () =
    let r, bad = checked_checkpoint sys in
    skipped := !skipped + r.Report.objects_skipped;
    mismatches := !mismatches @ bad
  in
  let pick l i = List.nth l (i mod List.length l) in
  (* slot of a notification cap the process may pass on *)
  let notif_slot (p : Kernel.process) i =
    let slots = ref [] in
    Kobj.iter_caps
      (fun slot c ->
        match c.Kobj.target with
        | Kobj.Notification _ when c.Kobj.rights.Treesls_cap.Rights.grant ->
          slots := (slot, c.Kobj.rights) :: !slots
        | _ -> ())
      p.Kernel.cg;
    if !slots = [] then None else Some (pick (List.rev !slots) i)
  in
  List.iter
    (fun op ->
      match op with
      | Notify i -> Ipc.notify (k ()) !notifs.(i mod Array.length !notifs)
      | Wait i ->
        (* only consume pending signals — blocking the driver's single
           thread would wedge the trace *)
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
          let idx = i mod List.length ps in
          Kernel.exit_process (k ()) (List.nth ps idx);
          procs := List.filteri (fun j _ -> j <> idx) ps)
      | Grow ->
        let v = Kernel.grow_heap (k ()) base ~pages:2 in
        Kernel.touch_write (k ()) base ~vpn:v
      | Connect i ->
        (* the connection sits in both ends' cap groups *)
        let all = base :: !procs in
        let c = Ipc.create_conn (k ()) ~client:(pick all i) ~server:(pick all (i / 7)) in
        Ipc.register_handler (k ()) c (fun b -> b);
        conns := !conns @ [ c ]
      | Call i ->
        if !conns <> [] then ignore (Ipc.call (k ()) (pick !conns i) (Bytes.of_string "ping"))
      | Grant i -> (
        (* pass a notification cap between two processes: an older
           receiver takes over the object's attribution.  Exits free root
           slots that younger processes reuse, so DFS order and process
           order disagree and the owner must be corrected after the DFS. *)
        let all = base :: !procs in
        let from_proc = pick all i and to_proc = pick all (i / 7) in
        match notif_slot from_proc i with
        | Some (slot, rights) -> ignore (Kernel.grant (k ()) ~from_proc ~to_proc ~slot ~rights)
        | None -> ())
      | Share i ->
        (* map one of the driver's writable PMOs into a spawned process,
           which writes through the new mapping (a later Exit then leaves
           a dirty shared page behind) *)
        if !procs <> [] then begin
          let writable =
            List.filter (fun r -> r.Kobj.vr_writable) base.Kernel.vms.Kobj.vs_regions
          in
          let r = pick writable i and p = pick !procs i in
          let v = Kernel.map_shared (k ()) p r.Kobj.vr_pmo ~writable:true in
          Kernel.write_bytes (k ()) p
            ~vaddr:(((v + (i mod r.Kobj.vr_pages)) * psz) + 128)
            (Bytes.of_string (Printf.sprintf "s%06d" i))
        end
      | Ckpt -> ckpt ())
    ops;
  ckpt ();
  (!skipped, !mismatches)

let prop_restore_equivalence =
  QCheck.Test.make
    ~name:"incremental restore = eager restore (random traces, audit clean)" ~count:8
    QCheck.(pair (int_bound 10_000) (int_range 60 160))
    (fun (seed, nops) ->
      let trace = gen_trace (Rng.create (Int64.of_int seed)) nops in
      let run incr =
        let sys = System.boot ~features:(feats ~incr) () in
        let skipped, mismatches = apply sys trace in
        if mismatches <> [] then
          QCheck.Test.fail_reportf "%s walk vs reference: %s"
            (if incr then "incremental" else "eager")
            (String.concat "; " mismatches);
        (* the page descriptors agree with the page tables, the active
           list and the drain, before the crash and after the restore *)
        let pages_ok when_ =
          match Audit.check_pages (System.manager sys) with
          | [] -> ()
          | bad -> QCheck.Test.fail_reportf "page descriptors %s: %s" when_ (String.concat "; " bad)
        in
        pages_ok "before the crash";
        ignore (System.crash_and_recover sys);
        pages_ok "after the restore";
        (sys, skipped)
      in
      let sys_e, skipped_e = run false in
      let sys_i, _skipped_i = run true in
      (* the two restored states must agree object-for-object and
         page-for-page, and both must satisfy the NVM auditor *)
      fingerprint sys_e = fingerprint sys_i
      && skipped_e = 0
      && Audit.errors (System.audit sys_e) = 0
      && Audit.errors (System.audit sys_i) = 0
      (* post-restore generations are untrusted: the first checkpoint
         after a restore must resync eagerly, skipping nothing *)
      && (System.checkpoint sys_i).Report.objects_skipped = 0
      && Audit.check_pages (System.manager sys_i) = [])

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_restore_equivalence ]

let () =
  Alcotest.run "incr"
    [
      ( "resolve-region",
        [ Alcotest.test_case "overlapping + adjacent regions" `Quick resolve_overlapping ] );
      ("hybrid-undo", [ Alcotest.test_case "undo retires the entry" `Quick hybrid_undo_drops_entry ]);
      ( "exit",
        [
          Alcotest.test_case "exit with DRAM-cached pages frees them" `Quick
            exit_with_dram_cached_pages;
        ] );
      ("accounting", [ Alcotest.test_case "conservation vs eager twin" `Quick conservation ]);
      ("properties", qsuite);
    ]
