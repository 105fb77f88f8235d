module Paddr = Treesls_nvm.Paddr
module Store = Treesls_nvm.Store
module Kobj = Treesls_cap.Kobj
module Id_gen = Treesls_cap.Id_gen
module Radix = Treesls_cap.Radix
module Cost = Treesls_sim.Cost
module Clock = Treesls_sim.Clock
module Probe = Treesls_obs.Probe

type process = {
  pid : int;
  pname : string;
  cg : Kobj.cap_group;
  vms : Kobj.vmspace;
  pt : Pagetable.t;
  mutable threads : Kobj.thread list;
  mutable brk_vpn : int;
}

type stats = {
  mutable page_faults : int;
  mutable cow_faults : int;
  mutable alloc_faults : int;
  mutable syscalls : int;
  mutable ipc_calls : int;
  mutable swap_ins : int;
  mutable swap_outs : int;
}

type t = {
  store : Store.t;
  ids : Id_gen.t;
  ncores : int;
  root : Kobj.cap_group;
  mutable procs : process list;
  pages : Pagetable.page Radix.t Radix.t;  (* pmo id -> pno -> descriptor *)
  sched : Sched.t;
  mutable cow_hook : (Pagetable.page -> unit) option;
  mutable fresh_hook : (Kobj.pmo -> int -> unit) option;
  stats : stats;
  ipc_handlers : (int, Bytes.t -> Bytes.t) Hashtbl.t;
  mutable alive : bool;
  log : Kobj.log;
}

let store t = t.store
let probe t = Store.probe t.store
let clock t = Store.clock t.store
let cost t = Store.cost t.store
let root t = t.root
let ids t = t.ids
let ncores t = t.ncores
let sched t = t.sched
let stats t = t.stats
let ipc_handlers t = t.ipc_handlers
let processes t = t.procs
let log t = t.log
let find_process t ~name = List.find_opt (fun p -> p.pname = name) t.procs

let pagetable t vms =
  Option.map (fun p -> p.pt) (List.find_opt (fun p -> p.vms == vms) t.procs)

let page t pmo ~pno = Option.bind (Radix.get t.pages pmo.Kobj.pmo_id) (fun pgs -> Radix.get pgs pno)
let iter_pages t f = Radix.iter (fun _ pgs -> Radix.iter (fun _ pg -> f pg) pgs) t.pages
let forget_pages t pmo_id = Radix.remove t.pages pmo_id

(* The page's descriptor, created when it is first mapped. *)
let page_of t pmo pno =
  let pgs =
    match Radix.get t.pages pmo.Kobj.pmo_id with
    | Some pgs -> pgs
    | None ->
      let pgs = Radix.create () in
      Radix.set t.pages pmo.Kobj.pmo_id pgs;
      pgs
  in
  match Radix.get pgs pno with
  | Some pg -> pg
  | None ->
    let pg = Pagetable.new_page pmo pno in
    Radix.set pgs pno pg;
    pg

let mappings_of_page t pmo ~pno = match page t pmo ~pno with Some pg -> pg.Pagetable.maps | None -> []

let set_cow_hook t h = t.cow_hook <- h
let set_fresh_hook t h = t.fresh_hook <- h

let install_obj t owner obj rights =
  ignore (Kobj.install t.log owner { Kobj.target = obj; rights })

(* --- object creation ------------------------------------------------- *)

let new_pmo t ~pages ~kind =
  Kobj.make_pmo ~id:(Id_gen.next t.ids) ~pages ~kind

let create_notification t proc =
  let n = Kobj.make_notification ~id:(Id_gen.next t.ids) in
  install_obj t proc.cg (Kobj.Notification n) Treesls_cap.Rights.full;
  n

let create_irq t proc ~line =
  let irq = Kobj.make_irq_notification ~id:(Id_gen.next t.ids) ~line in
  install_obj t proc.cg (Kobj.Irq_notification irq) Treesls_cap.Rights.full;
  irq

let add_region t proc pmo ~writable =
  let vpn = proc.brk_vpn in
  let region = { Kobj.vr_vpn = vpn; vr_pages = pmo.Kobj.pmo_pages; vr_pmo = pmo; vr_writable = writable } in
  Kobj.set_regions t.log proc.vms (proc.vms.Kobj.vs_regions @ [ region ]);
  proc.brk_vpn <- vpn + pmo.Kobj.pmo_pages;
  vpn

let add_thread t proc ~prio =
  let th = Kobj.make_thread ~id:(Id_gen.next t.ids) ~prio in
  install_obj t proc.cg (Kobj.Thread th) Treesls_cap.Rights.full;
  (* one stack page per thread, like ChCore *)
  let stack = new_pmo t ~pages:1 ~kind:Kobj.Pmo_normal in
  install_obj t proc.cg (Kobj.Pmo stack) Treesls_cap.Rights.rw;
  ignore (add_region t proc stack ~writable:true);
  proc.threads <- proc.threads @ [ th ];
  Sched.enqueue t.sched th;
  th

let create_process t ~name ~threads ~prio =
  let cg = Kobj.make_cap_group ~id:(Id_gen.next t.ids) ~name in
  install_obj t t.root (Kobj.Cap_group cg) Treesls_cap.Rights.full;
  let vms = Kobj.make_vmspace ~id:(Id_gen.next t.ids) in
  install_obj t cg (Kobj.Vmspace vms) Treesls_cap.Rights.full;
  let proc =
    { pid = cg.Kobj.cg_id; pname = name; cg; vms; pt = Pagetable.create (); threads = []; brk_vpn = 16 }
  in
  let code = new_pmo t ~pages:1 ~kind:Kobj.Pmo_normal in
  install_obj t cg (Kobj.Pmo code) Treesls_cap.Rights.read_only;
  ignore (add_region t proc code ~writable:false);
  for _ = 1 to threads do
    ignore (add_thread t proc ~prio)
  done;
  t.procs <- t.procs @ [ proc ];
  proc

let exit_process t proc =
  List.iter
    (fun th ->
      th.Kobj.th_state <- Kobj.Exited;
      Kobj.touch t.log (Kobj.Thread th))
    proc.threads;
  (* revoke the cap from the root group so the subtree becomes unreachable
     (the revoke bumps the edge epoch) *)
  Kobj.iter_caps
    (fun slot c -> if Kobj.id c.Kobj.target = proc.pid then Kobj.revoke t.log t.root slot)
    t.root;
  t.procs <- List.filter (fun p -> p.pid <> proc.pid) t.procs;
  (* the pages it dirtied stay dirty: the next checkpoint still captures
     what it wrote *)
  Pagetable.unmap_all proc.pt

let grow_heap t proc ~pages =
  let pmo = new_pmo t ~pages ~kind:Kobj.Pmo_normal in
  install_obj t proc.cg (Kobj.Pmo pmo) Treesls_cap.Rights.rw;
  add_region t proc pmo ~writable:true

let map_shared t proc pmo ~writable =
  install_obj t proc.cg (Kobj.Pmo pmo)
    (if writable then Treesls_cap.Rights.rw else Treesls_cap.Rights.read_only);
  add_region t proc pmo ~writable

let make_eternal_pmo t ~pages =
  let pmo = new_pmo t ~pages ~kind:Kobj.Pmo_eternal in
  (* Eternal PMOs are fully materialised at creation: their radix never
     changes afterwards, which is what makes "do not roll back the pages"
     well-defined across recovery (§5). *)
  for i = 0 to pages - 1 do
    let paddr = Store.alloc_page t.store in
    Radix.set pmo.Kobj.pmo_radix i paddr
  done;
  Kobj.touch t.log (Kobj.Pmo pmo);
  install_obj t t.root (Kobj.Pmo pmo) Treesls_cap.Rights.rw;
  pmo

(* --- memory paths ------------------------------------------------------ *)

let region_of proc vpn =
  let rec find = function
    | [] -> None
    | r :: rest ->
      if vpn >= r.Kobj.vr_vpn && vpn < r.Kobj.vr_vpn + r.Kobj.vr_pages then Some r
      else find rest
  in
  find proc.vms.Kobj.vs_regions

let charge t ns = Store.charge t.store ns

let grant t ~from_proc ~to_proc ~slot ~rights =
  match Kobj.lookup from_proc.cg slot with
  | None -> invalid_arg "Kernel.grant: empty source slot"
  | Some cap ->
    if not cap.Kobj.rights.Treesls_cap.Rights.grant then
      invalid_arg "Kernel.grant: source capability lacks the grant right";
    if not (Treesls_cap.Rights.subset rights ~of_:cap.Kobj.rights) then
      invalid_arg "Kernel.grant: rights may only shrink";
    t.stats.syscalls <- t.stats.syscalls + 1;
    charge t (cost t).Cost.syscall_ns;
    Kobj.install t.log to_proc.cg { Kobj.target = cap.Kobj.target; rights }

let raise_irq t irq =
  charge t (cost t).Cost.trap_ns;
  irq.Kobj.irq_pending <- irq.Kobj.irq_pending + 1;
  (* wake one thread blocked on this IRQ line *)
  let woken = ref false in
  List.iter
    (fun p ->
      List.iter
        (fun th ->
          if (not !woken) && th.Kobj.th_state = Kobj.Blocked_notif (-irq.Kobj.irq_id) then begin
            woken := true;
            th.Kobj.th_state <- Kobj.Ready;
            Kobj.touch t.log (Kobj.Thread th);
            Sched.enqueue t.sched th
          end)
        p.threads)
    t.procs;
  if !woken then irq.Kobj.irq_pending <- irq.Kobj.irq_pending - 1;
  Kobj.touch t.log (Kobj.Irq_notification irq)

let wait_irq t irq th =
  t.stats.syscalls <- t.stats.syscalls + 1;
  charge t (cost t).Cost.syscall_ns;
  if irq.Kobj.irq_pending > 0 then begin
    irq.Kobj.irq_pending <- irq.Kobj.irq_pending - 1;
    Kobj.touch t.log (Kobj.Irq_notification irq);
    true
  end
  else begin
    (* blocked-on-IRQ is encoded as a negative notification id so that it
       survives checkpointing through the same thread-state snapshot *)
    th.Kobj.th_state <- Kobj.Blocked_notif (-irq.Kobj.irq_id);
    Kobj.touch t.log (Kobj.Thread th);
    false
  end


(* Major fault on a swapped-out page: bring it back from the SSD and
   repoint the radix and every PTE (memory over-commitment, paper
   section 8). *)
let swap_in_page t pg slot =
  charge t (cost t).Cost.trap_ns;
  t.stats.page_faults <- t.stats.page_faults + 1;
  t.stats.swap_ins <- t.stats.swap_ins + 1;
  Probe.count (probe t) "kernel.faults.major" 1;
  Pagetable.remap_page pg (Store.swap_in t.store ~slot)

(* The CoW hook runs on normal PMOs only: eternal pages are never rolled
   back, so they need no backup. *)
let cow_upgrade t (pg : Pagetable.page) =
  match (pg.Pagetable.pmo.Kobj.pmo_kind, t.cow_hook) with
  | Kobj.Pmo_normal, Some h -> h pg
  | (Kobj.Pmo_normal | Kobj.Pmo_eternal), _ -> ()

(* Returns the PTE mapping [vpn], present and, when [for_write], writable —
   running the fault paths as needed.  The common case is one lookup. *)
let ensure_mapped t proc ~vpn ~for_write =
  assert t.alive;
  let pt = proc.pt in
  match Pagetable.lookup pt ~vpn with
  | Some pte
    when ((not for_write) || pte.Pagetable.writable) && not (Paddr.is_ssd pte.Pagetable.paddr) ->
    pte
  | Some pte ->
    (* swapped-out pages fault back in before anything else *)
    if Paddr.is_ssd pte.Pagetable.paddr then
      swap_in_page t pte.Pagetable.page pte.Pagetable.paddr;
    if for_write && not pte.Pagetable.writable then begin
      (* write to a read-only mapping: copy-on-write fault *)
      (match region_of proc vpn with
      | Some r when r.Kobj.vr_writable -> ()
      | Some _ -> invalid_arg "Kernel: write to read-only region"
      | None -> invalid_arg "Kernel: mapping without region");
      charge t (cost t).Cost.trap_ns;
      t.stats.page_faults <- t.stats.page_faults + 1;
      t.stats.cow_faults <- t.stats.cow_faults + 1;
      Probe.count (probe t) "kernel.faults.cow" 1;
      (* the hook may migrate the page: remap updates this PTE in place *)
      cow_upgrade t pte.Pagetable.page;
      Pagetable.make_writable pt pte;
      (* the PTE just joined the pagetable's dirty list: the next checkpoint
         must run the protect pass over this vmspace, so mark it dirty *)
      Kobj.touch t.log (Kobj.Vmspace proc.vms)
    end;
    pte
  | None ->
    let region =
      match region_of proc vpn with
      | Some r -> r
      | None -> invalid_arg (Printf.sprintf "Kernel: fault on unmapped vpn %d" vpn)
    in
    if for_write && not region.Kobj.vr_writable then
      invalid_arg "Kernel: write to read-only region";
    let pmo = region.Kobj.vr_pmo and pno = vpn - region.Kobj.vr_vpn in
    charge t (cost t).Cost.trap_ns;
    t.stats.page_faults <- t.stats.page_faults + 1;
    let pg = page_of t pmo pno in
    let paddr =
      match Radix.get pmo.Kobj.pmo_radix pno with
      | Some paddr ->
        (* present in the PMO, just not in this page table (e.g. after a
           restore rebuilt page tables empty); swapped out, it comes back
           from the SSD first *)
        if Paddr.is_ssd paddr then swap_in_page t pg paddr;
        if for_write then begin
          t.stats.cow_faults <- t.stats.cow_faults + 1;
          cow_upgrade t pg
        end;
        (* reload: the swap-in and the hook may move the page *)
        Option.value ~default:paddr (Radix.get pmo.Kobj.pmo_radix pno)
      | None ->
        (* first touch: allocate the page on NVM *)
        t.stats.alloc_faults <- t.stats.alloc_faults + 1;
        Probe.count (probe t) "kernel.faults.alloc" 1;
        let paddr = Store.alloc_page t.store in
        Radix.set pmo.Kobj.pmo_radix pno paddr;
        (* the fresh page needs a CP record at the next walk; the PMO must
           not be skipped before its pending-fresh list is drained *)
        Kobj.touch t.log (Kobj.Pmo pmo);
        (match t.fresh_hook with Some h -> h pmo pno | None -> ());
        paddr
    in
    let pte = Pagetable.map pt ~vpn pg ~paddr ~writable:for_write in
    if for_write then Kobj.touch t.log (Kobj.Vmspace proc.vms);
    pte

let page_size t = (cost t).Cost.page_size

(* The generic write syscall claims the "app" wear context, but only as a
   default: when a more specific subsystem (extsync ring, checkpoint) is
   already on the wearmap's writer stack, its attribution wins. *)
let write_bytes t proc ~vaddr (data : Bytes.t) =
  Treesls_obs.Wearmap.with_default_writer (Probe.wearmap (probe t)) "app" @@ fun () ->
  let psz = page_size t in
  let len = Bytes.length data in
  let rec loop vaddr src_off remaining =
    if remaining > 0 then begin
      let vpn = vaddr / psz and off = vaddr mod psz in
      let chunk = min remaining (psz - off) in
      let pte = ensure_mapped t proc ~vpn ~for_write:true in
      Store.write_page t.store pte.Pagetable.paddr ~off (Bytes.sub data src_off chunk);
      Pagetable.set_dirty pte;
      loop (vaddr + chunk) (src_off + chunk) (remaining - chunk)
    end
  in
  loop vaddr 0 len

let read_bytes t proc ~vaddr ~len =
  let psz = page_size t in
  let out = Bytes.create len in
  let rec loop vaddr dst_off remaining =
    if remaining > 0 then begin
      let vpn = vaddr / psz and off = vaddr mod psz in
      let chunk = min remaining (psz - off) in
      let pte = ensure_mapped t proc ~vpn ~for_write:false in
      let data = Store.read_page t.store pte.Pagetable.paddr ~off ~len:chunk in
      Bytes.blit data 0 out dst_off chunk;
      loop (vaddr + chunk) (dst_off + chunk) (remaining - chunk)
    end
  in
  loop vaddr 0 len;
  out

let cookie = Bytes.make 8 '\x5a'

let touch_write t proc ~vpn =
  Treesls_obs.Wearmap.with_default_writer (Probe.wearmap (probe t)) "app" @@ fun () ->
  let pte = ensure_mapped t proc ~vpn ~for_write:true in
  Store.write_page t.store pte.Pagetable.paddr ~off:0 cookie;
  Pagetable.set_dirty pte

let page_paddr t proc ~vpn =
  match region_of proc vpn with
  | None -> None
  | Some _ -> Some (ensure_mapped t proc ~vpn ~for_write:false).Pagetable.paddr

let syscall t ~work_ns =
  t.stats.syscalls <- t.stats.syscalls + 1;
  Probe.count (probe t) "kernel.syscalls" 1;
  charge t ((cost t).Cost.syscall_ns + work_ns)

(* --- cold-page eviction (memory over-commitment, paper section 8) ----- *)

(* A page is evictable if it lives on NVM, is clean, and every mapping is
   already read-only (cold: it has not been written since its last
   checkpoint protection). *)
let evictable (pg : Pagetable.page) =
  pg.Pagetable.pmo.Kobj.pmo_kind = Kobj.Pmo_normal
  && (match Radix.get pg.Pagetable.pmo.Kobj.pmo_radix pg.Pagetable.pno with
     | Some p -> Paddr.is_nvm p
     | None -> false)
  && (not (Pagetable.page_dirty pg))
  && List.for_all (fun pte -> not pte.Pagetable.writable) pg.Pagetable.maps

let evict_page t pmo ~pno =
  let pg = page_of t pmo pno in
  if not (evictable pg) then false
  else
    match Radix.get pmo.Kobj.pmo_radix pno with
    | Some src -> (
      match Store.swap_out t.store ~src with
      | Some slot ->
        Pagetable.remap_page pg slot;
        t.stats.swap_outs <- t.stats.swap_outs + 1;
        true
      | None -> false)
    | None -> false
let evict_cold t ~limit =
  let evicted = ref 0 in
  (try
     List.iter
       (fun p ->
         List.iter
           (fun r ->
             let pmo = r.Kobj.vr_pmo in
             Radix.iter
               (fun pno _ ->
                 if !evicted < limit then begin
                   if evict_page t pmo ~pno then incr evicted
                 end
                 else raise Exit)
               pmo.Kobj.pmo_radix)
           p.vms.Kobj.vs_regions)
       t.procs
   with Exit -> ());
  !evicted

(* --- quiescence -------------------------------------------------------- *)

let quiesce t =
  let c = cost t in
  let ns = ((t.ncores - 1) * c.Cost.ipi_send_ns) + c.Cost.ipi_ack_ns in
  charge t ns;
  ns

let resume_cores t =
  let c = cost t in
  let ns = (t.ncores - 1) * c.Cost.ipi_send_ns in
  charge t ns;
  ns

(* --- failure ------------------------------------------------------------ *)

let crash t =
  Store.crash t.store;
  Hashtbl.reset t.ipc_handlers;
  (* DRAM is gone: empty the page tables too, which callers may still
     reach through their pre-crash process records *)
  List.iter (fun p -> Pagetable.unmap_all p.pt) t.procs;
  Radix.clear t.pages;
  Sched.clear t.sched;
  t.procs <- [];
  t.alive <- false

let fresh_stats () =
  {
    page_faults = 0;
    cow_faults = 0;
    alloc_faults = 0;
    syscalls = 0;
    ipc_calls = 0;
    swap_ins = 0;
    swap_outs = 0;
  }

let derive_processes root =
  let procs = ref [] in
  Kobj.iter_caps
    (fun _ c ->
      match c.Kobj.target with
      | Kobj.Cap_group cg when cg.Kobj.cg_id <> root.Kobj.cg_id ->
        let vms = ref None and threads = ref [] in
        Kobj.iter_caps
          (fun _ inner ->
            match inner.Kobj.target with
            | Kobj.Vmspace v -> if !vms = None then vms := Some v
            | Kobj.Thread th -> threads := !threads @ [ th ]
            | Kobj.Cap_group _ | Kobj.Pmo _ | Kobj.Ipc_conn _ | Kobj.Notification _
            | Kobj.Irq_notification _ -> ())
          cg;
        (match !vms with
        | None -> () (* not a process-shaped cap group *)
        | Some vms ->
          let brk =
            List.fold_left
              (fun acc r -> max acc (r.Kobj.vr_vpn + r.Kobj.vr_pages))
              16 vms.Kobj.vs_regions
          in
          procs :=
            !procs
            @ [
                {
                  pid = cg.Kobj.cg_id;
                  pname = cg.Kobj.cg_name;
                  cg;
                  vms;
                  pt = Pagetable.create ();
                  threads = !threads;
                  brk_vpn = brk;
                };
              ])
      | Kobj.Cap_group _ | Kobj.Thread _ | Kobj.Vmspace _ | Kobj.Pmo _ | Kobj.Ipc_conn _
      | Kobj.Notification _ | Kobj.Irq_notification _ -> ())
    root;
  !procs

let rebuild ~store ~ncores ~root ~ids_hwm ~log =
  let ids = Id_gen.create () in
  Id_gen.restore ids ids_hwm;
  let t =
    {
      store;
      ids;
      ncores;
      root;
      procs = [];
      pages = Radix.create ();
      sched = Sched.create ();
      cow_hook = None;
      fresh_hook = None;
      stats = fresh_stats ();
      ipc_handlers = Hashtbl.create 16;
      alive = true;
      log;
    }
  in
  t.procs <- derive_processes root;
  (* Threads checkpointed as Running were on-CPU at checkpoint time; they
     resume as ready. *)
  List.iter
    (fun p ->
      List.iter
        (fun th ->
          match th.Kobj.th_state with
          | Kobj.Running _ -> th.Kobj.th_state <- Kobj.Ready
          | Kobj.Ready | Kobj.Blocked_notif _ | Kobj.Blocked_ipc _ | Kobj.Exited -> ())
        p.threads)
    t.procs;
  Sched.rebuild t.sched ~root;
  t

(* --- boot ---------------------------------------------------------------- *)

(* Services and their object populations are sized to reproduce the
   paper's Table 2 "Default" row: 6 cap groups, 27 threads, 9 IPC
   connections, 7 notifications, 71 PMOs, 6 VM spaces. *)
let service_spec =
  [
    (* name, threads, extra heap/buffer PMOs, notifications, IPC conns *)
    ("procmgr", 5, 3, 2, 2);
    ("fsmgr", 8, 4, 2, 2);
    ("netdrv", 6, 3, 1, 2);
    ("tmpfs", 4, 2, 1, 2);
    ("shell", 4, 2, 1, 1);
  ]

let boot ?(cost = Cost.default) ?(ncores = 8) ?(nvm_pages = 1 lsl 16) ?(dram_pages = 4096)
    ?trace_capacity ?tseries_capacity () =
  let probe =
    Probe.create ?capacity:trace_capacity ?tseries_capacity ~clock:(Clock.create ()) ()
  in
  let store = Store.create ~cost ~probe ~nvm_pages ~dram_pages () in
  let ids = Id_gen.create () in
  let root = Kobj.make_cap_group ~id:(Id_gen.next ids) ~name:"root" in
  let t =
    {
      store;
      ids;
      ncores;
      root;
      procs = [];
      pages = Radix.create ();
      sched = Sched.create ();
      cow_hook = None;
      fresh_hook = None;
      stats = fresh_stats ();
      ipc_handlers = Hashtbl.create 16;
      alive = true;
      log = Kobj.create_log ();
    }
  in
  (* kernel VM space + kernel buffer PMOs, reachable as special nodes *)
  let kvms = Kobj.make_vmspace ~id:(Id_gen.next ids) in
  install_obj t root (Kobj.Vmspace kvms) Treesls_cap.Rights.full;
  Kobj.set_regions t.log kvms
    (List.init 16 (fun i ->
         let buf = new_pmo t ~pages:1 ~kind:Kobj.Pmo_normal in
         install_obj t root (Kobj.Pmo buf) Treesls_cap.Rights.rw;
         { Kobj.vr_vpn = 1024 + i; vr_pages = 1; vr_pmo = buf; vr_writable = true }));
  List.iter
    (fun (name, threads, extra_pmos, notifs, conns) ->
      let proc = create_process t ~name ~threads ~prio:10 in
      for _ = 1 to extra_pmos do
        ignore (grow_heap t proc ~pages:1)
      done;
      for _ = 1 to notifs do
        ignore (create_notification t proc)
      done;
      for _ = 1 to conns do
        let conn = Kobj.make_ipc_conn ~id:(Id_gen.next ids) in
        let server = match proc.threads with th :: _ -> Some th | [] -> None in
        Kobj.connect t.log conn ~server ~shared:(Some (new_pmo t ~pages:1 ~kind:Kobj.Pmo_normal));
        install_obj t proc.cg (Kobj.Ipc_conn conn) Treesls_cap.Rights.full
      done)
    service_spec;
  t
