module Kobj = Treesls_cap.Kobj
module Kernel = Treesls_kernel.Kernel

(* vpn -> (pmo, page index) within a VM space.

   Regions are kept in an interval index sorted by start vpn so a lookup is
   a binary search instead of a scan of the whole region list (the protect
   pass resolves every dirty vpn, so this is on the STW path).  When
   regions overlap, the first match in list order wins; the index
   preserves that by remembering each region's list position and scanning
   left from the binary-search point while the running max end vpn still
   covers the query. *)
type regions = {
  ri_list : Kobj.vm_region list;  (* identity token for invalidation *)
  ri_sorted : (Kobj.vm_region * int) array;  (* by vr_vpn, with list position *)
  ri_max_end : int array;  (* ri_max_end.(i) = max end vpn over ri_sorted.(0..i) *)
}

let build_regions vms =
  let arr = Array.of_list (List.mapi (fun i r -> (r, i)) vms.Kobj.vs_regions) in
  Array.sort
    (fun ((a : Kobj.vm_region), ia) (b, ib) ->
      match compare a.Kobj.vr_vpn b.Kobj.vr_vpn with 0 -> compare ia ib | c -> c)
    arr;
  let max_end = Array.make (Array.length arr) 0 in
  let run = ref 0 in
  Array.iteri
    (fun i ((r : Kobj.vm_region), _) ->
      run := max !run (r.Kobj.vr_vpn + r.Kobj.vr_pages);
      max_end.(i) <- !run)
    arr;
  { ri_list = vms.Kobj.vs_regions; ri_sorted = arr; ri_max_end = max_end }

let lookup_region idx vpn =
  let arr = idx.ri_sorted in
  (* rightmost entry starting at or before vpn *)
  let last = ref (-1) in
  let lo = ref 0 and hi = ref (Array.length arr - 1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let r, _ = arr.(mid) in
    if r.Kobj.vr_vpn <= vpn then begin
      last := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  let best = ref None in
  let i = ref !last in
  while !i >= 0 && idx.ri_max_end.(!i) > vpn do
    let r, pos = arr.(!i) in
    if vpn < r.Kobj.vr_vpn + r.Kobj.vr_pages then begin
      match !best with
      | Some (_, best_pos) when best_pos <= pos -> ()
      | Some _ | None -> best := Some (r, pos)
    end;
    decr i
  done;
  match !best with
  | Some (r, _) -> Some (r.Kobj.vr_pmo, vpn - r.Kobj.vr_vpn)
  | None -> None

let resolve_region vms vpn = lookup_region (build_regions vms) vpn

(* [rank] indexes the kernel's process list at build time; the process
   count itself stands for "kernel" (reachable from no process). *)
type slot = { pos : int; mutable rank : int }

type t = {
  epoch : int;
  slots : (int, slot) Hashtbl.t;  (* object id -> DFS position + owner *)
  order : Kobj.t array;  (* live objects in root-DFS preorder *)
  names : string array;  (* process rank -> process name *)
  regions : (int, regions) Hashtbl.t;  (* vs_id -> region index, built lazily *)
}

(* One DFS from the root yields the live set and each object's preorder
   position (the order [Kobj.iter_tree] visits).  The owner is the first
   process, in [Kernel.processes] order, whose subtree reaches the object:
   the minimum process rank over the process cap groups on any root path
   to it.  The DFS carries the minimum along its path; an object reached
   again with a smaller one is queued, and after the DFS the smaller rank
   is pushed down through its descendants until nothing improves. *)
let build kernel =
  let procs = Kernel.processes kernel in
  let names = Array.of_list (List.map (fun p -> p.Kernel.pname) procs) in
  let rank_of = Hashtbl.create 16 in
  List.iteri (fun i p -> Hashtbl.replace rank_of p.Kernel.pid i) procs;
  let through rank = function
    | Kobj.Cap_group g -> (
      match Hashtbl.find_opt rank_of g.Kobj.cg_id with Some r -> min r rank | None -> rank)
    | Kobj.Thread _ | Kobj.Vmspace _ | Kobj.Pmo _ | Kobj.Ipc_conn _ | Kobj.Notification _
    | Kobj.Irq_notification _ -> rank
  in
  let slots = Hashtbl.create 1024 in
  let order = ref [] and n = ref 0 and improved = ref [] in
  let rec visit rank obj =
    let rank = through rank obj in
    match Hashtbl.find_opt slots (Kobj.id obj) with
    | None ->
      Hashtbl.add slots (Kobj.id obj) { pos = !n; rank };
      incr n;
      order := obj :: !order;
      Kobj.iter_children (visit rank) obj
    | Some s -> if rank < s.rank then improved := (rank, obj) :: !improved
  in
  visit (Array.length names) (Kobj.Cap_group (Kernel.root kernel));
  let rec lower rank obj =
    let rank = through rank obj in
    let s = Hashtbl.find slots (Kobj.id obj) in
    if rank < s.rank then begin
      s.rank <- rank;
      Kobj.iter_children (lower rank) obj
    end
  in
  List.iter (fun (rank, obj) -> lower rank obj) !improved;
  {
    epoch = Kobj.edge_epoch (Kernel.log kernel);
    slots;
    order = Array.of_list (List.rev !order);
    names;
    regions = Hashtbl.create 64;
  }

let epoch t = t.epoch
let size t = Array.length t.order
let order t = t.order
let is_live t oid = Hashtbl.mem t.slots oid

let owner t oid =
  match Hashtbl.find_opt t.slots oid with
  | Some s when s.rank < Array.length t.names -> t.names.(s.rank)
  | Some _ | None -> "kernel"

let live_dirty t log =
  let hits = ref [] in
  Kobj.iter_dirty
    (fun obj ->
      match Hashtbl.find_opt t.slots (Kobj.id obj) with
      | Some s -> hits := (s.pos, obj) :: !hits
      | None -> ())
    log;
  List.map snd (List.sort (fun (a, _) (b, _) -> Int.compare a b) !hits)

let resolve t vms vpn =
  let idx =
    match Hashtbl.find_opt t.regions vms.Kobj.vs_id with
    | Some idx when idx.ri_list == vms.Kobj.vs_regions -> idx
    | Some _ | None ->
      let idx = build_regions vms in
      Hashtbl.replace t.regions vms.Kobj.vs_id idx;
      idx
  in
  lookup_region idx vpn
