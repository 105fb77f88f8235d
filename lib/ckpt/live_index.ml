module Kobj = Treesls_cap.Kobj
module Kernel = Treesls_kernel.Kernel

(* [rank] indexes the kernel's process list at build time; the process
   count itself stands for "kernel" (reachable from no process). *)
type slot = { pos : int; mutable rank : int }

type t = {
  epoch : int;
  slots : (int, slot) Hashtbl.t;  (* object id -> DFS position + owner *)
  order : Kobj.t array;  (* live objects in root-DFS preorder *)
  names : string array;  (* process rank -> process name *)
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
