(* Counter deltas over a measured stretch, read from what the system
   already exposes: its metrics snapshot and its wearmap. *)

module System = Treesls.System
module Metrics = Treesls_obs.Metrics
module Wearmap = Treesls_obs.Wearmap

(* Every writer subsystem the simulator attributes NVM bytes to; bytes
   anywhere else (including the unattributed sink) fail the run. *)
let wear_subsystems =
  [
    "app";
    "extsync";
    "nvm.journal";
    "nvm.meta";
    "nvm.swap";
    "ckpt.captree";
    "ckpt.snapshot";
    "ckpt.cow";
    "ckpt.cow_fault";
    "ckpt.hybrid";
    "ckpt.drain";
    "restore";
    "restore.journal";
  ]

type mark = { counters : (string * int) list; wear_total : int; wear : (string * int) list }

let mark sys =
  let wm = System.wearmap sys in
  {
    counters = (System.metrics_snapshot sys).Metrics.counters;
    wear_total = Wearmap.total_bytes wm;
    wear = List.map (fun (name, _, bytes) -> (name, bytes)) (Wearmap.subsystems wm);
  }

let get l name = Option.value ~default:0 (List.assoc_opt name l)

(* Sum of two marks, name by name, to total deltas over several systems. *)
let add_mark acc m =
  match acc with
  | None -> m
  | Some a ->
    let add l1 l2 =
      let names = List.sort_uniq String.compare (List.map fst l1 @ List.map fst l2) in
      List.map (fun n -> (n, get l1 n + get l2 n)) names
    in
    {
      counters = add a.counters m.counters;
      wear_total = a.wear_total + m.wear_total;
      wear = add a.wear m.wear;
    }
let counter_delta a b name = get b.counters name - get a.counters name
let nvm_bytes a b = b.wear_total - a.wear_total

(* Raise if any NVM byte written between the marks went to a subsystem
   outside the known vocabulary, or the subsystems do not add up. *)
let check_wear a b =
  let sum = ref 0 in
  List.iter
    (fun (name, bytes) ->
      let d = bytes - get a.wear name in
      sum := !sum + d;
      if d > 0 && not (List.mem name wear_subsystems) then
        failwith (Printf.sprintf "%d NVM bytes attributed to unknown subsystem %S" d name))
    b.wear;
  if !sum <> nvm_bytes a b then
    failwith (Printf.sprintf "wear subsystems sum to %d, total delta %d" !sum (nvm_bytes a b))

let per_op ~ops a b =
  let per name v = (name, float_of_int v /. float_of_int (max 1 ops)) in
  [
    per "kernel.syscalls_per_op" (counter_delta a b "kernel.syscalls");
    per "kernel.ipc_per_op" (counter_delta a b "ipc.calls");
    per "kernel.cow_faults_per_op" (counter_delta a b "kernel.faults.cow");
    per "kernel.alloc_faults_per_op" (counter_delta a b "kernel.faults.alloc");
    per "nvm.txn_words_per_op" (counter_delta a b "nvm.txn.words");
    per "nvm.alloc_pages_per_op" (counter_delta a b "nvm.alloc.pages");
  ]
  @ List.map
      (fun sub -> per ("nvm.bytes_per_op." ^ sub) (get b.wear sub - get a.wear sub))
      wear_subsystems
