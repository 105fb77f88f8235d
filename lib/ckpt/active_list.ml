module Kobj = Treesls_cap.Kobj

type entry = {
  e_pmo : Kobj.pmo;
  e_pno : int;
  mutable e_hotness : int;
  mutable e_idle : int;
  mutable e_dram : bool;
  mutable e_live : bool;
}

type config = { hot_threshold : int; idle_limit : int; max_cached : int }

let default_config = { hot_threshold = 2; idle_limit = 8; max_cached = 1024 }

type t = {
  cfg : config;
  index : (int * int, entry) Hashtbl.t;  (** (pmo id, pno) -> entry *)
  hotness : (int * int, int) Hashtbl.t;  (** pages not (yet) in the list *)
  mutable list : entry list;  (** reverse append order *)
  mutable live : int;
}

let create cfg = { cfg; index = Hashtbl.create 256; hotness = Hashtbl.create 256; list = []; live = 0 }
let config t = t.cfg

let record_fault t pmo pno =
  let key = (pmo.Kobj.pmo_id, pno) in
  match Hashtbl.find_opt t.index key with
  | Some e -> e.e_hotness <- e.e_hotness + 1
  | None ->
    let h = 1 + Option.value ~default:0 (Hashtbl.find_opt t.hotness key) in
    if h >= t.cfg.hot_threshold && t.live < t.cfg.max_cached then begin
      Hashtbl.remove t.hotness key;
      let e = { e_pmo = pmo; e_pno = pno; e_hotness = h; e_idle = 0; e_dram = false; e_live = true } in
      Hashtbl.replace t.index key e;
      t.list <- e :: t.list;
      t.live <- t.live + 1
    end
    else Hashtbl.replace t.hotness key h

let entries t = List.rev (List.filter (fun e -> e.e_live) t.list)

let sublists t ~cores =
  let cores = max 1 cores in
  let buckets = Array.make cores [] in
  List.iteri (fun i e -> buckets.(i mod cores) <- e :: buckets.(i mod cores)) (entries t);
  Array.map List.rev buckets

let cached_count t = List.length (List.filter (fun e -> e.e_live && e.e_dram) t.list)

let drop t e =
  if e.e_live then begin
    e.e_live <- false;
    t.live <- t.live - 1;
    Hashtbl.remove t.index (e.e_pmo.Kobj.pmo_id, e.e_pno)
  end

let forget t dead =
  List.iter (fun e -> if dead e.e_pmo.Kobj.pmo_id then drop t e) t.list;
  Hashtbl.filter_map_inplace (fun (id, _) h -> if dead id then None else Some h) t.hotness

let compact t = t.list <- List.filter (fun e -> e.e_live) t.list

let clear t =
  Hashtbl.reset t.index;
  Hashtbl.reset t.hotness;
  t.list <- [];
  t.live <- 0
