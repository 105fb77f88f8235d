module Pagetable = Treesls_kernel.Pagetable

type entry = Pagetable.page
type config = { hot_threshold : int; idle_limit : int; max_cached : int }

let default_config = { hot_threshold = 2; idle_limit = 8; max_cached = 1024 }

type t = {
  cfg : config;
  mutable list : entry list;  (** reverse append order; dropped pages linger until [compact] *)
  mutable live : int;
}

let create cfg = { cfg; list = []; live = 0 }
let config t = t.cfg

let record_fault t (pg : entry) =
  pg.hotness <- pg.hotness + 1;
  if (not pg.active) && pg.hotness >= t.cfg.hot_threshold && t.live < t.cfg.max_cached then begin
    pg.active <- true;
    pg.idle <- 0;
    pg.dram <- false;
    t.list <- pg :: t.list;
    t.live <- t.live + 1
  end

let entries t = List.rev (List.filter (fun (pg : entry) -> pg.active) t.list)

let sublists t ~cores =
  let cores = max 1 cores in
  let buckets = Array.make cores [] in
  List.iteri (fun i e -> buckets.(i mod cores) <- e :: buckets.(i mod cores)) (entries t);
  Array.map List.rev buckets

let cached_count t = List.length (List.filter (fun (pg : entry) -> pg.active && pg.dram) t.list)

let drop t (pg : entry) =
  if pg.active then begin
    pg.active <- false;
    pg.hotness <- 0;
    t.live <- t.live - 1
  end

let compact t = t.list <- List.filter (fun (pg : entry) -> pg.active) t.list

let forget t dead =
  List.iter (fun (pg : entry) -> if dead pg.pmo.Treesls_cap.Kobj.pmo_id then drop t pg) t.list;
  compact t

let clear t =
  List.iter (drop t) t.list;
  t.list <- []
