(* Zero means free.  Tree node [i] of natural size [s] stores
   [s - longest free run below it], the counter stores used pages and an
   order tag stores [order + 1] (0 = none), so an all-zero area is a fully
   free allocator and [format] journals one word.  A fully free node always
   has an all-zero subtree: [alloc_txn] only claims a fully free node (its
   subtree stays zero while the block is live), [free_txn] zeroes the
   block's node again, and a parent only reads 0 once both children do. *)
type t = {
  area : Warea.t;
  base : int;
  total : int; (* pages; power of two *)
  top : int; (* log2 total: the root's order *)
  tree : int; (* word offset of tree[1..2*total) *)
  orders : int; (* word offset of per-page alloc order (+1; 0 = none) *)
  used_count : int; (* word offset of the used page counter *)
}

let words_needed ~total_pages = (2 * total_pages) + total_pages + 1

let layout area ~base ~total_pages =
  if not (Treesls_util.Bits.is_power_of_two total_pages) then
    invalid_arg "Buddy: total_pages must be a power of two";
  {
    area;
    base;
    total = total_pages;
    top = Treesls_util.Bits.log2_int total_pages;
    tree = base;
    orders = base + (2 * total_pages);
    used_count = base + (2 * total_pages) + total_pages;
  }

let format area ~base ~total_pages =
  let t = layout area ~base ~total_pages in
  (* The zero-filled area already reads as all free; the one-word
     transaction keeps format a single commit point. *)
  let txn = Txn.create area in
  Txn.write txn t.used_count 0;
  Txn.commit txn ~desc:"buddy-format";
  t

let attach area ~base ~total_pages = layout area ~base ~total_pages

let total_pages t = t.total
let free_pages t = t.total - Warea.read t.area t.used_count

(* Longest free run below [node] of natural size [size]. *)
let longest txn t node size = size - Txn.read txn (t.tree + node)

(* Re-derive the ancestors of [node] (natural size [size]) after it
   changed: a parent of two fully free children is fully free, else its
   longest run is its children's longer one. *)
let rec fix_up txn t node size =
  if node > 1 then begin
    let parent = node / 2 in
    let l = Txn.read txn (t.tree + (2 * parent)) and r = Txn.read txn (t.tree + (2 * parent) + 1) in
    Txn.write txn (t.tree + parent) (if l = 0 && r = 0 then 0 else size + if l < r then l else r);
    fix_up txn t parent (2 * size)
  end

let alloc_txn txn t ~order =
  if order < 0 || 1 lsl order > t.total then invalid_arg "Buddy.alloc: bad order";
  let size = 1 lsl order in
  if longest txn t 1 t.total < size then None
  else begin
    (* Descend to a node of exactly [size] whose subtree has a free run,
       preferring the left child. *)
    let rec descend node nsize =
      if nsize = size then node
      else begin
        let left = 2 * node and half = nsize / 2 in
        if longest txn t left half >= size then descend left half else descend (left + 1) half
      end
    in
    let node = descend 1 t.total in
    let offset = (node * size) - t.total in
    Txn.write txn (t.tree + node) size;
    fix_up txn t node size;
    Txn.write txn (t.orders + offset) (order + 1);
    Txn.write txn t.used_count (Txn.read txn t.used_count + size);
    Some offset
  end

let free_txn txn t ~offset =
  if offset < 0 || offset >= t.total then invalid_arg "Buddy.free: bad offset";
  let tag = Txn.read txn (t.orders + offset) in
  if tag = 0 then invalid_arg "Buddy.free: not a live allocation";
  let size = 1 lsl (tag - 1) in
  let node = (t.total + offset) / size in
  Txn.write txn (t.tree + node) 0;
  Txn.write txn (t.orders + offset) 0;
  fix_up txn t node size;
  Txn.write txn t.used_count (Txn.read txn t.used_count - size)

let alloc t ~order =
  let txn = Txn.create t.area in
  match alloc_txn txn t ~order with
  | None -> None
  | Some offset ->
    Txn.commit txn ~desc:"buddy-alloc";
    Some offset

let free t ~offset =
  let txn = Txn.create t.area in
  free_txn txn t ~offset;
  Txn.commit txn ~desc:"buddy-free"

let order_of t ~offset =
  let tag = Warea.read t.area (t.orders + offset) in
  if tag = 0 then None else Some (tag - 1)

let iter_live t f =
  for p = 0 to t.total - 1 do
    let tag = Warea.read t.area (t.orders + p) in
    if tag > 0 then f ~offset:p ~order:(tag - 1)
  done

let live_pages t =
  let n = ref 0 in
  iter_live t (fun ~offset:_ ~order -> n := !n + (1 lsl order));
  !n

(* One pass over node [node] of order [k] covering pages [lo, lo + 2^k),
   [inside] a live block or not; returns the pages its blocks cover.  A
   block is the node whose first page carries tag [k + 1].  Every stored
   node is checked: under a live block it must still read 0 (fully free,
   so a later free is exact), elsewhere it must match its children, which
   are checked first. *)
let rec check_node t node k lo inside =
  let tag = Warea.read t.area (t.orders + lo) in
  let block = tag = k + 1 in
  if block && inside then failwith "buddy: overlapping allocations";
  let below =
    if k = 0 then begin
      if tag > 0 && (tag - 1 > t.top || lo land ((1 lsl (tag - 1)) - 1) <> 0) then
        failwith "buddy: misaligned allocation record";
      0
    end
    else begin
      let inner = inside || block in
      check_node t (2 * node) (k - 1) lo inner
      + check_node t ((2 * node) + 1) (k - 1) (lo + (1 lsl (k - 1))) inner
    end
  in
  let expected =
    if block then 1 lsl k
    else if inside || k = 0 then 0
    else begin
      let l = Warea.read t.area (t.tree + (2 * node))
      and r = Warea.read t.area (t.tree + (2 * node) + 1) in
      if l = 0 && r = 0 then 0 else (1 lsl (k - 1)) + if l < r then l else r
    end
  in
  let got = Warea.read t.area (t.tree + node) in
  if got <> expected then
    failwith (Printf.sprintf "buddy: node %d stores %d <> expected %d" node got expected);
  if block then 1 lsl k else below

let check_invariants t =
  let used = check_node t 1 t.top 0 false in
  let stored = Warea.read t.area t.used_count in
  if stored <> used then
    failwith
      (Printf.sprintf "buddy: free count %d <> recomputed %d" (t.total - stored) (t.total - used))
