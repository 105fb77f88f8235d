module Kobj = Treesls_cap.Kobj
module Radix = Treesls_cap.Radix

type page = {
  pmo : Kobj.pmo;
  pno : int;
  mutable maps : pte list;
  mutable dirty_ptes : int;
  mutable dirty_unmapped : bool;
  mutable hotness : int;
  mutable idle : int;
  mutable dram : bool;
  mutable active : bool;
  mutable owed : bool;
}

and pte = {
  vpn : int;
  page : page;
  mutable paddr : Treesls_nvm.Paddr.t;
  mutable writable : bool;
  mutable dirty : bool;
}

type t = { entries : pte Radix.t; mutable dirty_list : pte list; mutable dirty_n : int }

let new_page pmo pno =
  {
    pmo;
    pno;
    maps = [];
    dirty_ptes = 0;
    dirty_unmapped = false;
    hotness = 0;
    idle = 0;
    dram = false;
    active = false;
    owed = false;
  }

let create () = { entries = Radix.create (); dirty_list = []; dirty_n = 0 }

let mark_dirty t pte =
  t.dirty_list <- pte :: t.dirty_list;
  t.dirty_n <- t.dirty_n + 1

let map t ~vpn page ~paddr ~writable =
  if Radix.mem t.entries vpn then invalid_arg "Pagetable.map: already mapped";
  let pte = { vpn; page; paddr; writable; dirty = false } in
  Radix.set t.entries vpn pte;
  page.maps <- pte :: page.maps;
  if writable then mark_dirty t pte;
  pte

let lookup t ~vpn = Radix.get t.entries vpn

let set_dirty pte =
  if not pte.dirty then begin
    pte.dirty <- true;
    pte.page.dirty_ptes <- pte.page.dirty_ptes + 1
  end

let clean pte =
  if pte.dirty then begin
    pte.dirty <- false;
    pte.page.dirty_ptes <- pte.page.dirty_ptes - 1
  end

(* The mapping leaves the page, but a dirty bit it carried stays with the
   page until the next [clear_page_dirty]; it leaves the dirty list too
   (the list skips read-only entries). *)
let detach pte =
  let pg = pte.page in
  if pte.dirty then pg.dirty_unmapped <- true;
  clean pte;
  pte.writable <- false;
  pg.maps <- List.filter (fun p -> p != pte) pg.maps

let unmap t ~vpn =
  Option.iter detach (lookup t ~vpn);
  Radix.remove t.entries vpn

let unmap_all t =
  Radix.iter (fun _ pte -> detach pte) t.entries;
  Radix.clear t.entries;
  t.dirty_list <- [];
  t.dirty_n <- 0

let protect pte = pte.writable <- false

(* Drop CoW protection without entering the dirty-tracking list: the drain
   uses this to reopen pages whose copy is already banked, where
   [make_writable] would wrongly nominate them for the next protect pass. *)
let unprotect pte = pte.writable <- true

let make_writable t pte =
  if not pte.writable then begin
    pte.writable <- true;
    mark_dirty t pte
  end

let remap pte paddr = pte.paddr <- paddr

let remap_page pg paddr =
  Radix.set pg.pmo.Kobj.pmo_radix pg.pno paddr;
  List.iter (fun pte -> remap pte paddr) pg.maps

let dirty_count t = t.dirty_n

let protect_dirty t f =
  let n = ref 0 in
  List.iter
    (fun pte ->
      if pte.writable && f pte then begin
        pte.writable <- false;
        incr n
      end)
    t.dirty_list;
  t.dirty_list <- [];
  t.dirty_n <- 0;
  !n

let mapped_count t = Radix.cardinal t.entries
let iter f t = Radix.iter (fun _ pte -> f pte) t.entries
let page_dirty pg = pg.dirty_ptes > 0 || pg.dirty_unmapped

let clear_page_dirty pg =
  List.iter clean pg.maps;
  pg.dirty_unmapped <- false
