(** Per-process page tables and the volatile page descriptors they map.

    Page tables live in DRAM and are {e not} checkpointed: "TreeSLS
    duplicates the list of virtual memory regions to the backup tree, and
    ignores the page table structure as the page tables can be rebuilt
    after recovery" (§4.1).  After a restore each process starts with an
    empty page table and faults mappings back in from its VM regions.

    PTEs are indexed by vpn in a radix tree (no hashing; a sparse vpn costs
    a few interior nodes, not memory in proportion to the vpn).  Every PTE
    points at the {!page} descriptor of the (PMO, page) it maps, and the
    descriptor lists the PTEs mapping it, so the fault hooks, the hybrid
    copy and the drain reach a page's metadata through pointers.

    The writable bit doubles as the dirty-tracking mechanism for
    checkpointing: a PTE made writable since the last checkpoint is exactly
    a page modified since the last checkpoint.  The dirty list makes the
    checkpoint-time "mark newly-changed pages read-only" pass proportional
    to the number of dirty pages, not mapped pages. *)

module Kobj = Treesls_cap.Kobj

(** One descriptor per (PMO, page) that has ever been mapped, like Linux's
    [struct page]: volatile, it dies with a crash.  The kernel owns
    [maps] and the dirty state; the checkpoint manager owns the rest. *)
type page = {
  pmo : Kobj.pmo;
  pno : int;
  mutable maps : pte list;  (** the PTEs currently mapping the page *)
  mutable dirty_ptes : int;  (** how many of [maps] have their dirty bit set *)
  mutable dirty_unmapped : bool;
      (** a mapping unmapped while dirty (its process exited): the page
          stays dirty until {!clear_page_dirty} *)
  mutable hotness : int;  (** CoW faults counted toward the active list *)
  mutable idle : int;  (** consecutive checkpoints without modification *)
  mutable dram : bool;  (** currently migrated to the DRAM cache *)
  mutable active : bool;  (** on the active page list *)
  mutable owed : bool;  (** a deferred drain copy is outstanding *)
}

and pte = private {
  vpn : int;
  page : page;
  mutable paddr : Treesls_nvm.Paddr.t;
  mutable writable : bool;
  mutable dirty : bool;  (** hardware-style dirty bit: set on write access *)
}

type t

val new_page : Kobj.pmo -> int -> page
(** A fresh descriptor: unmapped, clean, cold. *)

val create : unit -> t

val map : t -> vpn:int -> page -> paddr:Treesls_nvm.Paddr.t -> writable:bool -> pte
(** Installs a mapping of the page and adds it to the page's [maps]. A
    writable mapping is recorded as dirty. Raises [Invalid_argument] if
    [vpn] is already mapped. *)

val unmap : t -> vpn:int -> unit
(** Remove a mapping (no-op if unmapped). Its dirty bit stays with the
    page. *)

val unmap_all : t -> unit
(** {!unmap} every mapping (process exit). *)

val lookup : t -> vpn:int -> pte option

val set_dirty : pte -> unit
(** Post-write: set the hardware dirty bit. *)

val clean : pte -> unit
(** Clear the dirty bit of one mapping. *)

val protect : pte -> unit
(** Force a mapping read-only immediately (page demoted from the DRAM
    cache must resume copy-on-write tracking). *)

val make_writable : t -> pte -> unit
(** Fault path: upgrade to writable and record the page dirty. *)

val unprotect : pte -> unit
(** Drop CoW protection {e without} recording the page dirty: used by the
    asynchronous drain to reopen pages whose copy is already banked —
    {!make_writable} would wrongly nominate them for the next checkpoint's
    protect pass. *)

val remap : pte -> Treesls_nvm.Paddr.t -> unit
(** Replace the physical page of a mapping (page migration), preserving
    the writable and dirty bits. *)

val remap_page : page -> Treesls_nvm.Paddr.t -> unit
(** Point the PMO's radix entry and every mapping of the page at a new
    physical page (NVM/DRAM migration, swap; the data copy is the
    caller's). *)

val dirty_count : t -> int
(** Entries on the dirty list (a PTE re-protected and re-upgraded since
    the last {!protect_dirty} counts once per upgrade). *)

val protect_dirty : t -> (pte -> bool) -> int
(** Checkpoint pass over pages dirtied since the last call, most recent
    first: the callback decides per still-writable page whether to mark
    it read-only ([true]) or leave it writable ([false], used for
    DRAM-cached hot pages that are covered by stop-and-copy instead).
    Either way the page leaves the dirty list.  Returns how many were
    protected. *)

val mapped_count : t -> int
val iter : (pte -> unit) -> t -> unit

val page_dirty : page -> bool
(** Whether the page was written since its dirty state was last cleared:
    a mapping's dirty bit is set, or a mapping dropped while dirty. *)

val clear_page_dirty : page -> unit
(** Clear the dirty bit of every mapping of the page (checkpoint time). *)
