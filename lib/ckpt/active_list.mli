(** Dual-function active page list (§4.3.2).

    Tracks page hotness from copy-on-write faults and holds the set of
    DRAM-cached hot pages.  At checkpoint time non-leader cores traverse
    sub-lists of this list to (a) stop-and-copy dirty DRAM pages, (b)
    migrate newly-hot pages NVM-to-DRAM and (c) demote pages idle for too
    long back to NVM.  The list itself is volatile (DRAM): it is dropped on
    crash and repopulates from scratch after a restore. *)

module Pagetable = Treesls_kernel.Pagetable

type entry = Pagetable.page
(** The list links page descriptors; it owns their [hotness], [idle],
    [dram] and [active] fields. *)

type config = {
  hot_threshold : int;  (** faults before a page is appended (default 2) *)
  idle_limit : int;  (** clean checkpoints before demotion (default 8) *)
  max_cached : int;  (** cap on DRAM-cached pages *)
}

val default_config : config

type t

val create : config -> t
val config : t -> config

val record_fault : t -> entry -> unit
(** Bump hotness; append to the list once the threshold is crossed (and
    the cache cap is not exceeded). *)

val entries : t -> entry list
(** Live entries in append order. *)

val sublists : t -> cores:int -> entry list array
(** Partition the live entries for parallel traversal by [cores] cores. *)

val cached_count : t -> int
(** Pages currently DRAM-resident. *)

val drop : t -> entry -> unit
(** Demotion: remove from the list and clear hotness. *)

val forget : t -> (int -> bool) -> unit
(** Drop the entries of every PMO whose id the predicate accepts (the PMO
    left the tree; its ORoot is being collected). *)

val compact : t -> unit
(** Remove dead entries from the backing list (called once per checkpoint). *)

val clear : t -> unit
(** Crash/restore: forget everything. *)
