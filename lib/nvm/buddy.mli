(** Buddy allocator for NVM pages.

    The checkpoint manager "uses a buddy system to manage all NVM resources"
    (§3).  State is a complete binary tree stored in the journaled word area
    ({!Warea}): node [i] records how far the largest free run of pages below
    it falls short of the node's natural size, so allocation descends in
    O(log n) and freeing merges buddies by recomputing ancestors.  A
    parallel array records the order of each live allocation (order + 1;
    0 = none) so that a mismatched [free] is detected, and one counter word
    records the used pages.  Every word therefore reads 0 when its pages are
    free: an all-zero area is a fully free allocator.

    Every mutation goes through a {!Txn}; a crash at any phase leaves the
    tree either before or after the whole operation. *)

type t

val words_needed : total_pages:int -> int
(** Words of {!Warea} this allocator occupies for [total_pages] (a power of
    two). *)

val format : Warea.t -> base:int -> total_pages:int -> t
(** Initialise a fresh allocator (boot time; all pages free).  The
    [words_needed] words from [base] must be zero-filled, as
    {!Warea.create} leaves them: format then journals one word (the used
    page counter) in one transaction, whatever [total_pages] is. *)

val attach : Warea.t -> base:int -> total_pages:int -> t
(** Re-attach to existing state after a crash (no reformat). *)

val total_pages : t -> int
val free_pages : t -> int
(** [total_pages] minus the stored used-page counter. *)

val alloc_txn : Txn.t -> t -> order:int -> int option
(** Reserve a block of [2^order] pages inside an open transaction; returns
    the page offset. The reservation only becomes durable when the
    transaction commits. *)

val free_txn : Txn.t -> t -> offset:int -> unit
(** Release the block starting at [offset]. Raises [Invalid_argument] if
    [offset] is not the start of a live allocation. *)

val alloc : t -> order:int -> int option
(** [alloc_txn] + commit as a single-op transaction. *)

val free : t -> offset:int -> unit

val order_of : t -> offset:int -> int option
(** Order of the live allocation at [offset], if any. *)

val iter_live : t -> (offset:int -> order:int -> unit) -> unit
(** Visit every live allocation (read-only walk of the order array; used by
    the state auditor to reconcile allocator accounting with reachable
    objects). *)

val live_pages : t -> int
(** Pages covered by live allocations ([total_pages - free_pages] when the
    free counter is consistent). *)

val check_invariants : t -> unit
(** One allocation-free pass over the tree and order tags: rejects a
    misaligned tag, overlapping blocks, a node that disagrees with its
    children (or, under a live block, is not 0) and a wrong page counter.
    Raises [Failure] on divergence. *)
