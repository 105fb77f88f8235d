(** Asynchronous checkpoint drain: the backlog, CoW tables and staged
    (pending) version of a capture whose page copies were deferred off the
    stop-the-world path.

    Pure window state — the orchestration (when to copy, when to settle,
    how faults resolve) lives in [Checkpoint]; the tick/settle entry
    points are exposed through [Manager] and [System].

    Crash discipline: the backlog and restamp tables model DRAM-resident
    bookkeeping and die with a power failure ({!note_crash}); the saved
    frames are NVM-resident and survive until restore's [drain_settle]
    phase frees them ({!abandon}). *)

module Paddr = Treesls_nvm.Paddr
module Store = Treesls_nvm.Store
module Pagetable = Treesls_kernel.Pagetable

type policy =
  | Eager  (** copy every dirty DRAM-cached page inside the STW (default) *)
  | Lazy of int
      (** defer those copies to the backlog and copy this many pages per
          drain step (>= 1, checked at boot); [Lazy max_int] empties the
          whole backlog at the first step *)

type pending = {
  p_ver : int;  (** the staged (uncommitted) version *)
  p_live : Live_index.t option;
      (** the live index this STW rebuilt (the tree's edges changed), for
          the dead-ORoot GC deferred to settle; [None] when nothing can
          have died *)
  p_stw_t0 : int;
  p_stw_t1 : int;
  p_enqueued : int;  (** backlog size at publish = pages deferred *)
  p_report : Report.t;  (** STW-side partial report, finalised at settle *)
  mutable p_drained : int;
  mutable p_cow_faults : int;
  mutable p_drain_ns : int;
}

type t

val create : unit -> t
val backlog : t -> int
val pending : t -> pending option
val pending_version : t -> int option

val enqueue : t -> Pagetable.page -> unit
(** Owe a copy of a dirty DRAM-cached page protected at the STW: its
    stop-and-copy into the stale CPP slot is deferred to the drain.  Sets
    the descriptor's [owed] flag. *)

val take : t -> Pagetable.page -> bool
(** Claim the page's owed copy, if any — the fault path resolving a page
    out of drain order. *)

val pop : t -> Pagetable.page option
(** Next owed page in drain order (pages claimed by {!take} are skipped
    lazily); [None] when the backlog is empty. *)

val queued : t -> Pagetable.page list
(** The drain queue as it stands, claimed pages included (for the
    descriptor audit). *)

val publish : t -> pending -> unit
(** Stage a window. At most one may be in flight. *)

val note_restamp : t -> int * int -> Ckpt_page.cp -> unit
(** The page was clean at the staged version and its CoW fault banked a
    pre-image valid for both versions: settle lifts [b1_ver] for free. *)

val note_saved : t -> int * int -> Ckpt_page.cp -> Paddr.t -> unit
(** The page was dirty at the staged version and its fault saved the
    staged content into [frame]: settle installs it as the new backup. *)

val saved_frames : t -> Paddr.t list
(** In-flight drain-saved frames (for the audit's allocator census). *)

val apply_settle : Store.t -> t -> ver:int -> unit
(** Apply restamps and install saved frames (freeing superseded slots);
    the caller commits the version bump right after. *)

val clear_pending : t -> unit
val note_crash : t -> unit
(** Power failure: drop the volatile backlog/restamp bookkeeping, keep the
    NVM-resident saved frames and the pending stamp for restore. *)

val abandon : Store.t -> t -> int
(** Restore's [drain_settle] phase: free the drain-saved frames of the
    abandoned staged version and clear the window. Returns the number of
    frames freed; idempotent. *)
