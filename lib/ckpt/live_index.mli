(** The checkpoint walk's cached view of the live capability tree.

    Built by one DFS from the root whenever the kernel's edge epoch has
    moved since the last build (or after boot and restore): the set of
    reachable objects, each one's root-DFS preorder position, and the
    process it is attributed to in [Report.per_group].  While the epoch
    stands still no object can become reachable or unreachable, so the
    walk takes the dirty set, keeps the live entries and visits them in
    cached DFS order — the same objects in the same order as a full walk
    that skips clean ones. *)

module Kobj = Treesls_cap.Kobj
module Kernel = Treesls_kernel.Kernel

type t

val build : Kernel.t -> t

val epoch : t -> int
(** The kernel's edge epoch when the index was built. *)

val size : t -> int
(** Live object count. *)

val order : t -> Kobj.t array
(** Every live object in root-DFS preorder ({!Kobj.iter_tree} order). *)

val is_live : t -> int -> bool

val owner : t -> int -> string
(** Attribution of a live object: the first process, in
    [Kernel.processes] order, whose subtree reaches it; ["kernel"] when no
    process does. *)

val live_dirty : t -> Kobj.log -> Kobj.t list
(** The log's dirty objects that are live, in DFS order. *)

