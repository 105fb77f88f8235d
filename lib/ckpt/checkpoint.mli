(** The stop-the-world checkpoint procedure (Figure 5).

    Steps: (1) IPI all cores into quiescence; (2) the leader walks the
    runtime capability tree and copies the state of every object mutated
    since its last checkpoint into its ORoot backups (the kernel's dirty
    set, see {!Live_index}) — user pages are {e not} copied, dirty ones are
    re-marked read-only; (3) in parallel, the other cores traverse the active page
    list performing hybrid copy (stop-and-copy of dirty DRAM pages,
    NVM/DRAM migrations); (4) the global version number is bumped — the
    atomic commit point; (5) cores resume; then registered checkpoint
    callbacks fire (external synchrony, §5) and ORoots of objects that left
    the tree are garbage-collected.

    Leader work is charged to the simulated clock as it happens; parallel
    hybrid-copy work is charged to per-core meters and the clock is
    advanced by any excess of the slowest core over the leader. *)

val run : State.t -> Report.t
(** Take one whole-system checkpoint and return its measurements.

    Under a [Lazy n] drain policy ([features.drain]), dirty
    DRAM-cached pages are protected and enqueued instead of copied: the
    STW stays O(dirty objects), [run] returns a partial report for the
    {e staged} version, and the version bump — with the GC, extsync
    callbacks, wear accounting and black-box sample — waits in the settle
    step until the backlog drains.  Any window still pending when [run] is
    entered is force-settled first (one staged version in flight, ever). *)

val drain_step : State.t -> int
(** One asynchronous drain step (called between operations): copy the
    next [n] backlog pages ([Lazy n]) on the follower cores, settling
    the window when the backlog empties. Returns pages copied; 0 when no
    window is pending. *)

val settle : State.t -> unit
(** Force the pending window (if any) durable now: drain the remaining
    backlog and commit. No-op when nothing is pending. *)

val cow_fault : State.t -> Treesls_kernel.Pagetable.page -> unit
(** The kernel's write-fault hook on a protected page (step 6): with
    [copy_on_fault] on, bank the page's backup before the write lands —
    against the committed version, or, while a drain window is pending,
    resolving the owed copy (backlogged DRAM page) or banking a backup
    valid for both the staged and the committed version (protected NVM
    page); with [hybrid] on, record the fault for hotness tracking. *)

