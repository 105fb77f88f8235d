(* What a workload hands to main.ml.

   [setup] builds the system and warms it up; main.ml times it as
   set-up.  [window] is the measured stretch; main.ml times it on the
   host clock.  [check] verifies the program's outputs afterwards, outside
   any timed stretch, and raises [Failure] on a violation.

   Simulated-clock metrics ([sim]) are deterministic for a seed: the
   main.ml requires them bit-identical across every run of one process,
   traced or not.  Host-clock per-layer metrics ([host]) come only from
   traced windows. *)

type metrics = (string * float) list

type outcome = {
  ops : int;  (** work units completed: requests, KV ops or crash schedules *)
  refused : int;  (** attempted but refused: shed replies, a full store, failed schedules *)
  rate : float;
      (** ops per host second, unscaled: the median chunk rate ({!Chunks}),
          or the whole sweep's rate for crash-sweep *)
  ref_ns : int;  (** median machine-speed reference time during the window *)
  sim : metrics;
  host : metrics;
}

type prepared = {
  boot_s : float;  (** host time of System.boot within set-up *)
  setup_sim : metrics;  (** simulated metrics produced by set-up itself *)
  window : unit -> outcome;
  check : unit -> unit;
}

type t = {
  name : string;
  min_traced_windows : int;
      (** windows a traced invocation runs at least (traced and untraced
          alternate, so 2 also gives a same-process untraced baseline) *)
  setup : seed:int -> Span.t -> prepared;
}
