(* Host throughput measured in chunks: the window is cut every [every]
   commits, and each chunk yields its own ops per host second.  The
   median chunk rate is the window's throughput: a burst of other load
   on the machine stretches a few chunks and leaves the median alone.
   Between chunks, off the clock, the machine-speed reference runs once
   ({!Host.reference}). *)

type t = {
  every : int;
  rates : Samples.t;  (* ops per host second, x1000 to keep 3 decimals as ints *)
  refs : Samples.t;  (* reference-kernel times between chunks, ns *)
  mutable t0 : int;
  mutable ops0 : int;
  mutable marks0 : int;
}

let create ~every =
  { every; rates = Samples.create (); refs = Samples.create (); t0 = 0; ops0 = 0; marks0 = 0 }

(* Forget earlier chunks (warm-up) and start the first one now. *)
let start t ~ops ~marks =
  Samples.clear t.rates;
  Samples.clear t.refs;
  t.t0 <- Host.now_ns ();
  t.ops0 <- ops;
  t.marks0 <- marks

(* [marks] is a running count of commits; a chunk closes once [every]
   of them have passed. *)
let note t ~ops ~marks =
  if marks - t.marks0 >= t.every then begin
    let now = Host.now_ns () in
    let ns = max 1 (now - t.t0) in
    Samples.add t.rates ((ops - t.ops0) * 1_000_000_000_000 / ns);
    Samples.add t.refs (Host.reference ());
    t.t0 <- Host.now_ns ();
    t.ops0 <- ops;
    t.marks0 <- marks
  end

let median_rate t = float_of_int (Samples.percentile t.rates 50.0) /. 1000.0

(* Median reference time over the window; the process's when no chunk
   closed. *)
let median_ref t =
  if Samples.count t.refs = 0 then Host.ref_ns () else Samples.percentile t.refs 50.0
