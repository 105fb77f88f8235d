(* The host clock and host-side resource readings: what running the
   simulator costs, as opposed to the simulated clock it computes. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Machine speed.  A shared host's speed drifts by tens of percent over
   minutes, for the simulator and for any other code alike.  A fixed
   reference kernel — allocation and hash-table work in the stdlib only,
   nothing from the repository, so no change to the program can speed it
   up — is timed between measured chunks, and host times are reported
   scaled to a machine on which it takes [nominal_ref_ns]:
   time x nominal / reference, rate x reference / nominal. *)
let nominal_ref_ns = 10_000_000

let ref_samples = Samples.create ()
let ref_page = Bytes.create 4096

let reference () =
  let t0 = now_ns () in
  let h = Hashtbl.create 4096 in
  let acc = ref 0 in
  for i = 0 to 40_000 do
    let k = i * 7919 land 16383 in
    match Hashtbl.find_opt h k with
    | Some b ->
      Bytes.blit ref_page 0 b 0 64;
      acc := !acc + Bytes.length b
    | None -> Hashtbl.replace h k (Bytes.create 256)
  done;
  ignore (Sys.opaque_identity !acc);
  let ns = now_ns () - t0 in
  Samples.add ref_samples ns;
  ns

(* Median reference time of this process, in ns. *)
let ref_ns () = Samples.percentile ref_samples 50.0
let scale_time t = t *. float_of_int nominal_ref_ns /. float_of_int (ref_ns ())

(* A rate measured while the reference took [ref_ns]. *)
let scale_rate ~ref_ns r = r *. float_of_int ref_ns /. float_of_int nominal_ref_ns

(* Peak resident set size of this process, in MiB (VmHWM). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
        | line ->
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
          else scan ()
      in
      scan ())

type gc_mark = { minor_words : float; major_collections : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }
