(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload (serve-ycsb, kv-write-big or crash-sweep) for about
   S seconds of host time: set-up, a measured window and a correctness
   check, repeated while the time lasts.  Simulated-clock metrics must be
   bit-identical across those repetitions (and between traced and
   untraced ones); host-clock metrics are their medians, scaled to a
   reference machine speed (see {!Host.reference}).  Prints each
   metric by name with its unit, then, as the last line, one JSON object
   with [correct], [attempted], [failed] and [metrics]: the end-to-end
   metrics untraced, the per-layer ones with [--trace 1].  Exits 1 when
   an output is wrong, 2 on bad arguments. *)

let workloads = [ W_serve.workload; W_kv.workload; W_crash.workload ]

(* set-up runs at least this often, so setup_s is a median *)
let min_setups = 5

(* Where the traced run's spans are written at exit. *)
let span_dir = "_perfbench"

type window = {
  secs : float;
  outcome : Workload.outcome;
  gc0 : Host.gc_mark;
  gc1 : Host.gc_mark;
  spans : Span.t;
}

type rep = {
  traced : bool;
  setup_s : float;
  boot_s : float;
  setup_sim : Workload.metrics;
  window : window option;
}

let usage () =
  prerr_endline "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.Workload.name) workloads));
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match List.find_opt (fun w -> w.Workload.name = !workload) workloads with
  | Some w when !seconds > 0 && (!trace = 0 || !trace = 1) -> (w, !seed, !seconds, !trace = 1)
  | _ -> usage ()

let run_rep (w : Workload.t) ~seed ~traced ~with_window =
  (* start every repetition from a compacted heap, so one repetition's
     garbage does not slow the next *)
  Gc.compact ();
  for _ = 1 to 3 do
    ignore (Host.reference ())
  done;
  let sp = Span.create ~on:traced in
  let t0 = Host.now_ns () in
  let p = w.Workload.setup ~seed sp in
  let setup_s = Host.seconds_since t0 in
  let window =
    if not with_window then None
    else begin
      Span.reset sp;
      let gc0 = Host.gc_mark () in
      let root = Span.name sp "bench.window" in
      let t1 = Host.now_ns () in
      Span.enter sp;
      let outcome = p.Workload.window () in
      ignore (Span.leave sp root ~req:0);
      let secs = Host.seconds_since t1 in
      let gc1 = Host.gc_mark () in
      p.Workload.check ();
      Some { secs; outcome; gc0; gc1; spans = sp }
    end
  in
  { traced; setup_s; boot_s = p.Workload.boot_s; setup_sim = p.Workload.setup_sim; window }

(* Simulated metrics must repeat exactly: across repetitions of one seed,
   and between traced and untraced runs. *)
let check_identical what (a : Workload.metrics) (b : Workload.metrics) =
  if List.map fst a <> List.map fst b then failwith (what ^ ": metric sets differ between runs");
  List.iter2
    (fun (name, x) (_, y) ->
      if Int64.bits_of_float x <> Int64.bits_of_float y then
        failwith (Printf.sprintf "%s: %s is %.17g in one run and %.17g in another" what name x y))
    a b

let windows ~traced reps =
  List.filter_map (fun r -> if r.traced = traced then r.window else None) reps

let median = Samples.median_float
let raw_rate w = w.outcome.Workload.rate

(* Each window's rate scaled by the reference measured during it, so the
   machine's drift between windows cancels too. *)
let rate w = Host.scale_rate ~ref_ns:w.outcome.Workload.ref_ns (raw_rate w)
let ops w = float_of_int (max 1 w.outcome.Workload.ops)
let minor_words_per_op w = (w.gc1.Host.minor_words -. w.gc0.Host.minor_words) /. ops w

let majors_per_kop w =
  float_of_int (w.gc1.Host.major_collections - w.gc0.Host.major_collections) /. ops w *. 1000.0

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let emit ~correct ~attempted ~failed (cat : Catalogue.metric list) values =
  List.iter
    (fun (m : Catalogue.metric) ->
      Printf.printf "%-34s %20s %s\n" m.Catalogue.name
        (fmt_value (List.assoc m.Catalogue.name values))
        m.Catalogue.unit)
    cat;
  let body =
    List.map
      (fun (m : Catalogue.metric) ->
        let v = List.assoc m.Catalogue.name values in
        let v = if Float.is_finite v then v else 0.0 in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Catalogue.name (fmt_value v)
          m.Catalogue.unit)
      cat
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    (max 1 attempted) failed (String.concat ", " body)

let write_spans (w : Workload.t) traced =
  match List.rev traced with
  | [] -> ()
  | last :: _ ->
    if not (Sys.file_exists span_dir) then Sys.mkdir span_dir 0o755;
    Span.write_tsv last.spans (Filename.concat span_dir (w.Workload.name ^ ".spans.tsv"))

(* Self time per op of each layer, a layer being a span name's prefix. *)
let self_per_op w =
  let per_layer = Hashtbl.create 8 in
  List.iter
    (fun (name, ns) ->
      let layer = List.hd (String.split_on_char '.' name) in
      let prev = Option.value ~default:0 (Hashtbl.find_opt per_layer layer) in
      Hashtbl.replace per_layer layer (ns + prev))
    (Span.self_times w.spans);
  List.map
    (fun l ->
      ( "self_us_per_op." ^ l,
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt per_layer l)) /. 1000.0 /. ops w ))
    Catalogue.self_layers

let () =
  let w, seed, seconds, trace = parse_args () in
  let start = Host.now_ns () in
  let reps = ref [] in
  (* peak RSS as of the first window: later repetitions would raise it by
     heap fragmentation, and how many run depends on the machine *)
  let peak_rss = ref 0.0 in
  let result =
    try
      (* Windows: traced and untraced alternate in a traced invocation. *)
      let rec loop i last_s =
        let elapsed = Host.seconds_since start in
        if i = 0
           || (trace && i < w.Workload.min_traced_windows)
           || elapsed +. last_s <= float_of_int seconds
        then begin
          let t0 = Host.now_ns () in
          let traced = trace && i mod 2 = 0 in
          reps := run_rep w ~seed ~traced ~with_window:true :: !reps;
          if i = 0 then peak_rss := Host.peak_rss_mb ();
          loop (i + 1) (Host.seconds_since t0)
        end
        else i
      in
      let n = loop 0 0.0 in
      for i = n to min_setups - 1 do
        reps := run_rep w ~seed ~traced:(trace && i mod 2 = 0) ~with_window:false :: !reps
      done;
      let reps = List.rev !reps in
      let first = List.hd reps in
      List.iter (fun r -> check_identical "set-up" first.setup_sim r.setup_sim) reps;
      let ws = List.filter_map (fun r -> r.window) reps in
      let w0 = List.hd ws in
      List.iter
        (fun w -> check_identical "window" w0.outcome.Workload.sim w.outcome.Workload.sim)
        ws;
      Ok (reps, ws)
    with e -> Error (Printexc.to_string e)
  in
  match result with
  | Error msg ->
    Printf.eprintf "perfbench %s: INCORRECT: %s\n%!" w.Workload.name msg;
    let cat = if trace then Catalogue.per_layer else Catalogue.end_to_end in
    emit ~correct:false ~attempted:1 ~failed:1 cat
      (List.map (fun (m : Catalogue.metric) -> (m.Catalogue.name, 0.0)) cat);
    exit 1
  | Ok (reps, ws) ->
    let sum f = List.fold_left (fun acc w -> acc + f w.outcome) 0 ws in
    let attempted = sum (fun o -> o.Workload.ops) in
    let failed = sum (fun o -> o.Workload.refused) in
    let untraced = windows ~traced:false reps in
    let traced = windows ~traced:true reps in
    let sim = (List.hd ws).outcome.Workload.sim @ (List.hd reps).setup_sim in
    let time = Host.scale_time in
    let values =
      if not trace then
        [
          ("setup_s", time (median (List.map (fun r -> r.setup_s) reps)));
          ("ops_per_s", median (List.map rate untraced));
          ("peak_rss_mb", !peak_rss);
        ]
        @ sim
      else begin
        let host_names = List.map fst (List.hd traced).outcome.Workload.host in
        let host_median name =
          time (median (List.map (fun w -> List.assoc name w.outcome.Workload.host) traced))
        in
        let gc_ws = if untraced <> [] then untraced else traced in
        (* tracing overhead: untraced vs traced windows of this process;
           with a single (long) traced window, the recorder's own cost
           per span times the spans it closed, over the window *)
        let overhead =
          match (untraced, traced) with
          | _ :: _, _ ->
            let u = median (List.map rate untraced) and t = median (List.map rate traced) in
            (u -. t) /. u *. 100.0
          | [], w :: _ ->
            float_of_int (Span.closed w.spans) *. Span.pair_cost_ns () /. (w.secs *. 1e9) *. 100.0
          | [], [] -> 0.0
        in
        sim
        @ List.map (fun n -> (n, host_median n)) host_names
        @ List.map (fun (n, v) -> (n, time v)) (self_per_op (List.hd (List.rev traced)))
        @ [
            ("core.boot_s", time (median (List.map (fun r -> r.boot_s) reps)));
            ("gc.minor_words_per_op", median (List.map minor_words_per_op gc_ws));
            ("gc.major_per_kop", median (List.map majors_per_kop gc_ws));
            ("obs.trace_overhead_pct", overhead);
            ("bench.ref_ms", float_of_int (Host.ref_ns ()) /. 1e6);
            ("bench.raw_ops_per_s", median (List.map raw_rate gc_ws));
            ("error_rate", float_of_int failed /. float_of_int (max 1 attempted));
          ]
      end
    in
    let cat = if trace then Catalogue.per_layer else Catalogue.end_to_end in
    let values =
      List.map
        (fun (m : Catalogue.metric) ->
          (m.Catalogue.name, Option.value ~default:0.0 (List.assoc_opt m.Catalogue.name values)))
        cat
    in
    write_spans w traced;
    Printf.printf "perfbench %s: seed %d, %d windows (%d traced), %d set-ups, %.1f s\n"
      w.Workload.name seed (List.length ws) (List.length traced) (List.length reps)
      (Host.seconds_since start);
    emit ~correct:true ~attempted ~failed cat values
