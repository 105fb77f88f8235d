module Histogram = Treesls_util.Histogram

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, int ref) Hashtbl.t;
  timers : (string, Histogram.t) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 32; gauges = Hashtbl.create 16; timers = Hashtbl.create 16 }

let cell tbl name =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace tbl name r;
    r

let add t name n =
  let r = cell t.counters name in
  r := !r + n

let set_gauge t name v =
  let r = cell t.gauges name in
  r := v

let timer t name =
  match Hashtbl.find_opt t.timers name with
  | Some h -> h
  | None ->
    let h = Histogram.create () in
    Hashtbl.replace t.timers name h;
    h

let observe t name ns = Histogram.add (timer t name) ns

let counter_value t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0
let histogram t name = Hashtbl.find_opt t.timers name

let timer_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.timers [] |> List.sort String.compare

type timer_summary = {
  tm_count : int;
  tm_total_ns : int;
  tm_mean_ns : float;
  tm_p50_ns : int;
  tm_p99_ns : int;
  tm_max_ns : int;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  timers : (string * timer_summary) list;
}

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot (t : t) =
  {
    counters = sorted_bindings t.counters (fun r -> !r);
    gauges = sorted_bindings t.gauges (fun r -> !r);
    timers =
      sorted_bindings t.timers (fun h ->
          {
            tm_count = Histogram.count h;
            tm_total_ns = Histogram.total h;
            tm_mean_ns = Histogram.mean h;
            tm_p50_ns = Histogram.percentile h 50.0;
            tm_p99_ns = Histogram.percentile h 99.0;
            tm_max_ns = Histogram.max_value h;
          });
  }

let reset (t : t) =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.timers

let pp_snapshot ppf s =
  Format.fprintf ppf "counters:@.";
  List.iter (fun (k, v) -> Format.fprintf ppf "  %-32s %d@." k v) s.counters;
  if s.gauges <> [] then begin
    Format.fprintf ppf "gauges:@.";
    List.iter (fun (k, v) -> Format.fprintf ppf "  %-32s %d@." k v) s.gauges
  end;
  if s.timers <> [] then begin
    Format.fprintf ppf "timers (us):@.";
    List.iter
      (fun (k, tm) ->
        Format.fprintf ppf "  %-32s n=%-8d mean=%-10.2f p50=%-10.2f p99=%-10.2f max=%.2f@." k
          tm.tm_count (tm.tm_mean_ns /. 1e3)
          (float_of_int tm.tm_p50_ns /. 1e3)
          (float_of_int tm.tm_p99_ns /. 1e3)
          (float_of_int tm.tm_max_ns /. 1e3))
      s.timers
  end

let snapshot_to_json s =
  let b = Buffer.create 1024 in
  let esc = Trace.json_escape in
  let kv_ints l =
    String.concat "," (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" (esc k) v) l)
  in
  Buffer.add_string b (Printf.sprintf "{\"counters\":{%s},\"gauges\":{%s},\"timers\":{" (kv_ints s.counters) (kv_ints s.gauges));
  List.iteri
    (fun i (k, tm) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\"%s\":{\"count\":%d,\"total_ns\":%d,\"mean_ns\":%.1f,\"p50_ns\":%d,\"p99_ns\":%d,\"max_ns\":%d}"
           (esc k) tm.tm_count tm.tm_total_ns tm.tm_mean_ns tm.tm_p50_ns tm.tm_p99_ns tm.tm_max_ns))
    s.timers;
  Buffer.add_string b "}}";
  Buffer.contents b
