(* Host-clock span recorder for the traced run.

   A span is one call the benchmark makes into a layer: name, start, end,
   parent span and request id (0 when the call serves no single request).
   Spans stay in memory and are written out once, at exit.  Self time —
   a span's duration minus the part its child spans cover — is summed
   per name as each span closes, so it is exact over every span even
   when more spans close than the retention cap keeps.  A disabled
   recorder costs one branch per call. *)

let retain_cap = 1 lsl 18
let max_depth = 64

type t = {
  on : bool;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable self_ns : int array;  (* per name id *)
  (* retained closed spans, parallel arrays *)
  r_id : int array;
  r_name : int array;
  r_start : int array;
  r_end : int array;
  r_parent : int array;
  r_req : int array;
  mutable kept : int;
  mutable closed : int;
  mutable next_id : int;
  (* open-span stack *)
  o_id : int array;
  o_start : int array;
  o_child_ns : int array;
  mutable depth : int;
}

let create ~on =
  let cap = if on then retain_cap else 0 in
  {
    on;
    names = Hashtbl.create 16;
    name_of = [||];
    self_ns = [||];
    r_id = Array.make cap 0;
    r_name = Array.make cap 0;
    r_start = Array.make cap 0;
    r_end = Array.make cap 0;
    r_parent = Array.make cap 0;
    r_req = Array.make cap 0;
    kept = 0;
    closed = 0;
    next_id = 1;
    o_id = Array.make max_depth 0;
    o_start = Array.make max_depth 0;
    o_child_ns = Array.make max_depth 0;
    depth = 0;
  }

let enabled t = t.on

(* Intern a span name once, outside any hot loop. *)
let name t s =
  match Hashtbl.find_opt t.names s with
  | Some id -> id
  | None ->
    let id = Array.length t.name_of in
    Hashtbl.add t.names s id;
    t.name_of <- Array.append t.name_of [| s |];
    t.self_ns <- Array.append t.self_ns [| 0 |];
    id

(* Open a span; it is named when it closes, because some calls (a
   checkpoint tick) are only classified by what they did. *)
let enter t =
  if t.on then begin
    let d = t.depth in
    if d = max_depth then failwith "Span.enter: nesting too deep";
    t.o_id.(d) <- t.next_id;
    t.next_id <- t.next_id + 1;
    t.o_child_ns.(d) <- 0;
    t.depth <- d + 1;
    t.o_start.(d) <- Host.now_ns ()
  end

(* Close the innermost open span under name [id]; returns its duration in
   ns (0 when the recorder is off). *)
let leave t id ~req =
  if not t.on then 0
  else begin
    let stop = Host.now_ns () in
    let d = t.depth - 1 in
    if d < 0 then failwith "Span.leave: no open span";
    t.depth <- d;
    let dur = stop - t.o_start.(d) in
    t.self_ns.(id) <- t.self_ns.(id) + dur - t.o_child_ns.(d);
    let parent = if d > 0 then t.o_id.(d - 1) else 0 in
    if d > 0 then t.o_child_ns.(d - 1) <- t.o_child_ns.(d - 1) + dur;
    if t.kept < retain_cap then begin
      let k = t.kept in
      t.r_id.(k) <- t.o_id.(d);
      t.r_name.(k) <- id;
      t.r_start.(k) <- t.o_start.(d);
      t.r_end.(k) <- stop;
      t.r_parent.(k) <- parent;
      t.r_req.(k) <- req;
      t.kept <- k + 1
    end;
    t.closed <- t.closed + 1;
    dur
  end

(* [(name, self ns)] for every interned name. *)
let self_times t = Array.to_list (Array.mapi (fun i n -> (n, t.self_ns.(i))) t.name_of)


(* One line per retained span, oldest close first:
   id, name, start ns, end ns, parent id, request id. *)
let write_tsv t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      Printf.fprintf oc "# spans closed=%d kept=%d\n" t.closed t.kept;
      output_string oc "id\tname\tstart_ns\tend_ns\tparent\treq\n";
      for k = 0 to t.kept - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" t.r_id.(k) t.name_of.(t.r_name.(k))
          t.r_start.(k) t.r_end.(k) t.r_parent.(k) t.r_req.(k)
      done)

(* Forget everything recorded so far (set-up spans), keeping the names. *)
let reset t =
  if t.depth <> 0 then failwith "Span.reset: spans still open";
  Array.fill t.self_ns 0 (Array.length t.self_ns) 0;
  t.kept <- 0;
  t.closed <- 0

(* Host cost of one enter/leave pair, measured on a scratch recorder. *)
let pair_cost_ns () =
  let t = create ~on:true in
  let id = name t "calibrate" in
  let n = 100_000 in
  let t0 = Host.now_ns () in
  for _ = 1 to n do
    enter t;
    ignore (leave t id ~req:0)
  done;
  float_of_int (Host.now_ns () - t0) /. float_of_int n

let closed t = t.closed
