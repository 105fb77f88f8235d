(* A growable array of integer samples (ns, bytes, counts) with exact
   order statistics. *)

type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 1024 0; n = 0 }

let add t v =
  if t.n = Array.length t.a then begin
    let a = Array.make (2 * t.n) 0 in
    Array.blit t.a 0 a 0 t.n;
    t.a <- a
  end;
  t.a.(t.n) <- v;
  t.n <- t.n + 1

let count t = t.n
let clear t = t.n <- 0

(* Release every pending start time at [now]: each becomes a latency
   sample in [into], and [pending] empties. *)
let release ~pending ~into ~now =
  for k = 0 to pending.n - 1 do
    add into (now - pending.a.(k))
  done;
  clear pending

(* Nearest-rank percentile ([p] in [0, 100]); 0 when empty. *)
let percentile t p =
  if t.n = 0 then 0
  else begin
    let s = Array.sub t.a 0 t.n in
    Array.sort Int.compare s;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n)) in
    s.(max 0 (min (t.n - 1) (rank - 1)))
  end

(* The highest of p99, p95 and p90 with at least ten samples beyond it
   (p90 below 200 samples). *)
let tail_pct n = if n >= 1000 then 99.0 else if n >= 200 then 95.0 else 90.0

let tail t = percentile t (tail_pct t.n)

(* Median of a float list (mean of the middle pair when even). *)
let median_float = function
  | [] -> 0.0
  | l ->
    let s = Array.of_list l in
    Array.sort Float.compare s;
    let n = Array.length s in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0
