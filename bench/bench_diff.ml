(* bench_diff: compare freshly generated BENCH_<exp>.json files against the
   committed copies and print per-metric deltas (ISSUE 8 satellite; what
   `make bench-diff` and `make ci` run).

     bench_diff.exe FRESH_DIR COMMITTED_DIR

   For every BENCH_*.json in FRESH_DIR, rows are keyed by their config
   (sorted key=value pairs); each metric present on both sides is printed
   with its absolute and relative change, and rows or metrics present on
   only one side are called out.  The report is informational — drift is
   expected as the simulator evolves — so the exit code only reflects
   usage/parse errors (1), never metric movement.

   The container has no JSON library, so this carries a minimal
   recursive-descent parser for the harness's own output format. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some '"' -> Buffer.add_char b '"'; advance (); go ()
        | Some '\\' -> Buffer.add_char b '\\'; advance (); go ()
        | Some '/' -> Buffer.add_char b '/'; advance (); go ()
        | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
        | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
        | Some 'r' -> Buffer.add_char b '\r'; advance (); go ()
        | Some 'b' -> Buffer.add_char b '\b'; advance (); go ()
        | Some 'f' -> Buffer.add_char b '\012'; advance (); go ()
        | Some 'u' ->
          (* \uXXXX: decode the code point to UTF-8 (enough for
             Trace.json_escape, the escaper behind every JSON file the
             harness and the audit write) *)
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          let cp = try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape" in
          if cp < 0x80 then Buffer.add_char b (Char.chr cp)
          else if cp < 0x800 then begin
            Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
            Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
          end
          else begin
            Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
            Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
          end;
          go ()
        | _ -> fail "bad escape")
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        elements ();
        List (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* --- BENCH_<exp>.json shape -> (config key, metric assoc) rows --------- *)

let obj_field name = function Obj fields -> List.assoc_opt name fields | _ -> None

(* one row's identity: the experiment's config, rendered canonically *)
let config_key json =
  match json with
  | Obj fields ->
    let kvs =
      List.filter_map
        (fun (k, v) -> match v with Str s -> Some (k, s) | Num f -> Some (k, Printf.sprintf "%g" f) | _ -> None)
        fields
    in
    let kvs = List.sort compare kvs in
    String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) kvs)
  | _ -> "?"

let rows_of_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  match parse contents with
  | Obj _ as top -> (
    match obj_field "experiments" top with
    | Some (List exps) ->
      List.concat_map
        (fun e ->
          let name = match obj_field "name" e with Some (Str s) -> s | _ -> "?" in
          match obj_field "rows" e with
          | Some (List rows) ->
            List.map
              (fun row ->
                let cfg =
                  match obj_field "config" row with Some c -> config_key c | None -> "?"
                in
                let metrics =
                  match obj_field "metrics" row with
                  | Some (Obj fields) ->
                    List.filter_map
                      (fun (k, v) -> match v with Num f -> Some (k, f) | _ -> None)
                      fields
                  | _ -> []
                in
                (name, cfg, metrics))
              rows
          | _ -> [])
        exps
    | _ -> failwith (path ^ ": no experiments array"))
  | _ -> failwith (path ^ ": not a JSON object")

(* --- diff --------------------------------------------------------------- *)

let diff_file ~fresh ~committed name =
  Printf.printf "== %s ==\n" name;
  if not (Sys.file_exists committed) then begin
    Printf.printf "  (new: no committed %s yet)\n" (Filename.basename committed);
    List.iter (fun (_, cfg, _) -> Printf.printf "  + %s\n" cfg) (rows_of_file fresh)
  end
  else begin
    let fresh_rows = rows_of_file fresh in
    let base_rows = rows_of_file committed in
    let changed = ref 0 and rows = ref 0 in
    List.iter
      (fun (_, cfg, metrics) ->
        match List.find_opt (fun (_, c, _) -> c = cfg) base_rows with
        | None -> Printf.printf "  + row %s (not in committed copy)\n" cfg
        | Some (_, _, base_metrics) ->
          incr rows;
          List.iter
            (fun (k, fresh_v) ->
              match List.assoc_opt k base_metrics with
              | None -> Printf.printf "  %s: + %s = %g (new metric)\n" cfg k fresh_v
              | Some base_v ->
                if fresh_v <> base_v then begin
                  incr changed;
                  let pct =
                    if base_v = 0.0 then "n/a"
                    else Printf.sprintf "%+.1f%%" ((fresh_v -. base_v) /. Float.abs base_v *. 100.0)
                  in
                  Printf.printf "  %s: %s %g -> %g (%s)\n" cfg k base_v fresh_v pct
                end)
            metrics;
          List.iter
            (fun (k, _) ->
              if not (List.mem_assoc k metrics) then
                Printf.printf "  %s: - %s (metric dropped)\n" cfg k)
            base_metrics)
      fresh_rows;
    List.iter
      (fun (_, cfg, _) ->
        if not (List.exists (fun (_, c, _) -> c = cfg) fresh_rows) then
          Printf.printf "  - row %s (only in committed copy)\n" cfg)
      base_rows;
    if !changed = 0 then Printf.printf "  %d rows, no metric changes\n" !rows
    else Printf.printf "  %d rows, %d metric changes\n" !rows !changed
  end

let () =
  match Array.to_list Sys.argv with
  | [ _; fresh_dir; committed_dir ] ->
    if not (Sys.is_directory fresh_dir) then begin
      Printf.eprintf "bench_diff: %s is not a directory\n" fresh_dir;
      exit 1
    end;
    let files =
      Sys.readdir fresh_dir |> Array.to_list
      |> List.filter (fun f ->
             String.length f > 6
             && String.sub f 0 6 = "BENCH_"
             && Filename.check_suffix f ".json")
      |> List.sort compare
    in
    if files = [] then Printf.printf "bench_diff: no BENCH_*.json in %s\n" fresh_dir;
    (try
       List.iter
         (fun f ->
           diff_file ~fresh:(Filename.concat fresh_dir f) ~committed:(Filename.concat committed_dir f)
             f)
         files
     with
    | Parse_error msg | Failure msg ->
      Printf.eprintf "bench_diff: %s\n" msg;
      exit 1)
  | argv0 :: _ ->
    Printf.eprintf "usage: %s FRESH_DIR COMMITTED_DIR\n" (Filename.basename argv0);
    exit 1
  | [] -> exit 1
