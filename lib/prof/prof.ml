(* The instrumentation switch, the monotonic clock, and a JSON builder:
   the base the other two observability layers stand on ([Metrics] keeps
   every counter and histogram, [Trace] every span; see DESIGN.md
   "Instrumentation").

   - One switch. [Metrics] reads and sets this flag, so turning either on
     turns on every counter, gauge and latency histogram of the library.
     [SYMPILER_METRICS=1] in the environment sets it at program start.
     Trace's span ring keeps a switch of its own.
   - One clock. [now_ns] is CLOCK_MONOTONIC through the bechamel stub, an
     [@@noalloc] external returning an unboxed int64, so a timing pair in
     integer nanoseconds allocates nothing; [now_seconds] is the same
     clock as a float for callers that report seconds. *)

let on =
  ref
    (match Sys.getenv_opt "SYMPILER_METRICS" with
    | Some ("1" | "true" | "on") -> true
    | Some _ | None -> false)

let enabled () = !on
let enable () = on := true
let disable () = on := false
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_seconds () = float_of_int (now_ns ()) /. 1e9

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let rec emit buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        (* JSON has no inf/nan; emit null for non-finite values. *)
        if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.9g" f)
        else Buffer.add_string buf "null"
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            emit buf x)
          xs;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\":";
            emit buf v)
          kvs;
        Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 256 in
    emit buf t;
    Buffer.contents buf

  (* Recursive-descent parser for the subset of JSON the emitter above
     produces (which is all of JSON minus exotic number forms). Added for
     the perf-regression gate, which must read committed BENCH_*.json
     baselines back. *)

  exception Parse_error of string

  let of_string (s : string) : (t, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then s.[!pos] else '\x00' in
    let advance () = incr pos in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        incr pos
      done
    in
    let expect c =
      if peek () = c then advance () else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal lit v =
      let l = String.length lit in
      if !pos + l <= n && String.sub s !pos l = lit then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" lit)
    in
    let utf8_add buf code =
      if code < 0x80 then Buffer.add_char buf (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> advance ()
          | '\\' ->
              advance ();
              (if !pos >= n then fail "dangling escape"
               else
                 match s.[!pos] with
                 | '"' -> Buffer.add_char buf '"'; advance ()
                 | '\\' -> Buffer.add_char buf '\\'; advance ()
                 | '/' -> Buffer.add_char buf '/'; advance ()
                 | 'n' -> Buffer.add_char buf '\n'; advance ()
                 | 't' -> Buffer.add_char buf '\t'; advance ()
                 | 'r' -> Buffer.add_char buf '\r'; advance ()
                 | 'b' -> Buffer.add_char buf '\b'; advance ()
                 | 'f' -> Buffer.add_char buf '\012'; advance ()
                 | 'u' ->
                     if !pos + 4 >= n then fail "truncated \\u escape";
                     let hex = String.sub s (!pos + 1) 4 in
                     (match int_of_string_opt ("0x" ^ hex) with
                     | None -> fail "invalid \\u escape"
                     | Some code ->
                         utf8_add buf code;
                         pos := !pos + 5)
                 | c -> fail (Printf.sprintf "invalid escape '\\%c'" c));
              go ()
          | c ->
              Buffer.add_char buf c;
              advance ();
              go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      if peek () = '-' then advance ();
      let is_float = ref false in
      let continue = ref true in
      while !continue && !pos < n do
        match s.[!pos] with
        | '0' .. '9' -> advance ()
        | '.' | 'e' | 'E' | '+' | '-' ->
            is_float := true;
            advance ()
        | _ -> continue := false
      done;
      let text = String.sub s start (!pos - start) in
      if !is_float then
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" text)
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> (
            match float_of_string_opt text with
            | Some f -> Float f
            | None -> fail (Printf.sprintf "bad number %S" text))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
          advance ();
          skip_ws ();
          if peek () = '}' then begin
            advance ();
            Obj []
          end
          else begin
            let kvs = ref [] in
            let continue = ref true in
            while !continue do
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              kvs := (k, v) :: !kvs;
              skip_ws ();
              match peek () with
              | ',' -> advance ()
              | '}' ->
                  advance ();
                  continue := false
              | _ -> fail "expected ',' or '}'"
            done;
            Obj (List.rev !kvs)
          end
      | '[' ->
          advance ();
          skip_ws ();
          if peek () = ']' then begin
            advance ();
            List []
          end
          else begin
            let xs = ref [] in
            let continue = ref true in
            while !continue do
              let v = parse_value () in
              xs := v :: !xs;
              skip_ws ();
              match peek () with
              | ',' -> advance ()
              | ']' ->
                  advance ();
                  continue := false
              | _ -> fail "expected ',' or ']'"
            done;
            List (List.rev !xs)
          end
      | '"' -> Str (parse_string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | '-' | '0' .. '9' -> parse_number ()
      | _ -> fail "unexpected character"
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing content";
      v
    with
    | v -> Ok v
    | exception Parse_error msg -> Error msg
end
