(* Performance-regression gate over repository-benchmark results.

     perf_gate check BASE CUR
     perf_gate inflate FILE FACTOR OUT

   BASE, CUR and FILE hold perfbench result lines, one per run (seed): the
   last stdout line of `perfbench/run.py`. Run from the repository root,
   where BENCHMARK.json declares the end-to-end metrics, each with the
   direction that is better and a relative bound.

   `check` fails (exit 1) when, for any end-to-end metric, CUR's median
   over its lines is worse than BASE's by more than the metric's bound, in
   its better direction; or when CUR fails a larger share of its requests
   (failed / attempted over all lines) than BASE. A metric missing from a
   line, or an unreadable file, exits 2.

   `inflate` writes FILE with every timing made FACTOR times worse:
   values in s or ms are multiplied by FACTOR, values in 1/s divided by it.
   It is a synthetic regression for testing the gate itself. *)

module Json = Sympiler_prof.Prof.Json

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perf_gate: " ^ msg);
      exit 2)
    fmt

let parse file s =
  match Json.of_string s with Ok d -> d | Error e -> die "%s: %s" file e

let field file k = function
  | Json.Obj fs -> (
      match List.assoc_opt k fs with
      | Some v -> v
      | None -> die "%s: no field %S" file k)
  | _ -> die "%s: expected an object holding %S" file k

let number file = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> die "%s: expected a number" file

let read_lines file =
  In_channel.with_open_text file In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (parse file)

(* BENCHMARK.json's end-to-end metrics: (name, lower is better, bound). *)
let end_to_end () =
  let spec =
    parse "BENCHMARK.json"
      (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all)
  in
  match field "BENCHMARK.json" "end_to_end" spec with
  | Json.List ms ->
      List.map
        (fun m ->
          let str k =
            match field "BENCHMARK.json" k m with
            | Json.Str s -> s
            | _ -> die "BENCHMARK.json: %S is not a string" k
          in
          ( str "name",
            str "better" = "lower",
            number "BENCHMARK.json" (field "BENCHMARK.json" "bound" m) ))
        ms
  | _ -> die "BENCHMARK.json: end_to_end is not a list"

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let metric file name line =
  number file (field file "value" (field file name (field file "metrics" line)))

let fail_share file lines =
  let sum k =
    List.fold_left (fun acc l -> acc +. number file (field file k l)) 0.0 lines
  in
  sum "failed" /. Float.max 1.0 (sum "attempted")

let check base_file cur_file =
  let base = read_lines base_file and cur = read_lines cur_file in
  if base = [] || cur = [] then die "no result lines";
  let failures = ref [] in
  List.iter
    (fun (name, lower_better, bound) ->
      let b = median (List.map (metric base_file name) base) in
      let c = median (List.map (metric cur_file name) cur) in
      let worse =
        if lower_better then c > b *. (1.0 +. bound)
        else c < b *. (1.0 -. bound)
      in
      Printf.printf "  %-12s base %12.5g  cur %12.5g  bound %4.0f%%  %s\n" name
        b c (bound *. 100.0)
        (if worse then "WORSE" else "ok");
      if worse then failures := name :: !failures)
    (end_to_end ());
  let fb = fail_share base_file base and fc = fail_share cur_file cur in
  Printf.printf "  %-12s base %12.5g  cur %12.5g\n" "fail_share" fb fc;
  if fc > fb then failures := "fail_share" :: !failures;
  if !failures = [] then
    Printf.printf "perf_gate: %s vs %s: ok\n" base_file cur_file
  else begin
    Printf.printf "%!";
    Printf.eprintf "perf_gate: %s vs %s: worse: %s\n" base_file cur_file
      (String.concat ", " (List.rev !failures));
    exit 1
  end

(* A timing metric made [factor] times worse; other units unchanged. *)
let inflate_metric file factor (name, m) =
  let unit = field file "unit" m in
  let scale =
    match unit with
    | Json.Str ("s" | "ms") -> factor
    | Json.Str "1/s" -> 1.0 /. factor
    | _ -> 1.0
  in
  let value = scale *. number file (field file "value" m) in
  (name, Json.Obj [ ("value", Json.Float value); ("unit", unit) ])

let inflate_line file factor = function
  | Json.Obj fs ->
      Json.Obj
        (List.map
           (function
             | "metrics", Json.Obj ms ->
                 ("metrics", Json.Obj (List.map (inflate_metric file factor) ms))
             | kv -> kv)
           fs)
  | _ -> die "%s: a result line is not an object" file

let usage () =
  prerr_endline
    "usage: perf_gate check BASE CUR\n       perf_gate inflate FILE FACTOR OUT";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "check"; base; cur ] -> check base cur
  | [ _; "inflate"; file; factor; out ] ->
      let factor =
        match float_of_string_opt factor with
        | Some f when f > 0.0 -> f
        | _ -> usage ()
      in
      let lines = List.map (inflate_line file factor) (read_lines file) in
      Out_channel.with_open_text out (fun oc ->
          List.iter
            (fun l ->
              Out_channel.output_string oc (Json.to_string l);
              Out_channel.output_char oc '\n')
            lines)
  | _ -> usage ()
