(* Structured trace spans over the monotonic clock: the phase timer of the
   instrumentation spine (see DESIGN.md "Instrumentation"). Two constraints
   shape the implementation:

   - Disabled must be free on kernel hot paths: every entry point is guarded
     by a single load of [on], and the disabled branches neither allocate
     nor read the clock — so [begin_span]/[end_span] pairs may sit inside
     the plans' zero-allocation steady-state loops.

   - Enabled must be bounded: completed spans go into a ring buffer of
     mutable slots preallocated by [enable]; recording mutates slot fields
     in place, and when the ring is full each new span overwrites the
     oldest (counted by [dropped_spans]) rather than growing.

   Timestamps are [Prof.now_ns] monotonic nanoseconds stored as native
   ints (63 bits spans ~146 years), which keeps slot writes box-free.
   Spans land in the ring at *completion*, so parents appear after their
   children; exporters that need begin-order sort by [start_ns]. *)

module Prof = Sympiler_prof.Prof
module Json = Prof.Json

type attr = Bool of bool | Int of int | Float of float | Str of string

type kind = Span | Instant

type span = {
  name : string;
  start_ns : int;
  dur_ns : int;
  depth : int;
  kind : kind;
  attrs : (string * attr) list;
}

(* Ring slots are mutated in place; a slot never escapes (readers copy into
   the immutable [span] record). *)
type slot = {
  mutable s_name : string;
  mutable s_start : int;
  mutable s_dur : int;
  mutable s_depth : int;
  mutable s_kind : kind;
  mutable s_attrs : (string * attr) list;
}

let mk_slot () =
  { s_name = ""; s_start = 0; s_dur = 0; s_depth = 0; s_kind = Span; s_attrs = [] }

let on = ref false
let enabled () = !on

let default_capacity = 65536

let ring : slot array ref = ref [||]
let head = ref 0 (* index of the oldest recorded span *)
let count = ref 0
let dropped = ref 0

(* Open-span stack as parallel arrays (grown on demand, never shrunk). *)
let stk_names = ref (Array.make 64 "")
let stk_starts = ref (Array.make 64 0)
let stk_attrs : (string * attr) list array ref = ref (Array.make 64 [])
let depth = ref 0

let reset () =
  head := 0;
  count := 0;
  dropped := 0;
  depth := 0

let enable ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Trace.enable: capacity must be >= 1";
  if Array.length !ring <> capacity then begin
    ring := Array.init capacity (fun _ -> mk_slot ());
    reset ()
  end;
  on := true

let disable () = on := false

let record name start dur d kind attrs =
  let r = !ring in
  let cap = Array.length r in
  if cap > 0 then begin
    let idx = if !count < cap then (!head + !count) mod cap else !head in
    let s = r.(idx) in
    s.s_name <- name;
    s.s_start <- start;
    s.s_dur <- dur;
    s.s_depth <- d;
    s.s_kind <- kind;
    s.s_attrs <- attrs;
    if !count < cap then incr count
    else begin
      (* Full: the slot just written was the oldest; advance past it. *)
      head := (!head + 1) mod cap;
      incr dropped
    end
  end

let grow_stack () =
  let old = Array.length !stk_names in
  let n = 2 * old in
  let names = Array.make n "" and starts = Array.make n 0 in
  let attrs = Array.make n [] in
  Array.blit !stk_names 0 names 0 old;
  Array.blit !stk_starts 0 starts 0 old;
  Array.blit !stk_attrs 0 attrs 0 old;
  stk_names := names;
  stk_starts := starts;
  stk_attrs := attrs

let begin_span name =
  if !on then begin
    if !depth >= Array.length !stk_names then grow_stack ();
    !stk_names.(!depth) <- name;
    !stk_attrs.(!depth) <- [];
    !stk_starts.(!depth) <- Prof.now_ns ();
    incr depth
  end

let end_span () =
  if !on && !depth > 0 then begin
    decr depth;
    let d = !depth in
    let t0 = !stk_starts.(d) in
    record !stk_names.(d) t0 (Prof.now_ns () - t0) d Span
      (List.rev !stk_attrs.(d))
  end

let set_attr key v =
  if !on && !depth > 0 then
    !stk_attrs.(!depth - 1) <- (key, v) :: !stk_attrs.(!depth - 1)

let with_span ?attrs name f =
  if not !on then f ()
  else begin
    begin_span name;
    (match attrs with
    | None -> ()
    | Some l -> List.iter (fun (k, v) -> set_attr k v) l);
    Fun.protect ~finally:end_span f
  end

let instant ?(attrs = []) name =
  if !on then record name (Prof.now_ns ()) 0 !depth Instant attrs

(* ---------------------------- Decision log ---------------------------- *)

type decision = {
  pass : string;
  fired : bool;
  metric : string;
  value : float;
  threshold : float;
}

let decision_attrs d =
  [
    ("fired", Bool d.fired);
    ("metric", Str d.metric);
    ("value", Float d.value);
    ("threshold", Float d.threshold);
  ]

let decision d =
  if !on then instant ~attrs:(decision_attrs d) ("decision." ^ d.pass)

(* ----------------------------- Inspection ----------------------------- *)

let span_count () = !count
let dropped_spans () = !dropped

let spans () =
  let cap = Array.length !ring in
  List.init !count (fun k ->
      let s = !ring.((!head + k) mod cap) in
      {
        name = s.s_name;
        start_ns = s.s_start;
        dur_ns = s.s_dur;
        depth = s.s_depth;
        kind = s.s_kind;
        attrs = s.s_attrs;
      })

(* ----------------------------- Exporters ------------------------------ *)

let attr_json = function
  | Bool b -> Json.Bool b
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.Str s

(* Chrome trace-event format: complete ("X") events carry microsecond
   ts/dur and nest by time containment, which Perfetto renders as a flame
   chart; instants are "i" events with thread scope. [ts] counts from the
   earliest exported span, not from the monotonic clock's origin (boot):
   JSON floats print with 9 significant digits, so after about 17 minutes
   of uptime a from-boot ts would lose whole microseconds and misplace
   short spans and their nesting. *)
let to_chrome_json () =
  let all = spans () in
  let t0 = List.fold_left (fun m s -> min m s.start_ns) max_int all in
  let event s =
    let common =
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str "sympiler");
        ("ph", Json.Str (match s.kind with Span -> "X" | Instant -> "i"));
        ("ts", Json.Float (float_of_int (s.start_ns - t0) /. 1e3));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
      ]
    in
    let phase =
      match s.kind with
      | Span -> [ ("dur", Json.Float (float_of_int s.dur_ns /. 1e3)) ]
      | Instant -> [ ("s", Json.Str "t") ]
    in
    let args =
      match s.attrs with
      | [] -> []
      | l -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, attr_json v)) l)) ]
    in
    Json.Obj (common @ phase @ args)
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (List.map event all));
         ("displayTimeUnit", Json.Str "ns");
       ])

(* Folded stacks: replay spans in begin order, maintaining the current
   ancestor path by depth; each span adds its duration to its own path and
   subtracts it from its parent's, leaving self time per path. Children of
   spans the ring dropped chain to a stale path prefix — unavoidable under
   wraparound and harmless for a profile. *)
let to_folded () =
  let arr =
    spans () |> List.filter (fun s -> s.kind = Span) |> Array.of_list
  in
  Array.sort
    (fun a b ->
      if a.start_ns <> b.start_ns then compare a.start_ns b.start_ns
      else compare a.depth b.depth)
    arr;
  let totals : (string, int ref) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  let add path v =
    match Hashtbl.find_opt totals path with
    | Some r -> r := !r + v
    | None ->
        Hashtbl.add totals path (ref v);
        order := path :: !order
  in
  let path = ref (Array.make 16 "") in
  Array.iter
    (fun s ->
      if s.depth >= Array.length !path then begin
        let np = Array.make (2 * (s.depth + 1)) "" in
        Array.blit !path 0 np 0 (Array.length !path);
        path := np
      end;
      !path.(s.depth) <- s.name;
      let key =
        String.concat ";" (Array.to_list (Array.sub !path 0 (s.depth + 1)))
      in
      add key s.dur_ns;
      if s.depth > 0 then begin
        let parent =
          String.concat ";" (Array.to_list (Array.sub !path 0 s.depth))
        in
        add parent (-s.dur_ns)
      end)
    arr;
  let buf = Buffer.create 256 in
  List.iter
    (fun key ->
      let v = !(Hashtbl.find totals key) in
      if v > 0 then Buffer.add_string buf (Printf.sprintf "%s %d\n" key v))
    (List.rev !order);
  Buffer.contents buf
