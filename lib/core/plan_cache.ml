open Sympiler_sparse
module Metrics = Sympiler_metrics.Metrics

(* Serving metrics: all caches share one labeled family, since per-cache
   identity is not meaningful across plan lifetimes. *)
let m_hits = Metrics.counter "sympiler_plan_cache_hits" ~help:"Plan-cache lookups served"

let m_misses =
  Metrics.counter "sympiler_plan_cache_misses" ~help:"Plan-cache lookups that compiled"

let m_evictions =
  Metrics.counter "sympiler_plan_cache_evictions" ~help:"LRU entries evicted"

(* Pattern-keyed compilation cache (LRU). Sympiler's economics rest on the
   compile-once / execute-many regime: the symbolic phase is the expensive
   part (Figure 8), so a caller that meets the same sparsity structure
   twice should never pay it twice. The cache keys compiled handles by the
   *structure* of the input — [Csc.pattern_hash] over
   (nrows, ncols, colptr, rowind) — plus an [extra] integer fingerprint for
   anything else that shaped compilation (the options a family reads, the
   RHS pattern). Values never participate: a hit is returned for any numeric
   values sharing the pattern, which is exactly the contract of the
   compiled handles themselves.

   Eviction is least-recently-used over a fixed capacity; a logical clock
   bumped on every lookup orders the entries. Capacities are small (a
   handful of distinct patterns per application is the common case), so
   lookups scan the entry list: the scan compares 63-bit hashes only,
   falling back to the full structural comparison on a hash match. *)

type 'a entry = {
  hash : int;
  pattern : Csc.t; (* structural key (values ignored) *)
  extra : int array; (* options / RHS fingerprint *)
  value : 'a;
  mutable last_use : int;
}

type 'a t = {
  capacity : int;
  mutable entries : 'a entry list; (* unordered; |entries| <= capacity *)
  mutable tick : int; (* logical clock for LRU ordering *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; evictions : int; length : int }

let create ?(capacity = 32) () =
  if capacity < 1 then invalid_arg "Plan_cache.create: capacity must be >= 1";
  { capacity; entries = []; tick = 0; hits = 0; misses = 0; evictions = 0 }

let length t = List.length t.entries
let clear t = t.entries <- []

let stats (c : 'a t) : stats =
  { hits = c.hits; misses = c.misses; evictions = c.evictions; length = length c }

let extra_equal (a : int array) (b : int array) =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  for i = 0 to Array.length a - 1 do
    if a.(i) <> b.(i) then ok := false
  done;
  !ok

let find_entry t ~hash ~pattern ~extra =
  List.find_opt
    (fun e ->
      e.hash = hash
      && extra_equal e.extra extra
      && Csc.pattern_equal e.pattern pattern)
    t.entries

let evict_lru t =
  match t.entries with
  | [] -> ()
  | e0 :: rest ->
      let oldest =
        List.fold_left
          (fun acc e -> if e.last_use < acc.last_use then e else acc)
          e0 rest
      in
      t.entries <- List.filter (fun e -> e != oldest) t.entries;
      t.evictions <- t.evictions + 1;
      Metrics.inc m_evictions 1

(* [extra] is hashed together with the pattern so differently-configured
   compilations of the same structure coexist as distinct entries. *)
let find_or_compile t ~pattern ?(extra = [||]) compile =
  let hash = Csc.hash_fold_int_array (Csc.pattern_hash pattern) extra in
  t.tick <- t.tick + 1;
  match find_entry t ~hash ~pattern ~extra with
  | Some e ->
      e.last_use <- t.tick;
      t.hits <- t.hits + 1;
      Metrics.inc m_hits 1;
      (* Tag the caller's enclosing span (e.g. "compile_cached.cholesky")
         so traces show which compilations were free. *)
      Sympiler_trace.Trace.set_attr "cache" (Sympiler_trace.Trace.Str "hit");
      e.value
  | None ->
      t.misses <- t.misses + 1;
      Metrics.inc m_misses 1;
      Sympiler_trace.Trace.set_attr "cache" (Sympiler_trace.Trace.Str "miss");
      let value = compile () in
      if List.length t.entries >= t.capacity then evict_lru t;
      t.entries <- { hash; pattern; extra; value; last_use = t.tick } :: t.entries;
      value
