open Sympiler_sparse

(** Pattern-keyed compilation cache (LRU): compiled handles keyed by the
    {e structure} of the input — {!Csc.pattern_hash} over
    [(nrows, ncols, colptr, rowind)] — plus an [extra] integer fingerprint
    for anything else that shaped compilation (the options a family
    reads, the RHS pattern). Values never participate in the key,
    matching the contract of the compiled handles themselves. A cache
    hit skips the compile function — and with it the entire symbolic
    phase — entirely. *)

type 'a t

type stats = { hits : int; misses : int; evictions : int; length : int }

val create : ?capacity:int -> unit -> 'a t
(** [capacity] (default 32) bounds the number of cached handles; the
    least-recently-used entry is evicted when a new compile would exceed
    it. Raises [Invalid_argument] when [capacity < 1]. *)

val find_or_compile : 'a t -> pattern:Csc.t -> ?extra:int array -> (unit -> 'a) -> 'a
(** [find_or_compile t ~pattern ~extra compile] returns the cached handle
    (physically equal to what an earlier call produced) when [pattern]'s
    structure and [extra] match an entry; otherwise runs [compile ()],
    caches the result, and returns it. Hits and misses bump the cache's
    own {!stats} (always) and the [sympiler_plan_cache_hits] /
    [sympiler_plan_cache_misses] series (while metrics are on). *)

val stats : 'a t -> stats
val length : 'a t -> int
val clear : 'a t -> unit
