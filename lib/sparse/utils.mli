(** Small numeric and array helpers shared across the sparse substrate. *)

val feq : ?eps:float -> float -> float -> bool
(** [feq ?eps a b] is true when [a] and [b] agree to absolute or relative
    tolerance [eps] (default [1e-9]). *)

val max_rel_diff : float array -> float array -> float
(** [max_rel_diff a b] is the infinity-norm difference between [a] and [b],
    scaled by [max 1 (norm_inf a)]. Raises [Invalid_argument] on length
    mismatch. *)

val array_is_sorted_strict : int array -> int -> int -> bool
(** [array_is_sorted_strict a lo hi] is true when [a.(lo..hi-1)] is strictly
    increasing. *)

val cumsum : int array -> int
(** Exclusive prefix sum in place: turns per-bucket counts of length [n+1]
    into bucket offsets, stores the total in the last slot and returns it.
    The standard colptr-building step of CSC construction. *)

val sort_int_range : int array -> int -> int -> unit
(** [sort_int_range a lo hi] sorts [a.(lo..hi-1)] ascending in place.
    Monomorphic quicksort (no polymorphic compare, no allocation, O(log n)
    stack): the sort behind {!Ereach} patterns and large workspace
    reorderings where [Array.sort compare] would box every comparison. *)

val int_array_equal : int array -> int array -> bool
(** Structural equality of int arrays. *)

(** Deterministic splitmix64 pseudo-random generator. Every generator, test
    and benchmark in this repository derives its randomness from here, so
    all results are reproducible across runs and OCaml versions (unlike
    [Stdlib.Random], whose algorithm changed between releases). *)
module Rng : sig
  type t

  val create : int -> t
  (** [create seed] starts a stream determined entirely by [seed]. *)

  val next_int64 : t -> int64
  (** Next raw 64-bit state-mixed value. *)

  val int : t -> int -> int
  (** [int t bound] is uniform in [\[0, bound)]. Raises on [bound <= 0]. *)

  val float : t -> float
  (** Uniform in [\[0, 1)]. *)

  val float_range : t -> float -> float -> float
  (** [float_range t lo hi] is uniform in [\[lo, hi)]. *)

  val shuffle : t -> int array -> unit
  (** In-place Fisher-Yates shuffle. *)
end
