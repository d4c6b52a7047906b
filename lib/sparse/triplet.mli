(** Coordinate-format (COO) builder used to assemble matrices entry by
    entry before conversion to CSC. Duplicate entries are summed on
    conversion — the convention of FEM assembly and Matrix Market
    readers. *)

type t = {
  nrows : int;
  ncols : int;
  mutable len : int;
  mutable rows : int array;
  mutable cols : int array;
  mutable vals : float array;
}
(** Growable triplet buffer. The arrays are exposed for bulk readers (e.g.
    generators computing row sums); only the first [len] slots are valid. *)

val create : ?capacity:int -> nrows:int -> ncols:int -> unit -> t
(** Fresh empty builder for an [nrows] x [ncols] matrix. *)

val length : t -> int
(** Number of entries added so far (before duplicate summing). *)

val add : t -> int -> int -> float -> unit
(** [add t i j v] records entry [(i, j) = v]. Raises [Invalid_argument] when
    the coordinates are out of range. Duplicates are allowed and summed at
    conversion time. *)

val to_csc_arrays : t -> int array * int array * float array
(** [(colptr, rowind, values)] of the equivalent CSC matrix: entries sorted
    by column then strictly by row, duplicates summed left to right in
    insertion order. Two stable counting passes (by row, then by column):
    O(len + nrows + ncols). Normally used via {!Csc.of_triplet}. Raises
    [Invalid_argument "Triplet.to_csc_arrays: …"] when [len] is negative
    or past any of the three arrays, or an entry's row or column is out
    of range (a record built by hand, not by {!add}). *)
