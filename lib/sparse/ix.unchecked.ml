(* Index operators of the compile path's hot loops (triplet assembly, AMD,
   the symmetric permutation, the transposes, the elimination tree and the
   fill walk), monomorphic in the element type: [a.!(i)] on int arrays and
   [a.!.(i)] on float arrays. In every dune profile except [checked] they
   skip the bounds check. Each public entry that runs such a loop first
   validates what it reads, so no index the loop forms can leave its
   array. The [checked] profile swaps in bounds-checked twins of these
   operators (lib/sparse/dune), and scripts/ci.sh runs the tests there.
   [get_int32]/[set_int32] read and write the fill walk's 4-byte row
   buffer the same way. *)

external ( .!() ) : int array -> int -> int = "%array_unsafe_get"
external ( .!()<- ) : int array -> int -> int -> unit = "%array_unsafe_set"
external ( .!.() ) : float array -> int -> float = "%array_unsafe_get"

external ( .!.()<- ) : float array -> int -> float -> unit
  = "%array_unsafe_set"

(* The fill walk's 4-byte row buffer, in native byte order. *)
external get_int32 : bytes -> int -> int32 = "%caml_bytes_get32u"
external set_int32 : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
