(* The [checked] profile's index operators of the compile path's hot
   loops: the same names as in every other profile, with the bounds check
   kept, so a loop that forms an index outside its array raises
   [Invalid_argument "index out of bounds"] in the test suite instead of
   reading or writing past the array (lib/sparse/dune). *)

external ( .!() ) : int array -> int -> int = "%array_safe_get"
external ( .!()<- ) : int array -> int -> int -> unit = "%array_safe_set"
external ( .!.() ) : float array -> int -> float = "%array_safe_get"
external ( .!.()<- ) : float array -> int -> float -> unit = "%array_safe_set"
external get_int32 : bytes -> int -> int32 = "%caml_bytes_get32"
external set_int32 : bytes -> int -> int32 -> unit = "%caml_bytes_set32"
