open Sympiler_sparse

(* One compile-option record shared by every kernel family and by the
   pipeline layer: a family consumes the fields it understands and ignores
   the rest (the documented price of one uniform signature), so the same
   value can parameterize a whole DAG of heterogeneous stages. *)

type ordering = [ `Natural | `Rcm | `Amd | `Min_degree | `Given of Perm.t ]
type engine = [ `Ocaml | `Native ]

type t = {
  ordering : ordering;
  cache : bool;
  vs_block_threshold : float option;
  simplicial : bool;
}

let default =
  {
    ordering = `Natural;
    cache = false;
    vs_block_threshold = None;
    simplicial = false;
  }

let cached = { default with cache = true }

let make ?(ordering = `Natural) ?(cache = false) ?vs_block_threshold
    ?(simplicial = false) () =
  { ordering; cache; vs_block_threshold; simplicial }

let ordering_name : ordering -> string = function
  | `Natural -> "natural"
  | `Rcm -> "rcm"
  | `Amd -> "amd"
  | `Min_degree -> "min-degree"
  | `Given _ -> "given"

(* The threshold keys by its exact IEEE bits, split into two non-negative
   32-bit halves (an OCaml int cannot hold all 64), and "not given" by a
   negative half no bit pattern produces: two thresholds that could decide
   VS-Block differently never share a cache entry. *)
let fp_threshold : float option -> int array = function
  | None -> [| -1; 0 |]
  | Some x ->
      let b = Int64.bits_of_float x in
      [|
        Int64.to_int (Int64.shift_right_logical b 32);
        Int64.to_int (Int64.logand b 0xFFFF_FFFFL);
      |]

(* A [`Given] permutation fingerprints by content. *)
let fp_ordering : ordering -> int array = function
  | `Natural -> [| 0 |]
  | `Rcm -> [| 1 |]
  | `Amd -> [| 2 |]
  | `Min_degree -> [| 3 |]
  | `Given p -> Array.append [| 4; Array.length p |] p

(* [cache] is excluded: it selects where the handle lives, not what it
   is. *)
let fingerprint (o : t) : int array =
  Array.concat
    [
      fp_threshold o.vs_block_threshold;
      [| Bool.to_int o.simplicial |];
      fp_ordering o.ordering;
    ]
