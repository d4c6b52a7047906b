open Sympiler_sparse

(* One compile-option record shared by every kernel family and by the
   pipeline layer: a family consumes the fields it understands and ignores
   the rest (the documented price of one uniform signature), so the same
   value can parameterize a whole DAG of heterogeneous stages. *)

type ordering = [ `Natural | `Rcm | `Amd | `Min_degree | `Given of Perm.t ]
type engine = [ `Ocaml | `Native ]
type t = { ordering : ordering; cache : bool; simplicial : bool }

let default = { ordering = `Natural; cache = false; simplicial = false }
let cached = { default with cache = true }

let make ?(ordering = `Natural) ?(cache = false) ?(simplicial = false) () =
  { ordering; cache; simplicial }

let ordering_name : ordering -> string = function
  | `Natural -> "natural"
  | `Rcm -> "rcm"
  | `Amd -> "amd"
  | `Min_degree -> "min-degree"
  | `Given _ -> "given"

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
  Array.append [| Bool.to_int o.simplicial |] (fp_ordering o.ordering)
