open Sympiler_sparse

(** Shared compile options: the one record every kernel family's [compile]
    (and every {!Pipeline} stage) takes. Families consume the fields they
    understand and ignore the rest — the documented price of one uniform
    signature — and key their compilation cache only on the fields they
    consume. *)

type ordering = [ `Natural | `Rcm | `Amd | `Min_degree | `Given of Perm.t ]
(** Fill-reducing ordering request (see {!Sympiler.ordering} for the full
    contract: computed once at compile time, baked into plans). *)

type engine = [ `Ocaml | `Native ]
(** Plan execution engine (see {!Sympiler.engine}). *)

type t = {
  ordering : ordering;  (** default [`Natural] *)
  cache : bool;
      (** route the compile through the family's default {!Plan_cache} *)
  vs_block_threshold : float option;
      (** minimum average supernode width for VS-Block to pay off;
          [None] = the family's default (2.0 for Cholesky) *)
  simplicial : bool;  (** force the simplicial Cholesky variant *)
}

val default : t
(** Natural ordering, uncached, family-default thresholds, supernodal. *)

val cached : t
(** {!default} with [cache = true]. *)

val make :
  ?ordering:ordering ->
  ?cache:bool ->
  ?vs_block_threshold:float ->
  ?simplicial:bool ->
  unit ->
  t

val ordering_name : ordering -> string
(** "natural", "rcm", "amd", "min-degree", or "given". *)

(** {2 Cache fingerprints}

    Encoders mapping option values to integer arrays for {!Plan_cache}
    keys; distinct values that could compile differently never share an
    encoding. *)

val fp_threshold : float option -> int array
(** The threshold's exact bits ("not given" is distinct from every given
    value). *)

val fp_ordering : ordering -> int array

val fingerprint : t -> int array
(** The key of a compile that consumes every field ([cache] excluded: it
    does not change the compiled artifact). *)
