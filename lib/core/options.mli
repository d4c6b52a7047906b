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
  simplicial : bool;
      (** pin the simplicial Cholesky kernel on every engine (the OCaml
          plans run it anyway; native and [ndomains] plans then skip
          VS-Block) *)
}

val default : t
(** Natural ordering, uncached, VS-Block decided by Cholesky's rule. *)

val cached : t
(** {!default} with [cache = true]. *)

val make : ?ordering:ordering -> ?cache:bool -> ?simplicial:bool -> unit -> t

val ordering_name : ordering -> string
(** "natural", "rcm", "amd", "min-degree", or "given". *)

(** {2 Cache fingerprints}

    Encoders mapping option values to integer arrays for {!Plan_cache}
    keys; distinct values that could compile differently never share an
    encoding. *)

val fp_ordering : ordering -> int array

val fingerprint : t -> int array
(** The key of a compile that consumes every field ([cache] excluded: it
    does not change the compiled artifact). *)
