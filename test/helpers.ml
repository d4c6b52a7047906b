open Sympiler_sparse

(* Shared test fixtures, oracles, and qcheck generators. *)

let close ?(eps = 1e-8) a b = Utils.max_rel_diff a b < eps

let check_close ?(eps = 1e-8) msg a b =
  Alcotest.(check bool) msg true (close ~eps a b)

(* Bit-for-bit equality of float arrays: the lengths, then every element's
   IEEE-754 bit pattern. Structural [=] is not bitwise: it equates 0.0 with
   -0.0 and rejects two identical NaNs. *)
let same_bits (a : float array) (b : float array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let bitwise msg (a : float array) (b : float array) =
  Alcotest.(check bool) msg true (same_bits a b)

(* The paper's Figure 1 example system (0-indexed): a 10x10 lower-triangular
   matrix whose dependence graph reproduces the reach-set of §2.2,
   Reach({1,6}) = {1,6,7,8,9,10} in the paper's 1-based numbering. *)
let figure1_l : Csc.t =
  let tr = Triplet.create ~nrows:10 ~ncols:10 () in
  let cols =
    [|
      [ 0; 6 ];
      [ 1; 4 ];
      [ 2; 5 ];
      [ 3; 5 ];
      [ 4; 5; 8 ];
      [ 5; 6; 8; 9 ];
      [ 6; 7 ];
      [ 7; 8; 9 ];
      [ 8; 9 ];
      [ 9 ];
    |]
  in
  Array.iteri
    (fun j rows ->
      List.iter
        (fun i -> Triplet.add tr i j (if i = j then 2.0 else -0.5))
        rows)
    cols;
  Csc.of_triplet tr

let figure1_beta = [| 0; 5 |]
let figure1_reach_sorted = [| 0; 5; 6; 7; 8; 9 |]

(* Dense-oracle triangular solve. *)
let oracle_lower_solve l b = Dense.lower_solve (Dense.of_csc l) b

(* Dense-oracle Cholesky of a full symmetric matrix. *)
let oracle_cholesky a = Dense.cholesky (Dense.of_csc a)

(* Small deterministic SPD matrices covering the structural classes. *)
let spd_zoo () : (string * Csc.t) list =
  [
    ("grid5_8x8", Generators.grid2d ~stencil:`Five 8 8);
    ("grid9_7x7", Generators.grid2d ~stencil:`Nine 7 7);
    ("grid3d_4", Generators.grid3d 4 4 4);
    ("clique", Generators.clique_chain ~seed:3 ~n:60 ~clique:8 ~overlap:2 ());
    ("blocktri", Generators.block_tridiagonal ~seed:4 ~nblocks:5 ~block:6 ());
    ("randband", Generators.random_banded ~seed:5 ~n:80 ~band:10 ~density:0.2 ());
    ("dense-ish", Generators.random_spd_dense ~seed:6 25);
    ("banded", Generators.banded ~seed:7 ~n:50 ~band:4 ());
    ("tiny", Generators.grid2d ~stencil:`Five 2 2);
    ("one", Csc.of_dense [| [| 4.0 |] |]);
  ]

(* Block-diagonal assembly of full symmetric matrices (disconnected
   graphs for the ordering tests). *)
let block_diag (blocks : Csc.t list) : Csc.t =
  let n = List.fold_left (fun acc b -> acc + b.Csc.ncols) 0 blocks in
  let tr = Triplet.create ~nrows:n ~ncols:n () in
  let off = ref 0 in
  List.iter
    (fun b ->
      Csc.iter b (fun i j v -> Triplet.add tr (i + !off) (j + !off) v);
      off := !off + b.Csc.ncols)
    blocks;
  Csc.of_triplet tr

(* Three disconnected grids, randomly relabeled: the pseudo-peripheral
   search must restart per component and the scramble hides the natural
   band. Deterministic (seed 42). *)
let scrambled_multigrid () : Csc.t =
  let a =
    block_diag
      [
        Generators.grid2d ~stencil:`Five 9 9;
        Generators.grid2d ~stencil:`Nine 6 13;
        Generators.grid3d 4 4 4;
      ]
  in
  let p = Perm.random (Utils.Rng.create 42) a.Csc.ncols in
  Perm.symmetric_permute p a

(* Star (dense row/column 0) plus a ring: one vertex of degree n-1 next
   to a sea of low-degree vertices — the classic quotient-graph stressor. *)
let star_ring (n : int) : Csc.t =
  let tr = Triplet.create ~nrows:n ~ncols:n () in
  for i = 0 to n - 1 do
    Triplet.add tr i i 4.0;
    if i > 0 then begin
      Triplet.add tr 0 i 1.0;
      Triplet.add tr i 0 1.0
    end;
    if i > 1 then begin
      Triplet.add tr i (i - 1) 1.0;
      Triplet.add tr (i - 1) i 1.0
    end
  done;
  Csc.of_triplet tr

(* ---- qcheck generators ---- *)

let gen_lower : Csc.t QCheck.Gen.t =
  QCheck.Gen.(
    let* n = int_range 1 80 in
    let* seed = int_range 0 10000 in
    let* dens = int_range 2 40 in
    return
      (Generators.random_lower ~seed ~n
         ~density:(float_of_int dens /. 100.0)
         ()))

let arb_lower =
  QCheck.make
    ~print:(fun l -> Printf.sprintf "lower n=%d nnz=%d" l.Csc.ncols (Csc.nnz l))
    gen_lower

let gen_spd : Csc.t QCheck.Gen.t =
  QCheck.Gen.(
    let* seed = int_range 0 10000 in
    let* kind = int_range 0 4 in
    return
      (match kind with
      | 0 -> Generators.grid2d ~stencil:`Five (3 + (seed mod 6)) (3 + (seed mod 5))
      | 1 ->
          Generators.clique_chain ~seed ~n:(20 + (seed mod 40))
            ~clique:(4 + (seed mod 6))
            ~overlap:(1 + (seed mod 3))
            ()
      | 2 ->
          Generators.random_banded ~seed ~n:(20 + (seed mod 60))
            ~band:(3 + (seed mod 8))
            ~density:0.3 ()
      | 3 -> Generators.random_spd_dense ~seed (5 + (seed mod 20))
      | _ ->
          Generators.block_tridiagonal ~seed
            ~nblocks:(2 + (seed mod 5))
            ~block:(2 + (seed mod 5))
            ()))

let arb_spd =
  QCheck.make
    ~print:(fun a -> Printf.sprintf "spd n=%d nnz=%d" a.Csc.ncols (Csc.nnz a))
    gen_spd

let gen_rhs_for (n : int) : Vector.sparse QCheck.Gen.t =
  QCheck.Gen.(
    let* seed = int_range 0 10000 in
    let* fill = int_range 1 20 in
    return (Generators.sparse_rhs ~seed ~n ~fill:(float_of_int fill /. 100.0) ()))

let arb_lower_with_rhs =
  QCheck.make
    ~print:(fun (l, b) ->
      Printf.sprintf "lower n=%d nnz=%d, rhs nnz=%d" l.Csc.ncols (Csc.nnz l)
        (Vector.sparse_nnz b))
    QCheck.Gen.(
      let* l = gen_lower in
      let* b = gen_rhs_for l.Csc.ncols in
      return (l, b))

let qtest ?(count = 100) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* The global level sets of a lower-triangular pattern, written out
   independently of the library: level(i) = 1 + max level over the columns
   i depends on, ascending column inside a level, one empty level when
   n = 0. Returns (level_ptr, columns by level). *)
let levelize (l : Csc.t) =
  let n = l.Csc.ncols in
  let level = Array.make n 0 in
  for j = 0 to n - 1 do
    for p = l.Csc.colptr.(j) + 1 to l.Csc.colptr.(j + 1) - 1 do
      let i = l.Csc.rowind.(p) in
      level.(i) <- max level.(i) (level.(j) + 1)
    done
  done;
  let nlevels = 1 + Array.fold_left max 0 level in
  let level_ptr = Array.make (nlevels + 1) 0 in
  Array.iter (fun lv -> level_ptr.(lv + 1) <- level_ptr.(lv + 1) + 1) level;
  for lv = 0 to nlevels - 1 do
    level_ptr.(lv + 1) <- level_ptr.(lv + 1) + level_ptr.(lv)
  done;
  let next = Array.sub level_ptr 0 nlevels in
  let cols = Array.make n 0 in
  Array.iteri
    (fun j lv ->
      cols.(next.(lv)) <- j;
      next.(lv) <- next.(lv) + 1)
    level;
  (level_ptr, cols)

(* ---- process / filesystem helpers ---- *)

(* Skip visibly (alcotest reports "SKIP") when [cmd] is not on PATH, so a
   missing toolchain can never silently hollow out a round-trip test. *)
let require_cmd cmd =
  if Sys.command (Printf.sprintf "command -v %s > /dev/null 2>&1" cmd) <> 0
  then Alcotest.skip ()

(* mkdtemp-style temp directory. [Filename.temp_file] creates a regular
   file; retry on the (astronomically unlikely) race where the name is
   taken between remove and mkdir. *)
let rec make_temp_dir () =
  let path = Filename.temp_file "sympiler" ".dir" in
  Sys.remove path;
  try
    Sys.mkdir path 0o700;
    path
  with Sys_error _ -> make_temp_dir ()

let with_temp_dir f =
  let dir = make_temp_dir () in
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun entry -> try Sys.remove (Filename.concat dir entry) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ()
    end
  in
  Fun.protect ~finally:cleanup (fun () -> f dir)

(* ---- instrumentation helpers ---- *)

module Metrics = Sympiler_metrics.Metrics

(* Run [f] with the metrics switch on, restoring its previous state. *)
let with_metrics f =
  let was_on = Metrics.enabled () in
  Metrics.enable ();
  Fun.protect ~finally:(fun () -> if not was_on then Metrics.disable ()) f

(* How much [f] adds to counter [c] (the registry is process-wide and
   never reset by the tests). *)
let counted (c : Metrics.counter) f =
  let c0 = Metrics.counter_value c in
  f ();
  Metrics.counter_value c - c0

(* Run [f label] with the metrics switch off, then on, restoring it: the
   zero-allocation contracts hold either way. *)
let switch_off_and_on f =
  let was_on = Metrics.enabled () in
  Fun.protect ~finally:(fun () ->
      if was_on then Metrics.enable () else Metrics.disable ())
  @@ fun () ->
  Metrics.disable ();
  f "metrics off";
  Metrics.enable ();
  f "metrics on"

(* [f ()] must raise [Invalid_argument] whose message names [entry]
   ("entry: …"): the check a public entry runs before its unchecked
   loops, not a bounds check or nothing at all. *)
let expect_named entry f =
  let prefix = entry ^ ":" in
  match f () with
  | _ -> Alcotest.failf "%s: accepted" entry
  | exception Invalid_argument m
    when String.length m >= String.length prefix
         && String.sub m 0 (String.length prefix) = prefix ->
      ()
  | exception e -> Alcotest.failf "%s: raised %s" entry (Printexc.to_string e)

(* One defect of the CSC invariant each, on a matrix whose column 0
   stores three rows or more: the last row of column 0 set to nrows, the
   last two rows of column 0 swapped, and one value too few. *)
let row_out_of_range (a : Csc.t) =
  let r = Array.copy a.Csc.rowind in
  r.(a.Csc.colptr.(1) - 1) <- a.Csc.nrows;
  { a with Csc.rowind = r }

let rows_unsorted (a : Csc.t) =
  let r = Array.copy a.Csc.rowind and p = a.Csc.colptr.(1) - 2 in
  let t = r.(p) in
  r.(p) <- r.(p + 1);
  r.(p + 1) <- t;
  { a with Csc.rowind = r }

let values_short (a : Csc.t) =
  { a with Csc.values = Array.sub a.Csc.values 0 (Csc.nnz a - 1) }
