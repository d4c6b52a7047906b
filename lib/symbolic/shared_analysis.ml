open Sympiler_sparse

(* One symbolic analysis serving every stage of a pipeline. A DAG of kernel
   stages over one matrix pattern keeps asking the same structural
   questions — the elimination tree, the fill pattern, the level schedule
   of the triangular dependence graph, the symmetrized full pattern for
   SpMV — and compiling each stage in isolation re-derives them. This
   record memoizes each artifact the first time any stage forces it; the
   [runs] ledger counts computations so tests can assert nothing ran
   twice. *)

type t = {
  pattern : Csc.t;
  upper : Csc.Unsafe.upper_pattern Lazy.t option;
  mutable etree_ : int array option;
  mutable fill_ : Fill_pattern.t option;
  mutable levels_ : (int array * int array) option;
  mutable full_ : (Csc.t * int array) option;
  mutable etree_runs : int;
  mutable fill_runs : int;
  mutable levels_runs : int;
  mutable full_runs : int;
}

let create ?upper (pattern : Csc.t) : t =
  {
    pattern;
    upper;
    etree_ = None;
    fill_ = None;
    levels_ = None;
    full_ = None;
    etree_runs = 0;
    fill_runs = 0;
    levels_runs = 0;
    full_runs = 0;
  }

let pattern (t : t) = t.pattern

let etree (t : t) : int array =
  match t.etree_ with
  | Some e -> e
  | None ->
      let e = Etree.compute t.pattern in
      t.etree_ <- Some e;
      t.etree_runs <- t.etree_runs + 1;
      e

let fill (t : t) : Fill_pattern.t =
  match t.fill_ with
  | Some f -> f
  | None ->
      let f =
        match t.upper with
        | Some u -> Fill_pattern.of_upper (Lazy.force u)
        | None -> Fill_pattern.analyze t.pattern
      in
      t.fill_ <- Some f;
      t.fill_runs <- t.fill_runs + 1;
      f

(* Level schedule of the lower-triangular dependence graph: the level
   order of [Dep_graph.level_order] in one window spanning every column. *)
let levels (t : t) : int array * int array =
  match t.levels_ with
  | Some ls -> ls
  | None ->
      let ls =
        Dep_graph.level_order ~window:(max 1 t.pattern.Csc.ncols) t.pattern
      in
      t.levels_ <- Some ls;
      t.levels_runs <- t.levels_runs + 1;
      ls

(* Symmetrized full pattern A = L + L^T (diagonal once) together with the
   gather map from the lower-triangular values: full entry [k] reads
   [lower.values.(map.(k))], so a plan refreshes the SpMV operand from new
   lower values without allocating. *)
let full (t : t) : Csc.t * int array =
  match t.full_ with
  | Some f -> f
  | None ->
      let l = t.pattern in
      let n = l.Csc.ncols in
      let lp = l.Csc.colptr and li = l.Csc.rowind in
      (* Column counts of the full matrix: each strictly-lower entry (i, j)
         contributes to columns j and i; diagonal entries to their own. *)
      let counts = Array.make n 0 in
      for j = 0 to n - 1 do
        for p = lp.(j) to lp.(j + 1) - 1 do
          let i = li.(p) in
          counts.(j) <- counts.(j) + 1;
          if i <> j then counts.(i) <- counts.(i) + 1
        done
      done;
      let colptr = Array.make (n + 1) 0 in
      for j = 0 to n - 1 do
        colptr.(j + 1) <- colptr.(j) + counts.(j)
      done;
      let nnz = colptr.(n) in
      let rowind = Array.make nnz 0 in
      let map = Array.make nnz 0 in
      let cursor = Array.copy colptr in
      (* Upper part of column j is the transpose of rows [< j]: emitting by
         ascending source column keeps every destination column sorted,
         because within column c the strictly-lower rows are ascending and
         all upper entries (row c) of later source columns come later. *)
      for c = 0 to n - 1 do
        for p = lp.(c) to lp.(c + 1) - 1 do
          let i = li.(p) in
          if i <> c then begin
            (* entry (c, i) of the upper part, in column i *)
            rowind.(cursor.(i)) <- c;
            map.(cursor.(i)) <- p;
            cursor.(i) <- cursor.(i) + 1
          end
          else begin
            (* the diagonal lands between column c's upper and lower runs *)
            rowind.(cursor.(c)) <- c;
            map.(cursor.(c)) <- p;
            cursor.(c) <- cursor.(c) + 1
          end
        done;
        (* now the strictly-lower run of column c itself *)
        for p = lp.(c) to lp.(c + 1) - 1 do
          let i = li.(p) in
          if i > c then begin
            rowind.(cursor.(c)) <- i;
            map.(cursor.(c)) <- p;
            cursor.(c) <- cursor.(c) + 1
          end
        done
      done;
      let full =
        {
          Csc.nrows = n;
          ncols = n;
          colptr;
          rowind;
          values = Array.make nnz 0.0;
        }
      in
      let f = (full, map) in
      t.full_ <- Some f;
      t.full_runs <- t.full_runs + 1;
      f

let runs (t : t) : (string * int) list =
  [
    ("etree", t.etree_runs);
    ("fill", t.fill_runs);
    ("levels", t.levels_runs);
    ("full", t.full_runs);
  ]
