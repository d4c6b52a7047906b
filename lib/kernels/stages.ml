open Sympiler_sparse

(* In-place stage executors over caller-owned workspaces: the numeric
   bodies a compiled pipeline chains on its one shared vector buffer. Each
   is a plain loop nest with no allocation and no dispatch — the pipeline
   layer owns buffer placement, so fusing two stages is calling two of
   these back to back on the same array (or one of the merged variants
   below, which also removes the function boundary).

   Operation order is canonical per entry: every x(i) receives the same
   operation sequence as in the natural-order schedules of [Trisolve_ref]
   (its updates by ascending column, then the divide). The column sweeps
   also visit the entries in natural order; the scheduled sweeps visit
   them in a compile-time topological order instead, which only reorders
   independent entries. So a fused chain and a staged chain over the same
   factors produce bitwise-identical results whichever sweep runs: fusion
   and scheduling eliminate copies, dispatch and waiting, never reorder
   floating-point arithmetic.

   The kernels build with -unsafe, so every entry point checks its vector
   lengths (O(1)) and raises [Invalid_argument] naming itself: a
   wrong-length workspace must fail, not be read or written out of
   bounds. *)

let[@inline] check ok who = if not ok then invalid_arg who

(* Forward substitution L x = x for CSC lower-triangular L with the
   diagonal stored first in each column (unit diagonals may be stored
   explicitly; dividing by 1.0 is exact). Same loop as
   [Trisolve_ref.naive_ip], without the counting epilogue, except that
   each update is written [x(i) - x(j) * L(i,j)], x first, here and in the
   row gather below. When both factors of a product are NaN, operand order
   decides which payload survives, and ocamlopt swaps a product's operands
   only when the first is a memory load and the second is not. With x
   first, neither sweep's product is swapped, with or without bounds
   checks, so the two sweeps stay bitwise-identical on NaN inputs too. *)
let lower_ip (l : Csc.t) (x : float array) =
  let n = l.Csc.ncols in
  check (Array.length x = n) "Stages.lower_ip: x length <> ncols";
  let lp = l.Csc.colptr and li = l.Csc.rowind and lx = l.Csc.values in
  for j = 0 to n - 1 do
    let xj = x.(j) /. lx.(lp.(j)) in
    x.(j) <- xj;
    for p = lp.(j) + 1 to lp.(j + 1) - 1 do
      x.(li.(p)) <- x.(li.(p)) -. (xj *. lx.(p))
    done
  done

(* Backward substitution L^T x = x from the same CSC L (column j of L is
   row j of L^T, so the dot product reads one column). Same loop as
   [Trisolve_ref.transpose_ip]. *)
let ltrans_ip (l : Csc.t) (x : float array) =
  let n = l.Csc.ncols in
  check (Array.length x = n) "Stages.ltrans_ip: x length <> ncols";
  let lp = l.Csc.colptr and li = l.Csc.rowind and lx = l.Csc.values in
  for j = n - 1 downto 0 do
    let s = ref x.(j) in
    for p = lp.(j) + 1 to lp.(j + 1) - 1 do
      s := !s -. (lx.(p) *. x.(li.(p)))
    done;
    x.(j) <- !s /. lx.(lp.(j))
  done

(* The merged factor+solve pass: forward and transposed substitution in one
   kernel body — the L / L^T stage boundary of a factor+solve pair fused
   away (one call, one buffer, no intermediate vector). *)
let solve_pair_ip (l : Csc.t) (x : float array) =
  let n = l.Csc.ncols in
  check (Array.length x = n) "Stages.solve_pair_ip: x length <> ncols";
  let lp = l.Csc.colptr and li = l.Csc.rowind and lx = l.Csc.values in
  for j = 0 to n - 1 do
    let xj = x.(j) /. lx.(lp.(j)) in
    x.(j) <- xj;
    for p = lp.(j) + 1 to lp.(j + 1) - 1 do
      x.(li.(p)) <- x.(li.(p)) -. (xj *. lx.(p))
    done
  done;
  for j = n - 1 downto 0 do
    let s = ref x.(j) in
    for p = lp.(j) + 1 to lp.(j + 1) - 1 do
      s := !s -. (lx.(p) *. x.(li.(p)))
    done;
    x.(j) <- !s /. lx.(lp.(j))
  done

(* ---------------------------- Scheduled sweeps --------------------------- *)

(* A compile-time sweep schedule for one L pattern: a topological order of
   L's dependence graph and L's strictly-lower row lists. The forward sweep
   becomes a row gather — x(i) collects its updates from its row list,
   ascending column, then divides — visited in [order]; the backward sweep
   is the column gather of [ltrans_ip] visited in reverse [order]. Both
   keep each entry's operation sequence, so they are bitwise-identical to
   the column sweeps; what changes is that entries with no dependence
   between them no longer wait for each other in natural order. *)
type schedule = {
  order : int array;
  row_ptr : int array;
  row_col : int array;
  row_pos : int array;
}

(* Row lists in [lower_ip]'s positional convention: every entry of column
   j past its head [colptr.(j)] (the diagonal) updates its row. Built by
   ascending column, so each row lists its columns in ascending order. *)
let schedule ~(order : int array) (l : Csc.t) : schedule =
  let n = l.Csc.ncols in
  check (Array.length order = n) "Stages.schedule: order length <> ncols";
  let lp = l.Csc.colptr and li = l.Csc.rowind in
  let row_ptr = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    for p = lp.(j) + 1 to lp.(j + 1) - 1 do
      row_ptr.(li.(p) + 1) <- row_ptr.(li.(p) + 1) + 1
    done
  done;
  for i = 0 to n - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  let row_col = Array.make row_ptr.(n) 0 in
  let row_pos = Array.make row_ptr.(n) 0 in
  let next = Array.sub row_ptr 0 n in
  for j = 0 to n - 1 do
    for p = lp.(j) + 1 to lp.(j + 1) - 1 do
      let q = next.(li.(p)) in
      row_col.(q) <- j;
      row_pos.(q) <- p;
      next.(li.(p)) <- q + 1
    done
  done;
  { order; row_ptr; row_col; row_pos }

let check_schedule (s : schedule) n x who =
  check
    (Array.length x = n
    && Array.length s.order = n
    && Array.length s.row_ptr = n + 1)
    who

(* The forward row gather, shared by the two forward entry points. *)
let lower_rows (l : Csc.t) (s : schedule) (x : float array) =
  let lp = l.Csc.colptr and lx = l.Csc.values in
  let order = s.order and rp = s.row_ptr in
  let rc = s.row_col and rpos = s.row_pos in
  for k = 0 to Array.length order - 1 do
    let i = order.(k) in
    let acc = ref x.(i) in
    for q = rp.(i) to rp.(i + 1) - 1 do
      acc := !acc -. (x.(rc.(q)) *. lx.(rpos.(q)))
    done;
    x.(i) <- !acc /. lx.(lp.(i))
  done

let ltrans_cols (l : Csc.t) (s : schedule) (x : float array) =
  let lp = l.Csc.colptr and li = l.Csc.rowind and lx = l.Csc.values in
  let order = s.order in
  for k = Array.length order - 1 downto 0 do
    let j = order.(k) in
    let acc = ref x.(j) in
    for p = lp.(j) + 1 to lp.(j + 1) - 1 do
      acc := !acc -. (lx.(p) *. x.(li.(p)))
    done;
    x.(j) <- !acc /. lx.(lp.(j))
  done

let lower_sched_ip (l : Csc.t) (s : schedule) (x : float array) =
  check_schedule s l.Csc.ncols x "Stages.lower_sched_ip: length mismatch";
  lower_rows l s x

let ltrans_sched_ip (l : Csc.t) (s : schedule) (x : float array) =
  check_schedule s l.Csc.ncols x "Stages.ltrans_sched_ip: length mismatch";
  ltrans_cols l s x

let solve_pair_sched_ip (l : Csc.t) (s : schedule) (x : float array) =
  check_schedule s l.Csc.ncols x
    "Stages.solve_pair_sched_ip: length mismatch";
  lower_rows l s x;
  ltrans_cols l s x

(* --------------------------- Other stage bodies -------------------------- *)

(* Backward substitution U x = x for CSC upper-triangular U with the
   diagonal stored last in each column (LU's U factor). *)
let upper_ip (u : Csc.t) (x : float array) =
  let n = u.Csc.ncols in
  check (Array.length x = n) "Stages.upper_ip: x length <> ncols";
  let up = u.Csc.colptr and ui = u.Csc.rowind and ux = u.Csc.values in
  for j = n - 1 downto 0 do
    let xj = x.(j) /. ux.(up.(j + 1) - 1) in
    x.(j) <- xj;
    for p = up.(j) to up.(j + 1) - 2 do
      x.(ui.(p)) <- x.(ui.(p)) -. (ux.(p) *. xj)
    done
  done

(* Diagonal solve D x = x (the middle stage of an LDL^T apply). *)
let diag_ip (d : float array) (x : float array) =
  check
    (Array.length x = Array.length d)
    "Stages.diag_ip: x length <> d length";
  for i = 0 to Array.length d - 1 do
    x.(i) <- x.(i) /. d.(i)
  done

(* ILU(0) applies run on the combined CSR L\U factor (unit L left of each
   diagonal position, U from it on): forward with implicit unit diagonal,
   then backward. *)
let check_csr (c : Ilu0.compiled) v x who =
  check
    (Array.length x = c.Ilu0.n && Array.length v >= c.Ilu0.rowptr.(c.Ilu0.n))
    who

let csr_lower_unit_ip (c : Ilu0.compiled) (v : float array) (x : float array) =
  check_csr c v x "Stages.csr_lower_unit_ip: length mismatch";
  let n = c.Ilu0.n in
  let rp = c.Ilu0.rowptr and ci = c.Ilu0.colind and dg = c.Ilu0.diag in
  for i = 0 to n - 1 do
    let s = ref x.(i) in
    for p = rp.(i) to dg.(i) - 1 do
      s := !s -. (v.(p) *. x.(ci.(p)))
    done;
    x.(i) <- !s
  done

let csr_upper_ip (c : Ilu0.compiled) (v : float array) (x : float array) =
  check_csr c v x "Stages.csr_upper_ip: length mismatch";
  let n = c.Ilu0.n in
  let rp = c.Ilu0.rowptr and ci = c.Ilu0.colind and dg = c.Ilu0.diag in
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for p = dg.(i) + 1 to rp.(i + 1) - 1 do
      s := !s -. (v.(p) *. x.(ci.(p)))
    done;
    x.(i) <- !s /. v.(dg.(i))
  done

(* y <- A x, column-oriented (CSC): the SpMV stage. *)
let spmv_into (a : Csc.t) (x : float array) (y : float array) =
  let n = a.Csc.ncols in
  check
    (Array.length x = n && Array.length y = a.Csc.nrows)
    "Stages.spmv_into: x length <> ncols or y length <> nrows";
  let ap = a.Csc.colptr and ai = a.Csc.rowind and av = a.Csc.values in
  Array.fill y 0 (Array.length y) 0.0;
  for j = 0 to n - 1 do
    let xj = x.(j) in
    if xj <> 0.0 then
      for p = ap.(j) to ap.(j + 1) - 1 do
        y.(ai.(p)) <- y.(ai.(p)) +. (av.(p) *. xj)
      done
  done

(* The fused CG vector updates: x <- x + alpha p and r <- r - alpha q in
   one sweep (elementwise independent, so bitwise-identical to the two
   separate loops it replaces — the fusion removes one full traversal). *)
let axpy2_ip ~alpha (p : float array) (q : float array) (x : float array)
    (r : float array) =
  let n = Array.length x in
  check
    (Array.length p = n && Array.length q = n && Array.length r = n)
    "Stages.axpy2_ip: vector lengths differ";
  for i = 0 to n - 1 do
    x.(i) <- x.(i) +. (alpha *. p.(i));
    r.(i) <- r.(i) -. (alpha *. q.(i))
  done

let dot (a : float array) (b : float array) =
  check (Array.length a = Array.length b) "Stages.dot: vector lengths differ";
  let s = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    s := !s +. (a.(i) *. b.(i))
  done;
  !s
