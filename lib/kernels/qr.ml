open Sympiler_sparse
open Sympiler_symbolic

(* Sparse QR factorization by Givens rotations (George & Heath), the
   orthogonal-factorization method of §3.3. The structure of R is the
   structure of the Cholesky factor of A^T A — so the symbolic phase reuses
   the existing machinery (sparse GEMM + symbolic Cholesky), and like every
   other method here it runs once per pattern: R's static structure and the
   row-access maps of A are baked in.

   Numeric phase: rows of A are rotated into the static structure of R one
   at a time. Q is never formed — its action is applied on the fly to the
   right-hand side, which is all least-squares solving needs: each R row j
   carries a scalar z(j), and after all rows are processed R x = z gives
   the minimizer of ||A x - b||. *)

exception Rank_deficient of int

type compiled = {
  m : int; (* rows of A *)
  n : int; (* columns of A *)
  (* R stored as CSC of R^T: slot j holds row j of R, diagonal first,
     column indices ascending — the jagged layout shared with L factors. *)
  rt_colptr : int array;
  rt_rowind : int array;
  (* CSR view of A (pattern + value gather map), so the numeric phase reads
     rows without transposing. *)
  a_rowptr : int array;
  a_colind : int array;
  a_map : int array;
}

(* Symbolic phase. *)
let compile (a : Csc.t) : compiled =
  if a.Csc.nrows < a.Csc.ncols then
    invalid_arg "Qr.compile: need m >= n (rows >= columns)";
  (* Pattern of A^T A; ones for values so no accidental cancellation. *)
  let ones = Csc.map_values a (fun _ -> 1.0) in
  let ata = Csc.multiply (Csc.transpose ones) ones in
  let fill = Fill_pattern.analyze (Csc.lower ata) in
  let a_rowptr, a_colind, a_map = Csc.transpose_map a in
  {
    m = a.Csc.nrows;
    n = a.Csc.ncols;
    rt_colptr = fill.Fill_pattern.l_colptr;
    rt_rowind = fill.Fill_pattern.l_rowind;
    a_rowptr;
    a_colind;
    a_map;
  }

type factors = {
  c : compiled;
  r_values : float array; (* values of R in the R^T layout *)
  z : float array; (* Q^T b restricted to R's rows (length n) *)
  residual_norm : float; (* norm of the annihilated rhs components *)
}

(* Numeric phase: rotate A's rows (values may differ from compile time as
   long as the pattern matches) into R while applying Q^T to [b]. *)
let factor_with_rhs (c : compiled) (a : Csc.t) (b : float array) : factors =
  if Array.length b <> c.m then invalid_arg "Qr.factor_with_rhs: rhs length";
  let rp = c.rt_colptr and ri = c.rt_rowind in
  let rx = Array.make rp.(c.n) 0.0 in
  let z = Array.make c.n 0.0 in
  let occupied = Array.make c.n false in
  let resid2 = ref 0.0 in
  (* dense scratch for the row being rotated in *)
  let w = Array.make c.n 0.0 in
  let pending = Array.make c.n false in
  for i = 0 to c.m - 1 do
    let jmin = ref c.n in
    for p = c.a_rowptr.(i) to c.a_rowptr.(i + 1) - 1 do
      let j = c.a_colind.(p) in
      w.(j) <- a.Csc.values.(c.a_map.(p));
      pending.(j) <- true;
      if j < !jmin then jmin := j
    done;
    let beta = ref b.(i) in
    let j = ref !jmin in
    let absorbed = ref false in
    while (not !absorbed) && !j < c.n do
      if pending.(!j) then begin
        pending.(!j) <- false;
        let wj = w.(!j) in
        w.(!j) <- 0.0;
        if wj <> 0.0 then
          if occupied.(!j) then begin
            (* Givens rotation annihilating w(j) against R(j,j). *)
            let d = rp.(!j) in
            let rjj = rx.(d) in
            let hyp = Float.hypot rjj wj in
            let cth = rjj /. hyp and sth = wj /. hyp in
            rx.(d) <- hyp;
            for p = d + 1 to rp.(!j + 1) - 1 do
              let k = ri.(p) in
              let rjk = rx.(p) and wk = w.(k) in
              rx.(p) <- (cth *. rjk) +. (sth *. wk);
              let wk' = (-.sth *. rjk) +. (cth *. wk) in
              w.(k) <- wk';
              if wk' <> 0.0 then pending.(k) <- true
            done;
            let zj = z.(!j) in
            z.(!j) <- (cth *. zj) +. (sth *. !beta);
            beta := (-.sth *. zj) +. (cth *. !beta)
          end
          else begin
            (* Row slot j of R is empty: the rotated row moves in whole
               (its support is contained in R row j's pattern). *)
            occupied.(!j) <- true;
            rx.(rp.(!j)) <- wj;
            for p = rp.(!j) + 1 to rp.(!j + 1) - 1 do
              let k = ri.(p) in
              rx.(p) <- w.(k);
              w.(k) <- 0.0;
              pending.(k) <- false
            done;
            z.(!j) <- !beta;
            absorbed := true
          end
      end;
      incr j
    done;
    (* Fully annihilated row: its rhs component joins the residual. *)
    if not !absorbed then resid2 := !resid2 +. (!beta *. !beta)
  done;
  Array.iteri (fun j occ -> if not occ then raise (Rank_deficient j)) occupied;
  { c; r_values = rx; z; residual_norm = sqrt !resid2 }

(* Back substitution R x = z over the R^T layout. *)
let solve_r (f : factors) : float array =
  let c = f.c in
  let rp = c.rt_colptr and ri = c.rt_rowind and rx = f.r_values in
  let x = Array.make c.n 0.0 in
  for j = c.n - 1 downto 0 do
    let s = ref f.z.(j) in
    for p = rp.(j) + 1 to rp.(j + 1) - 1 do
      s := !s -. (rx.(p) *. x.(ri.(p)))
    done;
    x.(j) <- !s /. rx.(rp.(j))
  done;
  x

(* Least-squares solve min ||A x - b|| in one call: symbolic analysis is
   re-used through [compile] by callers that solve repeatedly. *)
let lstsq (c : compiled) (a : Csc.t) (b : float array) : float array =
  solve_r (factor_with_rhs c a b)

(* Extract R as an upper-triangular CSC matrix (for tests: R^T R = A^T A). *)
let r_matrix (f : factors) : Csc.t =
  let c = f.c in
  let tr = Triplet.create ~nrows:c.n ~ncols:c.n () in
  for j = 0 to c.n - 1 do
    for p = c.rt_colptr.(j) to c.rt_colptr.(j + 1) - 1 do
      (* slot j = row j of R; ri.(p) = column *)
      if f.r_values.(p) <> 0.0 then Triplet.add tr j c.rt_rowind.(p) f.r_values.(p)
    done
  done;
  Csc.of_triplet tr
