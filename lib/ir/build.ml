open Sympiler_sparse

(* Lowering: turn a numerical method plus a specific sparsity structure into
   the initial annotated AST of Figure 2a. The triangular solve bakes the
   matrix pattern (colptr / rowind) into the kernel as constant arrays, so
   only numeric values (Lx, x) remain runtime parameters; Cholesky takes
   its pattern as parameters, so its kernel is one per shape. *)

open Ast

(* Initial AST for sparse triangular solve L x = b (Figure 2a). [x] holds b
   on entry and the solution on exit.

     for j0 in 0..n:                       <- VI-Prune & VS-Block sites
       x[j0] /= Lx[Lp[j0]]
       for p in Lp[j0]+1 .. Lp[j0+1]:
         x[Li[p]] -= Lx[p] * x[j0]
*)
let lower_trisolve (l : Csc.t) : kernel =
  let n = l.Csc.ncols in
  let body =
    [
      for_ ~annots:[ Vi_prune_site; Vs_block_site ] "j0" (int_ 0) (int_ n)
        [
          Update (Arr ("x", var "j0"), Div, Load ("Lx", Idx ("Lp", var "j0")));
          for_ "p"
            (Idx ("Lp", var "j0") +: int_ 1)
            (Idx ("Lp", var "j0" +: int_ 1))
            [
              Update
                ( Arr ("x", Idx ("Li", var "p")),
                  Sub,
                  Load ("Lx", var "p") *: Load ("x", var "j0") );
            ];
        ];
    ]
  in
  {
    kname = "trisolve";
    params = [ ("Lx", Float_array); ("x", Float_array) ];
    consts = [ ("Lp", l.Csc.colptr); ("Li", l.Csc.rowind) ];
    body;
  }

(* Left-looking sparse Cholesky (the pseudo-code of Figure 4) with VI-Prune
   already applied, as in the paper's Cholesky baseline: the update loop
   iterates over the precomputed prune-set (row patterns of L) instead of
   all columns. Every symbolic quantity — L's pattern, the position rowPos
   of L(j,r) inside column r — is precomputed ([cholesky_data]) and passed
   in, with n, as parameters: the lowered code is the same for every
   pattern, so one compiled kernel serves them all.

   Parameters: n, the pattern arrays, [amap] when [ordered] (the kernel
   then reads its natural-order input through it), Ax (values of
   lower(A)), Lx (output), f (zeroed workspace of size n).

     for j in 0..n:
       for p in Ap[j] .. Ap[j+1]:              -- f = A(:,j)
         f[Ai[p]] = Ax[p]                      -- Ax[amap[p]] if ordered
       for ridx in rowPtr[j] .. rowPtr[j+1]:   -- update (pruned)
         for p in rowPos[ridx] .. Lp[rowSet[ridx]+1]:
           f[Li[p]] -= Lx[p] * Lx[rowPos[ridx]]
       Lx[Lp[j]] = sqrt(f[j])                  -- diagonal
       f[j] = 0
       for p in Lp[j]+1 .. Lp[j+1]:            -- off-diagonal
         Lx[p] = f[Li[p]] / Lx[Lp[j]]
         f[Li[p]] = 0
*)
let cholesky_pattern_params =
  [ "Ap"; "Ai"; "Lp"; "Li"; "rowPtr"; "rowSet"; "rowPos" ]

let lower_cholesky ~ordered : kernel =
  let ax =
    if ordered then Load ("Ax", Idx ("amap", var "p")) else Load ("Ax", var "p")
  in
  let body =
    [
      for_ ~annots:[ Vs_block_site ] "j" (int_ 0) (var "n")
        [
          Comment "gather f = A(:,j)";
          for_ "p" (Idx ("Ap", var "j")) (Idx ("Ap", var "j" +: int_ 1))
            [ Assign (Arr ("f", Idx ("Ai", var "p")), ax) ];
          Comment "update phase over the prune-set (VI-Pruned)";
          for_ ~annots:[ Pruned ] "ridx" (Idx ("rowPtr", var "j"))
            (Idx ("rowPtr", var "j" +: int_ 1))
            [
              for_ "p" (Idx ("rowPos", var "ridx"))
                (Idx ("Lp", Idx ("rowSet", var "ridx") +: int_ 1))
                [
                  Update
                    ( Arr ("f", Idx ("Li", var "p")),
                      Sub,
                      Load ("Lx", var "p")
                      *: Load ("Lx", Idx ("rowPos", var "ridx")) );
                ];
            ];
          Comment "column factorization";
          Assign (Arr ("Lx", Idx ("Lp", var "j")), Sqrt (Load ("f", var "j")));
          Assign (Arr ("f", var "j"), Float_lit 0.0);
          for_ "p"
            (Idx ("Lp", var "j") +: int_ 1)
            (Idx ("Lp", var "j" +: int_ 1))
            [
              Assign
                ( Arr ("Lx", var "p"),
                  Load ("f", Idx ("Li", var "p"))
                  /: Load ("Lx", Idx ("Lp", var "j")) );
              Assign (Arr ("f", Idx ("Li", var "p")), Float_lit 0.0);
            ];
        ];
    ]
  in
  {
    kname = "cholesky_kernel";
    params =
      (("n", Int) :: List.map (fun a -> (a, Int_array)) cholesky_pattern_params)
      @ (if ordered then [ ("amap", Int_array) ] else [])
      @ [ ("Ax", Float_array); ("Lx", Float_array); ("f", Float_array) ];
    consts = [];
    body;
  }

(* The pattern arrays of [lower_cholesky], in parameter order, from L's
   pattern and its packed row patterns (row [j]'s columns ascending at
   [row_set.(row_ptr.(j)) ..]). rowPos of entry (j, r) counts the rows
   of column r's pattern seen so far: rows are visited ascending, so it
   is the entry's position in column r. *)
let cholesky_data (a_lower : Csc.t) ~(lp : int array) ~(li : int array)
    ~(row_ptr : int array) ~(row_set : int array) : (string * int array) list =
  let n = a_lower.Csc.ncols in
  let row_pos = Array.make row_ptr.(n) 0 in
  let fillcount = Array.make n 0 in
  for j = 0 to n - 1 do
    for t = row_ptr.(j) to row_ptr.(j + 1) - 1 do
      let r = row_set.(t) in
      fillcount.(r) <- fillcount.(r) + 1;
      row_pos.(t) <- lp.(r) + fillcount.(r)
    done
  done;
  List.combine cholesky_pattern_params
    [ a_lower.Csc.colptr; a_lower.Csc.rowind; lp; li; row_ptr; row_set; row_pos ]
