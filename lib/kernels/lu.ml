open Sympiler_sparse
module Metrics = Sympiler_metrics.Metrics

(* Sparse LU factorization, left-looking Gilbert-Peierls, without pivoting
   (static pattern — the §3.3 extension enabled by Sympiler's dependency-
   graph inspectors). A = L U with unit-diagonal L. Intended for matrices
   that are numerically safe without pivoting (diagonally dominant or SPD).

   Two variants, as for Cholesky:
   - [Ref]: the library scheme — each column's pattern is discovered at
     numeric time with a DFS over the partial dependence graph DG_L
     (Gilbert & Peierls' original coupling of symbolic and numeric work).
   - [Sympiler]: all column patterns are computed once symbolically at
     compile time; the numeric phase is pure arithmetic over baked-in
     patterns. *)

exception Zero_pivot of int

type factors = { l : Csc.t; (* unit lower triangular, diagonal stored *)
                 u : Csc.t (* upper triangular *) }

module Sympiler = struct
  type compiled = {
    n : int;
    (* per column j: reach pattern split into the U part (rows < j,
       ascending = valid dependence order) and L part (rows > j, ascending) *)
    l_colptr : int array;
    l_rowind : int array;
    u_colptr : int array;
    u_rowind : int array;
    flops : float;
  }

  (* Symbolic LU: simulate the factorization on patterns only. Column j's
     pattern is Reach_{DG_L}(pattern A(:,j)) over the partial L. *)
  let compile (a : Csc.t) : compiled =
    let n = a.Csc.ncols in
    (* Patterns of L columns (below diagonal), built progressively. *)
    let l_cols : int array array = Array.make n [||] in
    let u_counts = Array.make (n + 1) 0 in
    let l_counts = Array.make (n + 1) 0 in
    let mark = Array.make n (-1) in
    let u_patterns = Array.make n [||] in
    let flops = ref 0.0 in
    for j = 0 to n - 1 do
      (* DFS over DG of L(0:j-1) from pattern of A(:,j). *)
      let found = ref [] in
      let rec dfs v =
        if mark.(v) <> j then begin
          mark.(v) <- j;
          if v < j then
            Array.iter (fun w -> if w <> v then dfs w) l_cols.(v);
          found := v :: !found
        end
      in
      Csc.iter_col a j (fun i _ -> dfs i);
      let pat = Array.of_list !found in
      Array.sort compare pat;
      let upart = Array.of_seq (Seq.filter (fun i -> i < j) (Array.to_seq pat)) in
      let lpart = Array.of_seq (Seq.filter (fun i -> i > j) (Array.to_seq pat)) in
      u_patterns.(j) <- upart;
      l_cols.(j) <- lpart;
      u_counts.(j) <- Array.length upart + 1 (* + diagonal U(j,j) *);
      l_counts.(j) <- Array.length lpart + 1 (* + unit diagonal *);
      Array.iter
        (fun k -> flops := !flops +. (2.0 *. float_of_int (Array.length l_cols.(k))))
        upart;
      flops := !flops +. float_of_int (Array.length lpart)
    done;
    let u_colptr = Array.make (n + 1) 0 in
    Array.blit u_counts 0 u_colptr 0 n;
    let unnz = Utils.cumsum u_colptr in
    let l_colptr = Array.make (n + 1) 0 in
    Array.blit l_counts 0 l_colptr 0 n;
    let lnnz = Utils.cumsum l_colptr in
    let u_rowind = Array.make unnz 0 in
    let l_rowind = Array.make lnnz 0 in
    for j = 0 to n - 1 do
      let up = u_colptr.(j) in
      Array.iteri (fun t i -> u_rowind.(up + t) <- i) u_patterns.(j);
      u_rowind.(up + Array.length u_patterns.(j)) <- j;
      let lp = l_colptr.(j) in
      l_rowind.(lp) <- j;
      Array.iteri (fun t i -> l_rowind.(lp + 1 + t) <- i) l_cols.(j)
    done;
    { n; l_colptr; l_rowind; u_colptr; u_rowind; flops = !flops }

  (* A plan owns both factors' values and the dense scatter column, so
     repeated [factor_ip] calls allocate nothing. *)
  type plan = {
    c : compiled;
    lx : float array; (* values of L, plan-owned *)
    ux : float array; (* values of U, plan-owned *)
    x : float array; (* dense scatter column (all-zero between calls) *)
    f : factors; (* factor views over [lx] / [ux] and the compiled patterns *)
  }

  let make_plan (c : compiled) : plan =
    let n = c.n in
    let lx = Array.make c.l_colptr.(n) 0.0 in
    let ux = Array.make c.u_colptr.(n) 0.0 in
    let l =
      Csc.create ~nrows:n ~ncols:n ~colptr:c.l_colptr ~rowind:c.l_rowind
        ~values:lx
    in
    let u =
      Csc.create ~nrows:n ~ncols:n ~colptr:c.u_colptr ~rowind:c.u_rowind
        ~values:ux
    in
    { c; lx; ux; x = Array.make n 0.0; f = { l; u } }

  (* Numeric phase: no DFS, no pattern work. *)
  let factor_ip_body (p : plan) (a : Csc.t) : unit =
    let c = p.c in
    let n = c.n in
    let lx = p.lx in
    let ux = p.ux in
    let x = p.x in
    (* A prior run aborted by [Zero_pivot] leaves the scatter column dirty;
       the fill makes the plan reusable after any outcome. *)
    Array.fill x 0 n 0.0;
    for j = 0 to n - 1 do
      for q = a.Csc.colptr.(j) to a.Csc.colptr.(j + 1) - 1 do
        x.(a.Csc.rowind.(q)) <- a.Csc.values.(q)
      done;
      (* Eliminate along the U pattern in ascending (dependence) order. *)
      let ulo = c.u_colptr.(j) and uhi = c.u_colptr.(j + 1) - 1 in
      for p = ulo to uhi - 1 do
        let k = c.u_rowind.(p) in
        let xk = x.(k) in
        ux.(p) <- xk;
        x.(k) <- 0.0;
        if xk <> 0.0 then
          (* x -= xk * L(:,k) below diagonal *)
          for q = c.l_colptr.(k) + 1 to c.l_colptr.(k + 1) - 1 do
            let i = c.l_rowind.(q) in
            x.(i) <- x.(i) -. (lx.(q) *. xk)
          done
      done;
      let ujj = x.(j) in
      if ujj = 0.0 then raise (Zero_pivot j);
      ux.(uhi) <- ujj;
      x.(j) <- 0.0;
      let llo = c.l_colptr.(j) in
      lx.(llo) <- 1.0;
      for q = llo + 1 to c.l_colptr.(j + 1) - 1 do
        let i = c.l_rowind.(q) in
        lx.(q) <- x.(i) /. ujj;
        x.(i) <- 0.0
      done
    done;
    Metrics.inc Metrics.flops (int_of_float c.flops);
    Metrics.inc Metrics.nnz_touched (c.l_colptr.(n) + c.u_colptr.(n))

  (* Spanned entry point: single-bool no-op when tracing is off; the [try]
     keeps the span stack balanced across [Zero_pivot]. *)
  let factor_ip (p : plan) (a : Csc.t) : unit =
    Sympiler_trace.Trace.begin_span "factor_ip.lu";
    (try factor_ip_body p a
     with e ->
       Sympiler_trace.Trace.end_span ();
       raise e);
    Sympiler_trace.Trace.end_span ()

  (* One-shot allocating wrapper (fresh plan = fresh factor arrays). *)
  let factor (c : compiled) (a : Csc.t) : factors =
    let p = make_plan c in
    factor_ip p a;
    p.f
end

module Ref = struct
  (* Library-style Gilbert-Peierls: symbolic DFS per column at numeric
     time, dynamic growth of L and U. *)
  let factor (a : Csc.t) : factors =
    let n = a.Csc.ncols in
    let ltr = Triplet.create ~nrows:n ~ncols:n () in
    let utr = Triplet.create ~nrows:n ~ncols:n () in
    (* Partial L column patterns/values for the DFS and updates. *)
    let l_cols : (int * float) list array = Array.make n [] in
    let mark = Array.make n (-1) in
    let x = Array.make n 0.0 in
    for j = 0 to n - 1 do
      let found = ref [] in
      let rec dfs v =
        if mark.(v) <> j then begin
          mark.(v) <- j;
          if v < j then List.iter (fun (w, _) -> dfs w) l_cols.(v);
          found := v :: !found
        end
      in
      Csc.iter_col a j (fun i v ->
          x.(i) <- v;
          dfs i);
      let pat = List.sort compare !found in
      List.iter
        (fun k ->
          if k < j then begin
            let xk = x.(k) in
            if xk <> 0.0 then
              List.iter
                (fun (i, lik) -> x.(i) <- x.(i) -. (lik *. xk))
                l_cols.(k)
          end)
        pat;
      let ujj = x.(j) in
      if ujj = 0.0 then raise (Zero_pivot j);
      List.iter
        (fun k ->
          if k < j then begin
            utr |> fun t -> Triplet.add t k j x.(k);
            x.(k) <- 0.0
          end)
        pat;
      Triplet.add utr j j ujj;
      x.(j) <- 0.0;
      Triplet.add ltr j j 1.0;
      let below = ref [] in
      List.iter
        (fun i ->
          if i > j then begin
            let lij = x.(i) /. ujj in
            Triplet.add ltr i j lij;
            below := (i, lij) :: !below;
            x.(i) <- 0.0
          end)
        pat;
      l_cols.(j) <- List.rev !below
    done;
    { l = Csc.of_triplet ltr; u = Csc.of_triplet utr }
end

(* Solve A x = b from LU factors: forward (unit L, diagonal stored first)
   then backward (U, diagonal stored last). *)
let solve (f : factors) (b : float array) : float array =
  let x = Array.copy b in
  Stages.lower_ip f.l x;
  Stages.upper_ip f.u x;
  x
