(* Circuit / power-system simulation scenario (§1.2 of the paper): a
   Newton-Raphson solver for a nonlinear system whose Jacobian has a FIXED
   sparsity pattern (the circuit topology) but numeric values that change
   every iteration (operating-point-dependent conductances).

   We solve  f(x) = A x + c ⊙ x³ - b = 0  with Jacobian  J(x) = A + 3 c x²
   (a diode-like cubic nonlinearity on each node). J's pattern never
   changes, so Sympiler's symbolic analysis runs once; every NR iteration
   is a pure numeric refactorization + solve, exactly the paper's use case
   "a Jacobian matrix is factorized in each iteration and the NR solvers
   require tens or hundreds of iterations to converge".

   Run with: dune exec examples/circuit_sim.exe *)

open Sympiler_sparse

let n = 2000

let () =
  print_endline "== Newton-Raphson circuit simulation ==";
  (* Circuit topology: irregular banded SPD conductance matrix. *)
  let a = Generators.random_banded ~seed:77 ~n ~band:30 ~density:0.1 () in
  let a_lower = Csc.lower a in
  let rng = Utils.Rng.create 78 in
  let c = Array.init n (fun _ -> Utils.Rng.float_range rng 0.01 0.1) in
  let b = Array.init n (fun _ -> Utils.Rng.float_range rng (-1.0) 1.0) in

  let f x =
    let ax = Csc.spmv a x in
    Array.init n (fun i -> ax.(i) +. (c.(i) *. (x.(i) ** 3.0)) -. b.(i))
  in
  (* Jacobian values for the fixed pattern: A plus a diagonal term. *)
  let jacobian_lower x =
    let jl = { a_lower with Csc.values = Array.copy a_lower.Csc.values } in
    for j = 0 to n - 1 do
      let p = jl.Csc.colptr.(j) in
      (* diagonal is the first entry of each lower column *)
      jl.Csc.values.(p) <-
        a_lower.Csc.values.(p) +. (3.0 *. c.(j) *. x.(j) *. x.(j))
    done;
    jl
  in

  (* Symbolic analysis + planning: once, against the topology. *)
  let t0 = Unix.gettimeofday () in
  let chol = Sympiler.Cholesky.compile a_lower in
  let t_symbolic = Unix.gettimeofday () -. t0 in
  Printf.printf "symbolic analysis: %.1f ms (pattern: n=%d, nnz(L)=%d)\n"
    (t_symbolic *. 1e3) n chol.Sympiler.Cholesky.nnz_l;

  (* Newton iteration. *)
  let x = Array.make n 0.0 in
  let t0 = Unix.gettimeofday () in
  let rec newton it =
    let fx = f x in
    let nrm = Vector.norm_inf fx in
    Printf.printf "  iter %2d  |f(x)| = %.3e\n" it nrm;
    if nrm > 1e-10 && it < 25 then begin
      let jl = jacobian_lower x in
      let dx = Sympiler.Cholesky.solve chol jl fx in
      for i = 0 to n - 1 do
        x.(i) <- x.(i) -. dx.(i)
      done;
      newton (it + 1)
    end
    else it
  in
  let iters = newton 0 in
  let t_numeric = Unix.gettimeofday () -. t0 in
  Printf.printf
    "converged in %d iterations; %.1f ms numeric total (%.2f ms/factor+solve)\n"
    iters (t_numeric *. 1e3)
    (t_numeric *. 1e3 /. float_of_int (max 1 iters));
  Printf.printf
    "symbolic cost amortized over %d factorizations: %.1f%% of total time\n"
    iters
    (100.0 *. t_symbolic /. (t_symbolic +. t_numeric));
  (* Newton stops after 25 iterations either way: exit non-zero unless it
     stopped because it converged. *)
  let nrm = Vector.norm_inf (f x) in
  if not (nrm <= 1e-10) then begin
    Printf.printf "UNEXPECTED: no convergence, |f(x)| = %.3e\n" nrm;
    exit 1
  end
