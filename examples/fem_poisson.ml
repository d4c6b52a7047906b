(* FEM / finite-difference scenario: implicit time stepping of the heat
   equation on a 2D grid (the electromagnetics / fluid-mechanics setting of
   §1.2: "the sparse structure originates from the physical discretization
   and therefore the sparsity pattern remains the same").

   Backward Euler: (M + dt*K) u_{t+1} = u_t + dt*q. The system matrix is
   assembled once, its pattern is fixed forever, and every time step is one
   numeric solve. We factor once with Sympiler and reuse the factor; a
   per-step refactorization (as a time-dependent coefficient would need)
   would reuse the symbolic analysis the same way.

   Run with: dune exec examples/fem_poisson.exe *)

open Sympiler_sparse
open Sympiler_kernels

let nx = 60
let ny = 60
let dt = 0.1
let steps = 50

let () =
  print_endline "== Implicit heat equation on a 2D grid ==";
  let n = nx * ny in
  (* K: 5-point Laplacian; system matrix S = I + dt K. *)
  let k = Generators.grid2d ~stencil:`Five ~shift:0.0 nx ny in
  let s =
    Csc.add (Csc.identity n) (Csc.scale k dt)
  in
  Printf.printf "grid %dx%d, system matrix: n=%d nnz=%d\n" nx ny n (Csc.nnz s);

  (* Fill-reducing ordering (as a library default would apply). *)
  let p = Sympiler.Suite.min_degree_postorder s in
  let sp = Perm.symmetric_permute p s in
  let sp_lower = Csc.lower sp in

  let t0 = Unix.gettimeofday () in
  let chol = Sympiler.Cholesky.compile sp_lower in
  let l = Sympiler.Cholesky.factor chol sp_lower in
  Printf.printf "analysis+factorization: %.1f ms, nnz(L)=%d, C kernel %s\n"
    ((Unix.gettimeofday () -. t0) *. 1e3)
    chol.Sympiler.Cholesky.nnz_l
    Sympiler.Cholesky.(variant_name (variant chol));

  (* Heat source in the grid center; initial condition zero. *)
  let q = Array.make n 0.0 in
  q.(((ny / 2) * nx) + (nx / 2)) <- 100.0;
  let u = Array.make n 0.0 in
  let t0 = Unix.gettimeofday () in
  for _step = 1 to steps do
    (* rhs = u + dt*q, permuted; solve S u' = rhs via the factor. *)
    let rhs = Array.init n (fun i -> u.(i) +. (dt *. q.(i))) in
    let rhs_p = Perm.apply_vec p rhs in
    let xp = Cholesky_ref.solve_with_factor l rhs_p in
    let x = Perm.apply_inv_vec p xp in
    Array.blit x 0 u 0 n
  done;
  let t_steps = Unix.gettimeofday () -. t0 in
  Printf.printf "%d time steps in %.1f ms (%.2f ms/solve)\n" steps
    (t_steps *. 1e3)
    (t_steps *. 1e3 /. float_of_int steps);

  (* Physical sanity: heat spreads from the center, total heat grows with
     the source, solution symmetric around the center column. *)
  let center = u.(((ny / 2) * nx) + (nx / 2)) in
  let corner = u.(0) in
  Printf.printf "u(center)=%.3f  u(corner)=%.6f\n" center corner;
  if center > corner && center > 0.0 then
    print_endline "OK: heat concentrated at the source and spreading"
  else begin
    print_endline "UNEXPECTED temperature field";
    exit 1
  end
