(* Large-scale smoke test: a 10^5-row elongated 3D grid driven through the
   facade end to end. Deliberately NOT part of the default `dune runtest`
   (it forces a ~10^5-row factorization, seconds of work); run it with
   `dune build @large-smoke`, as every scripts/ci.sh run does.

   Checks: symbolic + numeric success at scale, a small residual, zero
   steady-state allocation of the plan path (the same Gc protocol the
   steady bench gates), and bitwise identity of pool-parallel factors
   against the sequential executor. *)

open Sympiler_sparse

let failures = ref 0

let check name ok =
  if ok then Printf.printf "  [ok] %s\n%!" name
  else begin
    incr failures;
    Printf.printf "  [FAIL] %s\n%!" name
  end

let () =
  Printf.printf "large-smoke: 10^5-row grid3d through the facade\n%!";
  let g =
    List.find
      (fun p -> p.Generators.name = "grid3d_1e5")
      Generators.large_suite
  in
  let a = Lazy.force g.Generators.matrix in
  let al = Csc.lower a in
  let n = a.Csc.ncols in
  check "n = 10^5" (n = 100_000);

  (* Symbolic + numeric end to end. *)
  let h = Sympiler.Cholesky.compile al in
  check "nnz(L) >= nnz(lower A)" (h.Sympiler.Cholesky.nnz_l >= Csc.nnz al);
  let plan = Sympiler.Cholesky.plan h in
  ignore (Sympiler.Cholesky.execute_ip plan al);
  let l = Sympiler.Cholesky.plan_factor plan in
  let x_true = Array.make n 1.0 in
  let b = Csc.spmv a x_true in
  let x = Sympiler_kernels.Cholesky_ref.solve_with_factor l b in
  let err = ref 0.0 in
  for i = 0 to n - 1 do
    err := Float.max !err (Float.abs (x.(i) -. 1.0))
  done;
  check (Printf.sprintf "solve recovers ones (err %.2e)" !err) (!err < 1e-6);

  (* Steady-state refactorization must allocate nothing. *)
  ignore (Sympiler.Cholesky.execute_ip plan al);
  ignore (Sympiler.Cholesky.execute_ip plan al);
  let loops = 5 in
  let w0 = Gc.minor_words () in
  for _ = 1 to loops do
    ignore (Sympiler.Cholesky.execute_ip plan al)
  done;
  let per_call =
    int_of_float ((Gc.minor_words () -. w0) /. float_of_int loops)
  in
  check
    (Printf.sprintf "steady refactor allocation-free (%d words/call)" per_call)
    (per_call = 0);

  (* Pool-parallel factors must be bitwise-identical to sequential ones:
     AMD-ordered, the grid's work sits in wide supernodes, so [?ndomains]
     plans run the level-parallel supernodal executor. *)
  let hs =
    Sympiler.Cholesky.compile ~opts:(Sympiler.Options.make ~ordering:`Amd ()) al
  in
  check "VS-Block fires"
    (Sympiler.Cholesky.variant hs = Sympiler.Cholesky.Supernodal);
  let p_seq = Sympiler.Cholesky.plan ~ndomains:1 hs in
  let p_par = Sympiler.Cholesky.plan ~ndomains:2 hs in
  ignore (Sympiler.Cholesky.execute_ip p_seq al);
  ignore (Sympiler.Cholesky.execute_ip p_par al);
  let vs = (Sympiler.Cholesky.plan_factor p_seq).Csc.values in
  let vp = (Sympiler.Cholesky.plan_factor p_par).Csc.values in
  let same =
    Array.length vs = Array.length vp
    && begin
         let ok = ref true in
         for i = 0 to Array.length vs - 1 do
           if not (Int64.equal (Int64.bits_of_float vs.(i))
                     (Int64.bits_of_float vp.(i)))
           then ok := false
         done;
         !ok
       end
  in
  check "pool factor bitwise-identical to sequential" same;

  if !failures > 0 then begin
    Printf.printf "large-smoke: %d failure(s)\n%!" !failures;
    exit 1
  end;
  Printf.printf "large-smoke: all checks passed\n%!"
