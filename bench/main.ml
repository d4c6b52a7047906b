open Sympiler_sparse
open Sympiler_symbolic
open Sympiler_kernels
open Sympiler_prof

(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (§4), plus the §1.1 motivating numbers, two ablations and
   the §3.3 extensions, and the timing gates scripts/ci.sh fails on.

   Each paper timing is the median of 5 measurements (each measurement
   averages enough repetitions to fill a minimum wall-clock window);
   `--quick` shrinks the window. With no `--only`, the paper sections run
   in turn and print to stdout: table2, fig6, fig7, fig8, fig9, intro,
   ablation-threshold, ablation-lowlevel, extensions. `--only SECTION`
   runs one of them, or one of two sections that run only when named:
   `gates` (the CI timing verdicts, written to _build/bench/gates.json)
   and `large` (the 10^4..10^6-row tier, written to
   _build/bench/large.json; `--large` adds it to the default sweep). An
   unknown section name exits 2. `large` runs each instance in a fresh
   process of this executable (`--large-instance ID`), so each row's rss
   is its own peak. *)

let quick = Array.exists (( = ) "--quick") Sys.argv

(* The name after `--only` ("" when it is the last argument). *)
let only =
  let rec find i =
    if i >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--only" then
      Some (if i + 1 < Array.length Sys.argv then Sys.argv.(i + 1) else "")
    else find (i + 1)
  in
  find 1

let min_window = if quick then 0.05 else 0.2
let reps_outer = if quick then 3 else 5

(* Median of a float array (sorts it in place). *)
let median a =
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* An arm runs its operation [n] times; [time arm n] is the per-call time,
   on the monotonic clock (immune to NTP slews). *)
let time (arm : int -> unit) n =
  let t0 = Prof.now_seconds () in
  arm n;
  (Prof.now_seconds () -. t0) /. float_of_int n

let repeat f n =
  for _ = 1 to n do
    f ()
  done

(* Calls that fill about [seconds], sized from doubling runs until one
   lasts 5 ms. *)
let calls_for ~seconds arm =
  let rec go n =
    let t = time arm n in
    if t *. float_of_int n >= 0.005 || n >= 1 lsl 24 then
      max 1 (int_of_float (seconds /. Float.max t 1e-9))
    else go (2 * n)
  in
  go 1

(* Median per-call time over [windows] windows of about [seconds]. *)
let per_call ?(windows = 5) ~seconds arm =
  let n = calls_for ~seconds arm in
  median (Array.init windows (fun _ -> time arm n))

(* The paper sections' timing: median of [reps_outer] windows of
   [min_window] seconds. *)
let measure f = per_call ~windows:reps_outer ~seconds:min_window (repeat f)

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let section_note s = print_string s

(* The sections that keep their data write it under _build/bench/ (from
   the repository root), never over a tracked file. *)
let write_json name doc =
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ "_build"; "_build/bench" ];
  let file = Filename.concat "_build/bench" name in
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc (Prof.Json.to_string doc);
      Out_channel.output_char oc '\n');
  Printf.printf "(written to %s)\n" file

(* ---------------------------------------------------------------- *)
(* Shared per-problem data, built lazily and cached.                  *)

type prob_data = {
  p : Sympiler.Suite.prepared;
  l_factor : Csc.t; (* numeric Cholesky factor, input for trisolve benches *)
  rhs : Vector.sparse;
  tri_compiled : Trisolve_sympiler.compiled;
  tri_flops : float;
}

let prob_cache : (int, prob_data) Hashtbl.t = Hashtbl.create 16

let prob id =
  match Hashtbl.find_opt prob_cache id with
  | Some d -> d
  | None ->
      let p = Sympiler.Suite.problem id in
      let t = Sympiler.Cholesky.compile p.Sympiler.Suite.a_lower in
      let l_factor = Sympiler.Cholesky.factor t p.Sympiler.Suite.a_lower in
      let rhs = Sympiler.Suite.rhs_for p in
      let tri_compiled = Trisolve_sympiler.compile l_factor rhs in
      let d =
        {
          p;
          l_factor;
          rhs;
          tri_compiled;
          tri_flops = tri_compiled.Trisolve_sympiler.flops;
        }
      in
      Hashtbl.replace prob_cache id d;
      d

let ids = List.init 11 (fun i -> i + 1)

(* ---------------------------------------------------------------- *)
(* Table 2 *)

let table2 () =
  header "Table 2: matrix set (synthetic stand-ins, see DESIGN.md)";
  Printf.printf "%-3s %-15s %9s %10s %-22s %s\n" "ID" "Name" "n" "nnz(A)"
    "ordering" "structure";
  List.iter
    (fun id ->
      let d = prob id in
      let a = d.p.Sympiler.Suite.a_full in
      Printf.printf "%-3d %-15s %9d %10d %-22s %s\n" id d.p.Sympiler.Suite.name
        a.Csc.ncols (Csc.nnz a) d.p.Sympiler.Suite.ordering
        d.p.Sympiler.Suite.descr)
    ids;
  section_note
    "(paper: 11 SuiteSparse SPD matrices, n 13.7k-1M, nnz 0.68M-5.1M;\n\
    \ scaled down ~8-16x to fit the single-core container - DESIGN.md)\n"

(* ---------------------------------------------------------------- *)
(* Figure 6: triangular solve GFLOP/s *)

let fig6 () =
  header "Figure 6: sparse triangular solve GFLOP/s (sparse RHS)";
  Printf.printf "%-3s %-15s %8s | %8s %8s %8s %8s | %s\n" "ID" "Name" "flops"
    "Eigen" "VS-Blk" "+VIPrune" "+LowLvl" "Sympiler/Eigen";
  let speedups = ref [] in
  List.iter
    (fun id ->
      let d = prob id in
      let l = d.l_factor and b = d.rhs in
      let x = Vector.sparse_to_dense b in
      let load () =
        Array.iteri (fun i _ -> x.(i) <- 0.0) x;
        Array.iteri (fun k i -> x.(i) <- b.Vector.values.(k)) b.Vector.indices
      in
      let bench f =
        measure (fun () ->
            load ();
            f ())
      in
      let t_eigen = bench (fun () -> Trisolve_ref.library_ip l x) in
      let p = Trisolve_sympiler.make_plan d.tri_compiled in
      let t_vs = bench (fun () -> Trisolve_sympiler.solve_vs_block_ip p x) in
      let t_vsvi = bench (fun () -> Trisolve_sympiler.solve_vs_vi_ip p x) in
      let t_full = bench (fun () -> Trisolve_sympiler.solve_full_ip p x) in
      let gf t = d.tri_flops /. t /. 1e9 in
      let sp = t_eigen /. t_full in
      speedups := sp :: !speedups;
      Printf.printf "%-3d %-15s %8.0f | %8.3f %8.3f %8.3f %8.3f | %.2fx\n" id
        d.p.Sympiler.Suite.name d.tri_flops (gf t_eigen) (gf t_vs) (gf t_vsvi)
        (gf t_full) sp)
    ids;
  let sp = !speedups in
  let avg = List.fold_left ( +. ) 0.0 sp /. float_of_int (List.length sp) in
  Printf.printf "Sympiler(full)/Eigen speedup: min %.2fx avg %.2fx max %.2fx\n"
    (List.fold_left Float.min infinity sp)
    avg
    (List.fold_left Float.max 0.0 sp);
  section_note "(paper: 1.2x-1.7x over Eigen, average 1.49x)\n"

(* ---------------------------------------------------------------- *)
(* Figure 7: Cholesky GFLOP/s *)

let fig7 () =
  header "Figure 7: Cholesky factorization GFLOP/s (numeric phase)";
  Printf.printf "%-3s %-15s %9s %6s | %8s %8s %8s %8s | %s\n" "ID" "Name"
    "flops(M)" "avgw" "Eigen" "CHOLMOD" "VS-Blk" "+LowLvl" "variant";
  let sp_cholmod = ref [] and sp_eigen = ref [] in
  List.iter
    (fun id ->
      let d = prob id in
      let al = d.p.Sympiler.Suite.a_lower in
      let an_e = Cholesky_ref.Eigen.analyze al in
      let t_eigen =
        measure (fun () -> ignore (Cholesky_ref.Eigen.factor an_e al))
      in
      let an_c = Cholesky_supernodal.Cholmod.analyze al in
      let t_cholmod =
        measure (fun () -> ignore (Cholesky_supernodal.Cholmod.factor an_c al))
      in
      let avgw = Supernodes.avg_width an_c.Cholesky_supernodal.sn in
      (* Sympiler: its VS-Block rule decides supernodal vs simplicial, as
         the paper's Sympiler skips VS-Block for matrices with small
         supernodes (3,4,5,7 there). The facade runs the rule's supernodal
         side only in the emitted C; the figure times the OCaml VS-Block
         executors it follows. *)
      let t_sym = Sympiler.Cholesky.compile al in
      let variant = Sympiler.Cholesky.(variant_name (variant t_sym)) in
      let t_vsblk, t_full =
        match Sympiler.Cholesky.variant t_sym with
        | Sympiler.Cholesky.Supernodal ->
            let sup specialized =
              let c = Cholesky_supernodal.Sympiler.compile ~specialized al in
              measure (fun () -> ignore (Cholesky_supernodal.Sympiler.factor c al))
            in
            (sup false, sup true)
        | Sympiler.Cholesky.Simplicial ->
            let t =
              measure (fun () -> ignore (Sympiler.Cholesky.factor t_sym al))
            in
            (t, t)
      in
      let fl = t_sym.Sympiler.Cholesky.flops in
      let gf t = fl /. t /. 1e9 in
      sp_cholmod := (t_cholmod /. t_full) :: !sp_cholmod;
      sp_eigen := (t_eigen /. t_full) :: !sp_eigen;
      Printf.printf "%-3d %-15s %9.1f %6.2f | %8.3f %8.3f %8.3f %8.3f | %s\n" id
        d.p.Sympiler.Suite.name (fl /. 1e6) avgw (gf t_eigen) (gf t_cholmod)
        (gf t_vsblk) (gf t_full) variant)
    ids;
  let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  Printf.printf
    "Sympiler speedup: vs Eigen avg %.2fx (max %.2fx), vs CHOLMOD avg %.2fx (max %.2fx)\n"
    (avg !sp_eigen)
    (List.fold_left Float.max 0.0 !sp_eigen)
    (avg !sp_cholmod)
    (List.fold_left Float.max 0.0 !sp_cholmod);
  section_note
    "(paper: up to 6.3x over Eigen, up to 2.4x over CHOLMOD; avg 3.8x / 1.5x)\n"

(* ---------------------------------------------------------------- *)
(* Figure 8: triangular solve symbolic+numeric, normalized to Eigen *)

let fig8 () =
  header "Figure 8: trisolve symbolic+numeric time / Eigen time (lower=better)";
  Printf.printf "%-3s %-15s | %9s %9s %9s |\n" "ID" "Name" "numeric" "symbolic"
    "sym+num";
  let totals = ref [] in
  List.iter
    (fun id ->
      let d = prob id in
      let l = d.l_factor and b = d.rhs in
      let x = Vector.sparse_to_dense b in
      let load () =
        Array.iteri (fun i _ -> x.(i) <- 0.0) x;
        Array.iteri (fun k i -> x.(i) <- b.Vector.values.(k)) b.Vector.indices
      in
      let t_eigen =
        measure (fun () ->
            load ();
            Trisolve_ref.library_ip l x)
      in
      (* Paper accounting (§4.3): the symbolic inspector is the reach-set
         DFS; everything else in [compile] (supernode detection, planning)
         is code generation, reported separately as a multiple of the
         numeric solve (paper: 6-197x). *)
      let t_symbolic =
        measure (fun () -> ignore (Dep_graph.reach l b.Vector.indices))
      in
      let t0 = Prof.now_seconds () in
      let c = Trisolve_sympiler.compile l b in
      let t_compile = Prof.now_seconds () -. t0 in
      let t_codegen = Float.max 0.0 (t_compile -. t_symbolic) in
      let p = Trisolve_sympiler.make_plan c in
      let t_numeric =
        measure (fun () ->
            load ();
            Trisolve_sympiler.solve_full_ip p x)
      in
      let r_num = t_numeric /. t_eigen in
      let r_sym = t_symbolic /. t_eigen in
      totals := (r_num +. r_sym) :: !totals;
      Printf.printf "%-3d %-15s | %9.2f %9.2f %9.2f |  codegen = %5.0fx solve\n"
        id d.p.Sympiler.Suite.name r_num r_sym (r_num +. r_sym)
        (t_codegen /. t_numeric))
    ids;
  let avg = List.fold_left ( +. ) 0.0 !totals /. 11.0 in
  Printf.printf "average symbolic+numeric / Eigen: %.2fx\n" avg;
  section_note
    "(paper: Sympiler sym+num averages 1.27x Eigen's time, and code\n\
    \ generation + compilation costs 6-197x the numeric solve; both\n\
    \ amortize across repeated solves with a fixed pattern)\n"

(* ---------------------------------------------------------------- *)
(* Figure 9: Cholesky symbolic+numeric, normalized to Eigen total *)

let fig9 () =
  header
    "Figure 9: Cholesky symbolic+numeric time / Eigen total (lower=better)";
  Printf.printf "%-3s %-15s | %7s %7s | %7s %7s | %7s %7s | %s\n" "ID" "Name"
    "Eig.num" "Eig.sym" "Chm.num" "Chm.sym" "Sym.num" "Sym.sym" "totals";
  List.iter
    (fun id ->
      let d = prob id in
      let al = d.p.Sympiler.Suite.a_lower in
      let sym_time f =
        let ts =
          Array.init 3 (fun _ ->
              let t0 = Prof.now_seconds () in
              ignore (Sys.opaque_identity (f ()));
              Prof.now_seconds () -. t0)
        in
        Array.sort compare ts;
        ts.(1)
      in
      let an_e = Cholesky_ref.Eigen.analyze al in
      let eig_sym = sym_time (fun () -> Cholesky_ref.Eigen.analyze al) in
      let eig_num =
        measure (fun () -> ignore (Cholesky_ref.Eigen.factor an_e al))
      in
      let an_c = Cholesky_supernodal.Cholmod.analyze al in
      let chm_sym = sym_time (fun () -> Cholesky_supernodal.Cholmod.analyze al) in
      let chm_num =
        measure (fun () -> ignore (Cholesky_supernodal.Cholmod.factor an_c al))
      in
      let t_sym = Sympiler.Cholesky.compile al in
      let sym_sym = sym_time (fun () -> Sympiler.Cholesky.compile al) in
      let sym_num =
        measure (fun () -> ignore (Sympiler.Cholesky.factor t_sym al))
      in
      let base = eig_num +. eig_sym in
      let r v = v /. base in
      Printf.printf
        "%-3d %-15s | %7.2f %7.2f | %7.2f %7.2f | %7.2f %7.2f | eig %.2f chm %.2f sym %.2f\n"
        id d.p.Sympiler.Suite.name (r eig_num) (r eig_sym) (r chm_num)
        (r chm_sym) (r sym_num) (r sym_sym)
        (r (eig_num +. eig_sym))
        (r (chm_num +. chm_sym))
        (r (sym_num +. sym_sym)))
    ids;
  section_note
    "(paper: Sympiler's accumulated symbolic+numeric time beats both\n\
    \ libraries in nearly all cases)\n"

(* ---------------------------------------------------------------- *)
(* §1.1 motivating numbers *)

let intro () =
  header
    "Section 1.1: trisolve speedup vs naive (Fig 1b) and library (Fig 1c)";
  Printf.printf "%-3s %-15s | %10s %10s\n" "ID" "Name" "vs naive" "vs library";
  let vs_naive = ref [] and vs_lib = ref [] in
  List.iter
    (fun id ->
      let d = prob id in
      let l = d.l_factor and b = d.rhs in
      let x = Vector.sparse_to_dense b in
      let load () =
        Array.iteri (fun i _ -> x.(i) <- 0.0) x;
        Array.iteri (fun k i -> x.(i) <- b.Vector.values.(k)) b.Vector.indices
      in
      let t_naive =
        measure (fun () ->
            load ();
            Trisolve_ref.naive_ip l x)
      in
      let t_lib =
        measure (fun () ->
            load ();
            Trisolve_ref.library_ip l x)
      in
      let p = Trisolve_sympiler.make_plan d.tri_compiled in
      let t_full =
        measure (fun () ->
            load ();
            Trisolve_sympiler.solve_full_ip p x)
      in
      vs_naive := (t_naive /. t_full) :: !vs_naive;
      vs_lib := (t_lib /. t_full) :: !vs_lib;
      Printf.printf "%-3d %-15s | %9.1fx %9.2fx\n" id d.p.Sympiler.Suite.name
        (t_naive /. t_full) (t_lib /. t_full))
    ids;
  let stats l =
    ( List.fold_left Float.min infinity l,
      List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l),
      List.fold_left Float.max 0.0 l )
  in
  let n0, n1, n2 = stats !vs_naive and l0, l1, l2 = stats !vs_lib in
  Printf.printf
    "vs naive:   min %.1fx avg %.1fx max %.1fx  (paper: 8.4x / 13.6x / 19x)\n"
    n0 n1 n2;
  Printf.printf
    "vs library: min %.2fx avg %.2fx max %.2fx (paper: 1.2x / 1.3x / 1.7x)\n"
    l0 l1 l2

(* ---------------------------------------------------------------- *)
(* Ablation A1: the VS-Block threshold (§4.2; width-based here). *)

let ablation_threshold () =
  header "Ablation A1: supernodal vs simplicial Cholesky by avg supernode width";
  Printf.printf "%-3s %-15s %6s | %9s %9s | %s\n" "ID" "Name" "avgw" "supern."
    "simplic." "winner";
  List.iter
    (fun id ->
      let d = prob id in
      let al = d.p.Sympiler.Suite.a_lower in
      let cs = Cholesky_supernodal.Sympiler.compile al in
      let t_sn =
        measure (fun () -> ignore (Cholesky_supernodal.Sympiler.factor cs al))
      in
      let cd = Cholesky_ref.Decoupled.compile al in
      let t_si =
        measure (fun () -> ignore (Cholesky_ref.Decoupled.factor cd al))
      in
      let avgw =
        Supernodes.avg_width
          cs.Cholesky_supernodal.Sympiler.an.Cholesky_supernodal.sn
      in
      Printf.printf "%-3d %-15s %6.2f | %8.1fms %8.1fms | %s\n" id
        d.p.Sympiler.Suite.name avgw (t_sn *. 1e3) (t_si *. 1e3)
        (if t_sn < t_si then "supernodal" else "simplicial"))
    ids;
  section_note
    "(the OCaml supernodal executor wins on no pattern: VS-Block runs only\n\
    \ in the emitted C, above a flop-weighted supernode width of 6 and\n\
    \ 75,000 flops, the measured counterpart of the paper's hand-tuned\n\
    \ threshold of 160; EXPERIMENTS.md A1)\n"

(* Ablation A2: low-level transformations on/off. *)

let ablation_lowlevel () =
  header "Ablation A2: effect of specialized kernels + peeling";
  Printf.printf "%-3s %-15s | %10s %10s %7s | %10s %10s %7s\n" "ID" "Name"
    "tri-gen" "tri-spec" "gain" "chol-gen" "chol-spec" "gain";
  List.iter
    (fun id ->
      let d = prob id in
      let l = d.l_factor and b = d.rhs in
      ignore l;
      let x = Vector.sparse_to_dense b in
      let load () =
        Array.iteri (fun i _ -> x.(i) <- 0.0) x;
        Array.iteri (fun k i -> x.(i) <- b.Vector.values.(k)) b.Vector.indices
      in
      let p = Trisolve_sympiler.make_plan d.tri_compiled in
      let t_gen =
        measure (fun () ->
            load ();
            Trisolve_sympiler.solve_vs_vi_ip p x)
      in
      let t_spec =
        measure (fun () ->
            load ();
            Trisolve_sympiler.solve_full_ip p x)
      in
      let al = d.p.Sympiler.Suite.a_lower in
      let cg = Cholesky_supernodal.Sympiler.compile ~specialized:false al in
      let cspec = Cholesky_supernodal.Sympiler.compile ~specialized:true al in
      let t_cg =
        measure (fun () -> ignore (Cholesky_supernodal.Sympiler.factor cg al))
      in
      let t_cs =
        measure (fun () ->
            ignore (Cholesky_supernodal.Sympiler.factor cspec al))
      in
      Printf.printf
        "%-3d %-15s | %8.2fus %8.2fus %6.2fx | %8.1fms %8.1fms %6.2fx\n" id
        d.p.Sympiler.Suite.name (t_gen *. 1e6) (t_spec *. 1e6)
        (t_gen /. t_spec) (t_cg *. 1e3) (t_cs *. 1e3) (t_cg /. t_cs))
    ids

(* ---------------------------------------------------------------- *)
(* Extensions: §3.3 methods beyond the paper's figures. *)

let extensions () =
  header "Extensions: rank-1 update, factorization variants, parallel trisolve";
  (* Rank-1 update vs full refactorization: the method's entire point. *)
  Printf.printf "%-3s %-15s | %10s %10s %8s | %8s
" "ID" "Name" "refactor"
    "rank-1 upd" "speedup" "path len";
  List.iter
    (fun id ->
      let d = prob id in
      let al = d.p.Sympiler.Suite.a_lower in
      let fill = Fill_pattern.analyze al in
      let parent = fill.Fill_pattern.parent in
      let t_sym = Sympiler.Cholesky.compile al in
      let l = Sympiler.Cholesky.factor t_sym al in
      let w = Rank_update.vector_like l ~j:(al.Csc.ncols / 3) ~scale:0.3 in
      let cu = Rank_update.compile ~parent w in
      let t_refactor =
        measure (fun () -> ignore (Sympiler.Cholesky.factor t_sym al))
      in
      let t_update =
        measure (fun () ->
            Rank_update.apply cu l w;
            Rank_update.apply ~sigma:(-1.0) cu l w)
      in
      (* one update+downdate pair = 2 rank-1 operations *)
      let per_op = t_update /. 2.0 in
      Printf.printf "%-3d %-15s | %8.2fms %8.3fms %7.0fx | %8d
" id
        d.p.Sympiler.Suite.name (t_refactor *. 1e3) (per_op *. 1e3)
        (t_refactor /. per_op)
        (Array.length cu.Rank_update.path))
    ids;
  (* Factorization variants on one representative problem. *)
  let d = prob 6 in
  let al = d.p.Sympiler.Suite.a_lower in
  let cl = Cholesky_leftlooking.compile al in
  let t_left = measure (fun () -> ignore (Cholesky_leftlooking.factor cl al)) in
  let cd = Cholesky_ref.Decoupled.compile al in
  let t_up = measure (fun () -> ignore (Cholesky_ref.Decoupled.factor cd al)) in
  let fl = cl.Cholesky_leftlooking.flops in
  Printf.printf
    "
Figure 4 left-looking vs up-looking (msc23052): %.3f vs %.3f GFLOP/s
"
    (fl /. t_left /. 1e9) (fl /. t_up /. 1e9);
  (* Level-set statistics for the parallel trisolve. *)
  Printf.printf "
Level-set trisolve schedules (wavefront parallelism):
";
  List.iter
    (fun id ->
      let d = prob id in
      let c = Trisolve_parallel.compile d.l_factor in
      let widths =
        Array.init c.Trisolve_parallel.nlevels (fun l ->
            c.Trisolve_parallel.level_ptr.(l + 1)
            - c.Trisolve_parallel.level_ptr.(l))
      in
      let maxw = Array.fold_left max 0 widths in
      Printf.printf
        "  %-15s n=%6d levels=%5d max width=%6d avg width=%7.1f
"
        d.p.Sympiler.Suite.name d.l_factor.Csc.ncols
        c.Trisolve_parallel.nlevels maxw
        (float_of_int d.l_factor.Csc.ncols
        /. float_of_int c.Trisolve_parallel.nlevels))
    ids


(* ---------------------------------------------------------------- *)
(* Large tier (opt-in): end-to-end runs on the Generators.large_suite
   instances — elongated 3D grid Laplacians at 10^4 / 10^5 / 10^6 rows and
   a 10^5-row circuit-style matrix. Never part of the default sweep (a
   10^6-row factorization takes seconds and hundreds of MB); enabled by
   `--only large` or by the `--large` flag. For each instance: assembly,
   symbolic-analysis, compile, numeric-factor and solve wall-clock, the
   residual of the solved system, nnz(L), the packed prune-set store's
   footprint, and process max-RSS. Across the three grid sizes the
   log-log least-squares slope of time vs n is the measured scaling
   exponent; the suite's structures keep work-per-row constant, so a
   linear stack shows ~1.0 and the verdict gates symbolic at <= 1.3.
   Writes _build/bench/large.json. *)

let large_requested = Array.exists (( = ) "--large") Sys.argv

(* Peak resident set (VmHWM) of this process, in kB; 0 if unreadable. *)
let max_rss_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception _ -> 0
  | s ->
      let kb = ref 0 in
      String.split_on_char '\n' s
      |> List.iter (fun line ->
             if String.starts_with ~prefix:"VmHWM:" line then
               Scanf.sscanf_opt line "VmHWM: %d kB" (fun v -> v)
               |> Option.iter (fun v -> kb := v));
      !kb

(* Least-squares slope of log t against log n: the measured scaling
   exponent over a size ladder. *)
let fit_exponent (pts : (int * float) list) : float =
  let pts =
    List.filter_map
      (fun (n, t) ->
        if n > 0 && t > 0.0 then Some (log (float_of_int n), log t) else None)
      pts
  in
  let m = float_of_int (List.length pts) in
  if m < 2.0 then nan
  else begin
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
    let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
    let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
    ((m *. sxy) -. (sx *. sy)) /. ((m *. sxx) -. (sx *. sx))
  end

(* Settle the heap: a block allocated during the current major cycle
   survives a [Gc.compact] alone (OCaml 5.1); the full major cycle first
   frees it, so the compaction can return its memory. *)
let settle () =
  Gc.full_major ();
  Gc.compact ()

(* Minimum over [reps] one-shot timings; big instances get fewer reps
   (a 10^6-row numeric factorization is seconds on its own). [prepare]
   runs outside the timed window before every repetition — phases that
   allocate hundreds of MB (symbolic analysis at 10^6 rows) use it to
   drop the previous result and compact, so a repetition never pays
   major-GC debt left behind by the one before it. Without this the
   measured "symbolic" time at 10^6 rows inflates 2-4x run over run and
   the scaling exponent reads super-linear for a linear stack. *)
let time_min ?(prepare = fun () -> ()) reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    prepare ();
    let t0 = Prof.now_seconds () in
    f ();
    best := Float.min !best (Prof.now_seconds () -. t0)
  done;
  !best

(* One large-tier instance: prints its table row and returns its JSON
   row. Its max_rss_kb is the peak of the process it runs in, so [large]
   runs each instance in a process of its own. *)
let large_row (g : Generators.problem) : Prof.Json.t =
  let name = g.Generators.name in
  let t0 = Prof.now_seconds () in
  let a = Lazy.force g.Generators.matrix in
  let al = Csc.lower a in
  let assemble_s = Prof.now_seconds () -. t0 in
  let n = a.Csc.ncols in
  let reps = if n >= 1_000_000 then 2 else 3 in
  let fill = ref None in
  let symbolic_s =
    time_min reps
      ~prepare:(fun () ->
        fill := None;
        settle ())
      (fun () -> fill := Some (Fill_pattern.analyze al))
  in
  (* Bytes of the analysis' int row lists (row_ptr and row_ind). *)
  let store_bytes =
    let f = Option.get !fill in
    8 * (Array.length f.Fill_pattern.row_ptr + Array.length f.Fill_pattern.row_ind)
  in
  (* Drop the timed analysis before compiling, so peak RSS at 10^6 rows
     never holds two: the compile runs its own analysis, and
     compile_seconds includes it. *)
  fill := None;
  settle ();
  let t0 = Prof.now_seconds () in
  let h = Sympiler.Cholesky.compile al in
  let compile_s = Prof.now_seconds () -. t0 in
  let plan = Sympiler.Cholesky.plan h in
  let factor_s =
    time_min reps (fun () -> ignore (Sympiler.Cholesky.execute_ip plan al))
  in
  let l = Sympiler.Cholesky.plan_factor plan in
  let x_true = Array.make n 1.0 in
  let b = Csc.spmv a x_true in
  let x = ref [||] in
  let solve_s = time_min reps (fun () -> x := Cholesky_ref.solve_with_factor l b) in
  (* Relative infinity-norm residual ||Ax - b|| / ||b||. *)
  let ax = Csc.spmv a !x in
  let rnum = ref 0.0 and rden = ref 1e-300 in
  for i = 0 to n - 1 do
    rnum := Float.max !rnum (Float.abs (ax.(i) -. b.(i)));
    rden := Float.max !rden (Float.abs b.(i))
  done;
  let residual = !rnum /. !rden in
  let rss = max_rss_kb () in
  Printf.printf "%-12s %9d | %8.3fs %8.3fs %8.3fs %8.3fs %8.3fs | %10d %8dk\n"
    name n assemble_s symbolic_s compile_s factor_s solve_s
    h.Sympiler.Cholesky.nnz_l rss;
  Prof.Json.Obj
    [
      ("id", Prof.Json.Int g.Generators.id);
      ("name", Prof.Json.Str name);
      ("n", Prof.Json.Int n);
      ("nnz_a", Prof.Json.Int (Csc.nnz a));
      ("nnz_l", Prof.Json.Int h.Sympiler.Cholesky.nnz_l);
      ("assemble_seconds", Prof.Json.Float assemble_s);
      ("symbolic_seconds", Prof.Json.Float symbolic_s);
      ("compile_seconds", Prof.Json.Float compile_s);
      ("factor_seconds", Prof.Json.Float factor_s);
      ("solve_seconds", Prof.Json.Float solve_s);
      ("residual", Prof.Json.Float residual);
      ("row_store_bytes", Prof.Json.Int store_bytes);
      ("max_rss_kb", Prof.Json.Int rss);
      ("residual_ok", Prof.Json.Bool (residual < 1e-8));
    ]

(* `--large-instance ID`: run the one large-tier instance [large] asked
   this process for, print its row, then its JSON row as the last line. *)
let large_instance =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--large-instance" then int_of_string_opt Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

(* Run this executable again, with [args], in a fresh process: every line
   it prints but the last is echoed, and the last is parsed as JSON. *)
let in_child ~what (args : string list) : Prof.Json.t =
  let out = Filename.temp_file "sympiler-bench" ".out" in
  let code =
    Sys.command (Filename.quote_command Sys.executable_name ~stdout:out args)
  in
  let lines = In_channel.with_open_text out In_channel.input_lines in
  Sys.remove out;
  match List.rev lines with
  | last :: rest when code = 0 -> (
      List.iter print_endline (List.rev rest);
      match Prof.Json.of_string last with
      | Ok doc -> doc
      | Error e -> failwith (Printf.sprintf "bench: %s: %s" what e))
  | _ -> failwith (Printf.sprintf "bench: %s exited with %d" what code)

(* The instance's row from a fresh process running this executable with
   `--large-instance`. *)
let large_row_in_process (g : Generators.problem) : Prof.Json.t =
  in_child ~what:g.Generators.name
    [ "--large-instance"; string_of_int g.Generators.id ]

let large () =
  header "Large tier: 10^4..10^6-row end-to-end (writes _build/bench/large.json)";
  Printf.printf "%-12s %9s | %9s %9s %9s %9s %9s | %10s %9s\n%!" "name" "n"
    "assemble" "symbolic" "compile" "factor" "solve" "nnz(L)" "rss";
  let rows = List.map large_row_in_process Generators.large_suite in
  let field k = function
    | Prof.Json.Obj fs -> (
        match List.assoc k fs with
        | Prof.Json.Int i -> float_of_int i
        | Prof.Json.Float f -> f
        | _ -> nan)
    | _ -> nan
  in
  let is_grid = function
    | Prof.Json.Obj fs -> (
        match List.assoc "name" fs with
        | Prof.Json.Str name -> String.starts_with ~prefix:"grid3d" name
        | _ -> false)
    | _ -> false
  in
  let ladder k =
    List.filter_map
      (fun r ->
        if is_grid r then Some (int_of_float (field "n" r), field k r) else None)
      rows
  in
  let sym_exp = fit_exponent (ladder "symbolic_seconds") in
  let num_exp = fit_exponent (ladder "factor_seconds") in
  let asm_exp = fit_exponent (ladder "assemble_seconds") in
  let near_linear e = (not (Float.is_nan e)) && e <= 1.3 in
  Printf.printf
    "scaling exponents over grid3d ladder: assembly %.2f, symbolic %.2f, \
     numeric %.2f\n\
     symbolic_near_linear=%b numeric_near_linear=%b\n"
    asm_exp sym_exp num_exp (near_linear sym_exp) (near_linear num_exp);
  let doc =
    Prof.Json.Obj
      [
        ("bench", Prof.Json.Str "large");
        ("quick", Prof.Json.Bool quick);
        ("assembly_exponent", Prof.Json.Float asm_exp);
        ("symbolic_exponent", Prof.Json.Float sym_exp);
        ("numeric_exponent", Prof.Json.Float num_exp);
        ("symbolic_near_linear", Prof.Json.Bool (near_linear sym_exp));
        ("numeric_near_linear", Prof.Json.Bool (near_linear num_exp));
        ("problems", Prof.Json.List rows);
      ]
  in
  write_json "large.json" doc;
  section_note
    "(each instance runs in a process of its own, so its rss is its own\n\
    \ peak; each timing = min over 2-3 one-shot runs, sized to the\n\
    \ instance, with a full major GC and a compaction outside each timed\n\
    \ window so repetitions never pay the previous run's collection debt;\n\
    \ exponents = log-log least-squares slope over the 10^4/10^5/10^6\n\
    \ grid3d ladder, whose constant 5x5 cross-section makes work per row\n\
    \ constant — a linear stack measures ~1.0)\n"


(* ---------------------------------------------------------------- *)
(* Gates (`--only gates`, writes _build/bench/gates.json): the timing
   verdicts scripts/ci.sh fails on. The deterministic laws behind them
   (zero allocation, bitwise identity, .so reuse, rollback, drift, fill
   quality, exporters) are tests; what stays here needs a clock. Every
   two-arm verdict is timed as interleaved pairs that alternate which arm
   runs first, so a slow spell of a shared host lands on both arms, and is
   judged on the median of the per-pair ratios. The sizes below keep the
   section under a minute; run it from a release build. *)

module Json = Prof.Json
module Met = Sympiler_metrics.Metrics

type pair_read = { a_s : float; b_s : float; ratio : float }

(* [pairs] interleaved pairs of arms of about [seconds] each, [a] first in
   even pairs and [b] first in odd ones: each arm's median per-call time
   and the median of the per-pair ratios a/b. *)
let interleaved ~pairs ~seconds a b =
  let na = calls_for ~seconds a and nb = calls_for ~seconds b in
  let ta = Array.make pairs 0.0 and tb = Array.make pairs 0.0 in
  for i = 0 to pairs - 1 do
    if i land 1 = 0 then begin
      ta.(i) <- time a na;
      tb.(i) <- time b nb
    end
    else begin
      tb.(i) <- time b nb;
      ta.(i) <- time a na
    end
  done;
  let ratio = median (Array.init pairs (fun i -> ta.(i) /. tb.(i))) in
  { a_s = median ta; b_s = median tb; ratio }

(* [pairs] counterbalanced pairs of two arms that each run on any of
   [setups] interchangeable set-ups (separately built plans, with their
   own buffers): pair i takes the set-ups s = 2i and t = 2i + 1 (mod
   [setups]) and times a on s, b on t, a on t and b on s, in the reverse
   order in odd pairs. Each arm's time in a pair is the geometric mean
   over its two set-ups, so a set-up that runs faster than its twin (say,
   by where its buffers landed) speeds both arms alike and drops out of
   the ratio, and the pairs rotate through every set-up. Medians as in
   [interleaved]. *)
let counterbalanced ~pairs ~seconds ~setups (a : int -> int -> unit)
    (b : int -> int -> unit) =
  let na = calls_for ~seconds (a 0) and nb = calls_for ~seconds (b 0) in
  let ta = Array.make pairs 0.0 and tb = Array.make pairs 0.0 in
  for i = 0 to pairs - 1 do
    let s = 2 * i mod setups and t = ((2 * i) + 1) mod setups in
    let a0, a1, b0, b1 =
      if i land 1 = 0 then begin
        let a0 = time (a s) na in
        let b1 = time (b t) nb in
        let a1 = time (a t) na in
        let b0 = time (b s) nb in
        (a0, a1, b0, b1)
      end
      else begin
        let b0 = time (b s) nb in
        let a1 = time (a t) na in
        let b1 = time (b t) nb in
        let a0 = time (a s) na in
        (a0, a1, b0, b1)
      end
    in
    ta.(i) <- sqrt (a0 *. a1);
    tb.(i) <- sqrt (b0 *. b1)
  done;
  let ratio = median (Array.init pairs (fun i -> ta.(i) /. tb.(i))) in
  { a_s = median ta; b_s = median tb; ratio }

(* One row of a gate: its input, what was compared, and the read. *)
let row ~name ~kernel ~a ~b (r : pair_read) =
  Printf.printf "  %-15s %-9s %s %10.2fus  %s %10.2fus  ratio %.3f\n" name
    kernel a (r.a_s *. 1e6) b (r.b_s *. 1e6) r.ratio;
  Json.Obj
    [
      ("name", Json.Str name);
      ("kernel", Json.Str kernel);
      (a ^ "_seconds", Json.Float r.a_s);
      (b ^ "_seconds", Json.Float r.b_s);
      ("ratio", Json.Float r.ratio);
    ]

type gate = { verdicts : (string * bool) list; rows : Json.t list }

let suite_lower id = (Sympiler.Suite.problem id).Sympiler.Suite.a_lower
let suite_name id = (Sympiler.Suite.problem id).Sympiler.Suite.name

(* steady_not_slower: on every suite problem a steady execute_ip, for
   Cholesky and for Trisolve, is not slower than the first call (compile
   + plan + first execute_ip). The first call is one-off, so this is a
   single comparison, not a pair. [first ()] makes the first call and
   returns the steady one. *)
let gate_steady () =
  let ok = ref true in
  let read name kernel first =
    let t0 = Prof.now_seconds () in
    let call = first () in
    let first_s = Prof.now_seconds () -. t0 in
    let steady_s = per_call ~seconds:0.01 (repeat call) in
    ok := !ok && steady_s <= first_s;
    Printf.printf "  %-15s %-9s first %10.2fus  steady %10.2fus\n" name kernel
      (first_s *. 1e6) (steady_s *. 1e6);
    Json.Obj
      [
        ("name", Json.Str name);
        ("kernel", Json.Str kernel);
        ("first_call_seconds", Json.Float first_s);
        ("steady_seconds", Json.Float steady_s);
      ]
  in
  let rows =
    List.concat_map
      (fun (sp : Sympiler.Suite.prepared) ->
        let name = sp.Sympiler.Suite.name and al = sp.Sympiler.Suite.a_lower in
        let l = ref al in
        let chol =
          read name "cholesky" (fun () ->
              let p = Sympiler.Cholesky.plan (Sympiler.Cholesky.compile al) in
              l := Sympiler.Cholesky.execute_ip p al;
              fun () -> ignore (Sympiler.Cholesky.execute_ip p al))
        in
        let b = Sympiler.Suite.rhs_for sp in
        let tri =
          read name "trisolve" (fun () ->
              let p = Sympiler.Trisolve.plan (Sympiler.Trisolve.compile (!l, b)) in
              ignore (Sympiler.Trisolve.execute_ip p b : float array);
              fun () -> ignore (Sympiler.Trisolve.execute_ip p b : float array))
        in
        [ chol; tri ])
      (Sympiler.Suite.all ())
  in
  { verdicts = [ ("steady_not_slower", !ok) ]; rows }

(* native_not_slower_{trisolve,cholesky}: a native plan's steady call
   takes at most 1.10x the OCaml plan's, for the triangular solve on suite
   problems 1 and 5 and for Cholesky on every suite problem whose native
   plan runs the supernodal C (VS-Block's one Cholesky decision; the OCaml
   side is the simplicial plan). This is not a speed-up claim: the
   compiled C must only not lose. *)
let gate_native () =
  let tri_ok = ref true and chol_ok = ref true in
  let loaded family = function
    | Some _ -> ()
    | None -> failwith (family ^ ": native load failed although cc exists")
  in
  let race ok ~name ~kernel arm =
    let r = interleaved ~pairs:31 ~seconds:0.02 (arm `Native) (arm `Ocaml) in
    ok := !ok && r.ratio <= 1.10;
    row ~name ~kernel ~a:"native" ~b:"ocaml" r
  in
  let rows =
    List.concat_map
      (fun id ->
        let name = suite_name id and al = suite_lower id in
        let h = Sympiler.Cholesky.compile al in
        let tri =
          if not (List.mem id [ 1; 5 ]) then []
          else
            let b = Sympiler.Suite.rhs_for (Sympiler.Suite.problem id) in
            let th =
              Sympiler.Trisolve.compile (Sympiler.Cholesky.factor h al, b)
            in
            [
              race tri_ok ~name ~kernel:"trisolve" (fun engine ->
                  let p = Sympiler.Trisolve.plan ~engine th in
                  if engine = `Native then
                    loaded "trisolve" p.Sympiler.Trisolve.native;
                  repeat (fun () ->
                      ignore (Sympiler.Trisolve.execute_ip p b : float array)));
            ]
        in
        let chol =
          if Sympiler.Cholesky.variant h <> Sympiler.Cholesky.Supernodal then []
          else
            [
              race chol_ok ~name ~kernel:"cholesky" (fun engine ->
                  let p = Sympiler.Cholesky.plan ~engine h in
                  if engine = `Native then
                    loaded "cholesky" p.Sympiler.Cholesky.native;
                  repeat (fun () -> ignore (Sympiler.Cholesky.execute_ip p al)));
            ]
        in
        tri @ chol)
      ids
  in
  {
    verdicts =
      [
        ("native_not_slower_trisolve", !tri_ok);
        ("native_not_slower_cholesky", !chol_ok);
      ];
    rows;
  }

(* disabled_overhead_ok: with tracing off, the span pairs one steady
   Cholesky call passes through cost at most 2% of that call, on suite
   problems 2 and 6. *)
let gate_trace () =
  let module Trace = Sympiler_trace.Trace in
  Trace.disable ();
  let pair_s =
    per_call ~seconds:0.02 (fun n ->
        for _ = 1 to n do
          Trace.begin_span "bench.noop";
          Trace.end_span ()
        done)
  in
  Printf.printf "  disabled begin/end pair %.2f ns\n" (pair_s *. 1e9);
  let ok = ref true in
  let rows =
    List.map
      (fun id ->
        let name = suite_name id and al = suite_lower id in
        let p = Sympiler.Cholesky.plan (Sympiler.Cholesky.compile al) in
        let call () = ignore (Sympiler.Cholesky.execute_ip p al) in
        let steady_s = per_call ~seconds:0.02 (repeat call) in
        Trace.enable ();
        Trace.reset ();
        call ();
        let spans = Trace.span_count () in
        Trace.disable ();
        let overhead = float_of_int spans *. pair_s /. steady_s in
        ok := !ok && overhead <= 0.02;
        Printf.printf "  %-15s %d spans/call  steady %10.2fus  overhead %.4f%%\n"
          name spans (steady_s *. 1e6) (overhead *. 1e2);
        Json.Obj
          [
            ("name", Json.Str name);
            ("spans_per_call", Json.Int spans);
            ("steady_seconds", Json.Float steady_s);
            ("disabled_pair_seconds", Json.Float pair_s);
            ("overhead_fraction", Json.Float overhead);
          ])
      [ 2; 6 ]
  in
  { verdicts = [ ("disabled_overhead_ok", !ok) ]; rows }

module CP = Cholesky_parallel
module TP = Trisolve_parallel

let spawn_run ~nworkers task =
  let doms =
    Array.init (nworkers - 1) (fun i -> Domain.spawn (fun () -> task (i + 1)))
  in
  task 0;
  Array.iter Domain.join doms

(* CP.factor_ip with the pool barrier replaced by spawn/join; narrow
   levels (< 8 supernodes) stay inline exactly like the real path. *)
let spawn_factor_ip (p : CP.plan) al =
  let c = p.CP.c in
  p.CP.a_lower <- al;
  for lv = 0 to c.CP.nlevels - 1 do
    let lo = c.CP.level_ptr.(lv) and hi = c.CP.level_ptr.(lv + 1) in
    if p.CP.ndomains <= 1 || hi - lo < 8 then
      for t = lo to hi - 1 do
        CP.process_target c al p.CP.lx p.CP.relpos.(0) p.CP.wbuf.(0)
          c.CP.level_sn.(t)
      done
    else begin
      p.CP.lv <- lv;
      spawn_run ~nworkers:p.CP.ndomains p.CP.task
    end
  done;
  p.CP.a_lower <- p.CP.l

(* TP.solve_ip with the pool barrier replaced by spawn/join; narrow levels
   (< 64 columns) run inline exactly like the real path. *)
let spawn_solve_ip (p : TP.plan) (b : float array) =
  let c = p.TP.c in
  Array.blit b 0 p.TP.x 0 (Array.length p.TP.x);
  for lv = 0 to c.TP.nlevels - 1 do
    let lo = c.TP.level_ptr.(lv) and hi = c.TP.level_ptr.(lv + 1) in
    if hi - lo < 64 then Stages.lower_range_ip c.TP.l c.TP.sched ~lo ~hi p.TP.x
    else begin
      p.TP.lv <- lv;
      spawn_run ~nworkers:p.TP.ndomains p.TP.task
    end
  done

let wide_dispatches ptr nlevels min_w =
  let k = ref 0 in
  for lv = 0 to nlevels - 1 do
    if ptr.(lv + 1) - ptr.(lv) >= min_w then incr k
  done;
  !k

(* pool_beats_spawn_on_largest: on the largest of suite problems 2, 6 and
   9, a 4-domain plan dispatching through the persistent pool is not
   slower than the same plan spawning domains at every wide level. Only
   kernels that dispatch are compared: elsewhere both run the same inline
   code. *)
let gate_parallel () =
  let ids = [ 2; 6; 9 ] and n id = (suite_lower id).Csc.ncols in
  let largest = List.fold_left (fun a b -> if n b > n a then b else a) 2 ids in
  let ok = ref true in
  let race id ~kernel ~dispatches pool spawn =
    if dispatches = 0 then []
    else begin
      let r = interleaved ~pairs:11 ~seconds:0.02 pool spawn in
      if id = largest then ok := !ok && r.ratio <= 1.0;
      [ row ~name:(suite_name id) ~kernel ~a:"pool" ~b:"spawn" r ]
    end
  in
  let rows =
    List.concat_map
      (fun id ->
        let al = suite_lower id in
        let cc = CP.compile al in
        let cp = CP.make_plan ~ndomains:4 cc in
        let chol =
          race id ~kernel:"cholesky"
            ~dispatches:(wide_dispatches cc.CP.level_ptr cc.CP.nlevels 8)
            (repeat (fun () -> CP.factor_ip cp al))
            (repeat (fun () -> spawn_factor_ip cp al))
        in
        let l = Sympiler.Cholesky.factor (Sympiler.Cholesky.compile al) al in
        let tc = TP.compile l in
        let tp = TP.make_plan ~ndomains:4 tc in
        let b =
          Vector.sparse_to_dense (Sympiler.Suite.rhs_for (Sympiler.Suite.problem id))
        in
        let tri =
          race id ~kernel:"trisolve"
            ~dispatches:(wide_dispatches tc.TP.level_ptr tc.TP.nlevels 64)
            (repeat (fun () -> ignore (TP.solve_ip tp b : float array)))
            (repeat (fun () -> spawn_solve_ip tp b))
        in
        chol @ tri)
      ids
  in
  Printf.printf "  largest: %s\n" (suite_name largest);
  { verdicts = [ ("pool_beats_spawn_on_largest", !ok) ]; rows }

(* amd_not_slower_than_greedy_on_largest: AMD's quotient graph orders the
   48x48 5-point grid no slower than the exact-degree greedy oracle (the
   12 and 24 grids show the trend). *)
let gate_ordering () =
  let reads =
    List.map
      (fun k ->
        let a = Generators.grid2d ~stencil:`Five k k in
        let r =
          interleaved ~pairs:3 ~seconds:0.02
            (repeat (fun () -> ignore (Ordering.amd a)))
            (repeat (fun () -> ignore (Ordering.min_degree a)))
        in
        (r, row ~name:(Printf.sprintf "grid %dx%d" k k) ~kernel:"ordering"
              ~a:"amd" ~b:"greedy" r))
      [ 12; 24; 48 ]
  in
  let largest, _ = List.nth reads (List.length reads - 1) in
  {
    verdicts = [ ("amd_not_slower_than_greedy_on_largest", largest.ratio <= 1.0) ];
    rows = List.map snd reads;
  }

(* overhead_ok: the metrics switch on costs at most 2% on the steady
   Cholesky refactor of suite problem 2. With one plan for both arms, the
   ratio moved with the process's memory layout, 0.992 to 1.027 across
   runs of code the verdict does not depend on; swapping two plans still
   let a 5% slowdown of the on arm read 1.017. So the counterbalanced
   pairs rotate through eight separately compiled handles and plans. *)
let gate_metrics () =
  let was_on = Met.enabled () in
  let al = suite_lower 2 in
  let plans =
    Array.init 8 (fun _ -> Sympiler.Cholesky.plan (Sympiler.Cholesky.compile al))
  in
  let arm on s n =
    if on then Met.enable () else Met.disable ();
    let p = plans.(s) in
    repeat (fun () -> ignore (Sympiler.Cholesky.execute_ip p al)) n
  in
  let r =
    counterbalanced ~pairs:81 ~seconds:0.05 ~setups:8 (arm true) (arm false)
  in
  if was_on then Met.enable () else Met.disable ();
  {
    verdicts = [ ("overhead_ok", r.ratio -. 1.0 <= 0.02) ];
    rows = [ row ~name:(suite_name 2) ~kernel:"cholesky" ~a:"on" ~b:"off" r ];
  }

(* fused_not_slower: a fused factor+solve apply takes at most 1.05x the
   staged one (same stage bodies, per-stage copies): Cholesky on suite
   problems 1, 2 and 5 (column sweeps), IC(0) on natural 5-point grids of
   side 40 and 100 (level-ordered sweeps). On the Cholesky rows the two
   differ only by the copies, and their ratio moved with the process's
   memory layout: within one process the per-pair ratios sat within a
   few percent, but their median read 0.97 to 1.09 across processes on a
   shared 2-vCPU host, and swapping two plans of one handle between the
   arms left it at 0.98 to 1.07. So each case compiles eight handles
   (separate patterns' arrays and plans, so separate placements), and the
   counterbalanced pairs rotate through them. *)
let gate_pipeline () =
  let module Pl = Sympiler.Pipeline in
  let cases =
    List.map (fun id -> (suite_name id, "cholesky", `Cholesky, suite_lower id))
      [ 1; 2; 5 ]
    @ List.map
        (fun side ->
          ( Printf.sprintf "grid5_%dx%d" side side,
            "ic0",
            `Ic0,
            Csc.lower (Generators.grid2d ~stencil:`Five side side) ))
        [ 40; 100 ]
  in
  let ok = ref true in
  let rows =
    List.map
      (fun (name, kernel, family, al) ->
        let plans =
          Array.init 8 (fun _ -> Pl.plan (Pl.compile (Pl.factor_solve family) al))
        in
        Array.iter (fun p -> Pl.factor_ip p al) plans;
        let b = Array.init al.Csc.ncols (fun i -> sin (0.01 *. float_of_int i)) in
        let r =
          counterbalanced ~pairs:121 ~seconds:0.01 ~setups:8
            (fun s -> repeat (fun () -> ignore (Pl.execute_ip plans.(s) b)))
            (fun s -> repeat (fun () -> ignore (Pl.staged_execute_ip plans.(s) b)))
        in
        ok := !ok && r.ratio <= 1.05;
        row ~name ~kernel ~a:"fused" ~b:"staged" r)
      cases
  in
  { verdicts = [ ("fused_not_slower", !ok) ]; rows }

(* update_faster_than_refactor_below_crossover: an in-pattern rank-1
   update_ip beats a full refactorization on suite problems 1, 2 and 5.
   Pure updates only add definiteness, so the update arm never fails. *)
let gate_updown () =
  let module C = Sympiler.Cholesky in
  let ok = ref true in
  let rows =
    List.map
      (fun id ->
        let al = suite_lower id in
        let p = C.plan (C.compile al) in
        ignore (C.execute_ip p al : Csc.t);
        let w =
          Rank_update.vector_like (C.plan_factor p) ~j:(al.Csc.ncols / 3)
            ~scale:0.2
        in
        let r =
          interleaved ~pairs:11 ~seconds:0.02
            (repeat (fun () -> C.update_ip p ~sigma:0.5 w))
            (repeat (fun () -> ignore (C.execute_ip p al : Csc.t)))
        in
        ok := !ok && r.ratio < 1.0;
        row ~name:(suite_name id) ~kernel:"cholesky" ~a:"update" ~b:"refactor" r)
      [ 1; 2; 5 ]
  in
  { verdicts = [ ("update_faster_than_refactor_below_crossover", !ok) ]; rows }

let gates () =
  header "Gates: CI timing verdicts (writes _build/bench/gates.json)";
  let native = Sympiler.Native.available () in
  let parts =
    [
      ("steady", gate_steady);
      ( "native",
        if native then gate_native
        else fun () ->
          print_string "  skipped: no C compiler (cc/gcc/clang, or $SYMPILER_CC)\n";
          { verdicts = []; rows = [] } );
      ("trace", gate_trace);
      ("parallel", gate_parallel);
      ("ordering", gate_ordering);
      ("metrics", gate_metrics);
      ("pipeline", gate_pipeline);
      ("updown", gate_updown);
    ]
  in
  let t_all = Prof.now_seconds () in
  let results =
    List.map
      (fun (name, gate) ->
        Printf.printf "%s\n" name;
        let t0 = Prof.now_seconds () in
        let g = gate () in
        Printf.printf "  (%.1f s)\n%!" (Prof.now_seconds () -. t0);
        (name, g))
      parts
  in
  let verdicts = List.concat_map (fun (_, g) -> g.verdicts) results in
  List.iter (fun (v, ok) -> Printf.printf "%s=%b\n" v ok) verdicts;
  Printf.printf "gates: %.1f s\n" (Prof.now_seconds () -. t_all);
  let skipped = if native then [] else [ ("native_skipped", Json.Str "no cc") ] in
  let verdicts = List.map (fun (v, ok) -> (v, Json.Bool ok)) verdicts in
  write_json "gates.json"
    (Json.Obj
       ((("verdicts", Json.Obj verdicts) :: skipped)
       @ List.map (fun (name, g) -> (name, Json.List g.rows)) results))

(* ---------------------------------------------------------------- *)

let paper_sections =
  [
    ("table2", table2);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("intro", intro);
    ("ablation-threshold", ablation_threshold);
    ("ablation-lowlevel", ablation_lowlevel);
    ("extensions", extensions);
  ]

(* Run only when named (`large` also with `--large`). *)
let named_sections = [ ("gates", gates); ("large", large) ]

let run_sections () =
  let sections = paper_sections @ named_sections in
  (match only with
  | Some s when not (List.mem_assoc s sections) ->
      Printf.eprintf "bench: unknown section %S; sections: %s\n" s
        (String.concat ", " (List.map fst sections));
      exit 2
  | _ -> ());
  Printf.printf "Sympiler reproduction benchmarks (median of %d, window %.2fs%s)\n"
    reps_outer min_window
    (if quick then ", --quick" else "");
  match only with
  | Some s -> (List.assoc s sections) ()
  | None ->
      List.iter (fun (_, section) -> section ()) paper_sections;
      if large_requested then large ()

let () =
  match large_instance with
  | Some id ->
      let g = List.find (fun g -> g.Generators.id = id) Generators.large_suite in
      print_endline (Prof.Json.to_string (large_row g))
  | None -> run_sections ()
