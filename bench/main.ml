open Sympiler_sparse
open Sympiler_symbolic
open Sympiler_kernels
open Sympiler_prof

(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (§4), plus the §1.1 motivating numbers and two ablations.

   Default mode follows the paper's methodology: each timing is the median
   of 5 measurements (each measurement averages enough repetitions to fill
   a minimum wall-clock window). `--bechamel` instead runs one
   Bechamel.Test.make per experiment. `--quick` shrinks the measurement
   window, `--only SECTION` runs one section (phases, steady, native,
   trace, parallel, ordering, metrics, pipeline, table2, fig6, fig7,
   fig8, fig9, intro, ablation-threshold, ablation-lowlevel, extensions,
   large). The `pipeline` section writes BENCH_pipeline.json: fused vs
   staged whole-DAG apply latency, allocation, bitwise identity, and the
   shared-analysis ledger. The `updown` section writes BENCH_updown.json:
   rank-1 update_ip latency against a full refactorization (and the
   crossover rank), per-pair allocation, rollback and drift gates, the
   incremental column refactorization, and the escalation path.
   The `metrics` section gates the labeled-registry layer (enabled
   overhead <= 2%, percentile fidelity, cross-domain exactness,
   allocation-freedom, OpenMetrics conformance) and writes
   BENCH_metrics.json. Every BENCH_*.json is stamped with
   schema_version, git_commit, and generated_utc. The
   `native` section writes BENCH_native.json: OCaml vs compiled-C vs
   compiled-C-without-vectorize-annotations steady times for
   trisolve/Cholesky/LDLT, compile+dlopen latency, the .so-cache reload
   experiment, and native-call allocation — or a "skipped: no cc"
   marker when no C compiler exists. The opt-in
   `large` section (`--only large`, or `--large` alongside the default
   sweep) runs the 10^4..10^6-row instances end to end and writes
   BENCH_large.json with wall-clock, max-RSS, and the measured scaling
   exponents over the grid3d ladder. The `trace` section
   gates the
   tracing-disabled overhead of the steady path at 2% and writes
   BENCH_trace.json. The `phases` section additionally writes BENCH_phases.json:
   per-problem symbolic/numeric phase timings, kernel counters (read from
   the metrics registry), and the amortization ratio. The
   `steady` section writes BENCH_steady.json: first-call vs steady-state
   plan execution time, GC minor words per steady call, and the
   compilation-cache hit rate. The `parallel` section writes
   BENCH_parallel.json: persistent-pool steady times across domain counts
   against a spawn-per-call baseline driving the same partitioned work.
   The `ordering` section writes BENCH_ordering.json: predicted fill/flops
   under natural/RCM/AMD/greedy-minimum-degree across the raw suite
   matrices, the AMD-vs-greedy tolerance and mesh-improvement verdicts,
   AMD's asymptotic cost against the greedy oracle on growing grids, and
   the ordered facade path's zero-allocation + bitwise-identity gates. *)

module Met = Sympiler_metrics.Metrics

let quick = Array.exists (( = ) "--quick") Sys.argv
let use_bechamel = Array.exists (( = ) "--bechamel") Sys.argv

let only =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then None
    else if Sys.argv.(i) = "--only" then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let run_section name = match only with None -> true | Some s -> s = name

let min_window = if quick then 0.05 else 0.2
let reps_outer = if quick then 3 else 5

(* Median-of-[reps_outer]; each measurement averages enough inner
   repetitions to occupy [min_window] seconds. Timed on the monotonic
   clock (immune to NTP slews). *)
let measure (f : unit -> unit) : float =
  let t0 = Prof.now_seconds () in
  f ();
  let once = Prof.now_seconds () -. t0 in
  let inner = max 1 (int_of_float (min_window /. Float.max once 1e-7)) in
  let one () =
    let t0 = Prof.now_seconds () in
    for _ = 1 to inner do
      f ()
    done;
    (Prof.now_seconds () -. t0) /. float_of_int inner
  in
  let ts = Array.init reps_outer (fun _ -> one ()) in
  Array.sort compare ts;
  ts.(reps_outer / 2)

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let section_note s = print_string s

(* ---------------------------------------------------------------- *)
(* Every BENCH_*.json carries provenance: a schema version, the commit
   the numbers came from, and the generation time (UTC). scripts/perf_gate
   keys on these to refuse comparisons across schema versions. *)

let bench_schema_version = 1

(* HEAD commit read straight from .git (no subprocess): either a detached
   hash or a ref indirection, "unknown" outside a work tree. *)
let git_commit () =
  let read f =
    try Some (String.trim (In_channel.with_open_text f In_channel.input_all))
    with _ -> None
  in
  match read ".git/HEAD" with
  | Some s when String.starts_with ~prefix:"ref: " s -> (
      let r = String.sub s 5 (String.length s - 5) in
      match read (".git/" ^ r) with Some c -> c | None -> "unknown")
  | Some c -> c
  | None -> "unknown"

let iso8601_utc () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

let write_bench file doc =
  let doc =
    match doc with
    | Prof.Json.Obj fields ->
        Prof.Json.Obj
          (("schema_version", Prof.Json.Int bench_schema_version)
          :: ("git_commit", Prof.Json.Str (git_commit ()))
          :: ("generated_utc", Prof.Json.Str (iso8601_utc ()))
          :: fields)
    | other -> other
  in
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc (Prof.Json.to_string doc);
      Out_channel.output_char oc '\n')

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
      let c = d.tri_compiled in
      let t_vs = bench (fun () -> Trisolve_sympiler.solve_vs_block_ip c x) in
      let t_vsvi = bench (fun () -> Trisolve_sympiler.solve_vs_vi_ip c x) in
      let t_full = bench (fun () -> Trisolve_sympiler.solve_full_ip c x) in
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
      (* Sympiler: the facade decides supernodal vs simplicial by the
         VS-Block threshold, as the paper's Sympiler skips VS-Block for
         matrices with small supernodes (3,4,5,7 there). *)
      let t_sym = Sympiler.Cholesky.compile al in
      let variant =
        match Sympiler.Cholesky.variant t_sym with
        | Sympiler.Cholesky.Supernodal -> "supernodal"
        | Sympiler.Cholesky.Simplicial -> "simplicial"
      in
      let t_vsblk, t_full =
        match Sympiler.Cholesky.variant t_sym with
        | Sympiler.Cholesky.Supernodal ->
            let cg =
              Cholesky_supernodal.Sympiler.compile ~specialized:false al
            in
            ( measure (fun () ->
                  ignore (Cholesky_supernodal.Sympiler.factor cg al)),
              measure (fun () -> ignore (Sympiler.Cholesky.factor t_sym al)) )
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
      let t_numeric =
        measure (fun () ->
            load ();
            Trisolve_sympiler.solve_full_ip c x)
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
      let c = d.tri_compiled in
      let t_full =
        measure (fun () ->
            load ();
            Trisolve_sympiler.solve_full_ip c x)
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
    "(motivates the facade's vs_block_threshold: VS-Block pays off only\n\
    \ above a minimum average supernode width, mirroring the paper's\n\
    \ hand-tuned threshold of 160)\n"

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
      let c = d.tri_compiled in
      let t_gen =
        measure (fun () ->
            load ();
            Trisolve_sympiler.solve_vs_vi_ip c x)
      in
      let t_spec =
        measure (fun () ->
            load ();
            Trisolve_sympiler.solve_full_ip c x)
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
(* Phase observability: per-problem symbolic vs numeric breakdown with
   kernel counters, written to BENCH_phases.json. This is the measurement
   substrate for the paper's central claim — symbolic analysis is paid once
   and amortized over numeric executions — so the file records, for
   triangular solve and Cholesky, both phase timings and the amortization
   ratio (symbolic time / one numeric execution). *)

let phase_ids = [ 2; 6; 9 ]

(* The work counters of one measured window, read from the metrics
   registry under BENCH_phases.json's counter keys. *)
let phase_counters () =
  let open Prof.Json in
  let v m = Int (Met.counter_value m) in
  let named ?labels name = Met.counter_value (Met.counter ?labels name) in
  let gauge name = Int (int_of_float (Met.gauge_value (Met.gauge name))) in
  let loads source =
    named ~labels:[ ("source", source) ] "sympiler_native_loads"
  in
  let sn = Met.counter_value Met.supernodes in
  let sn_cols = Met.counter_value Met.supernode_cols in
  Obj
    [
      ("flops", v Met.flops);
      ("nnz_touched", v Met.nnz_touched);
      ("iters_pruned", v Met.iters_pruned);
      ("supernodes", Int sn);
      ("supernode_cols", Int sn_cols);
      ( "avg_supernode_width",
        Float
          (if sn = 0 then 0.0 else float_of_int sn_cols /. float_of_int sn) );
      ("levels", v Met.levels);
      ( "max_level_width",
        Int (int_of_float (Met.gauge_value Met.max_level_width)) );
      ("cache_hits", Int (named "sympiler_plan_cache_hits"));
      ("cache_misses", Int (named "sympiler_plan_cache_misses"));
      ("orderings", v Met.orderings);
      ("pool_runs", Int (named "sympiler_pool_runs"));
      ("pool_tasks", Int (named "sympiler_pool_tasks"));
      ("pool_max_workers", gauge "sympiler_pool_max_workers");
      ("pool_imbalance_pct", gauge "sympiler_pool_imbalance_pct");
      ("native_compiles", Int (named "sympiler_native_compiles"));
      ("native_so_hits", Int (loads "memory" + loads "disk"));
      ("native_fallbacks", Int (named "sympiler_native_fallbacks"));
      ("updown_path_hits", v Met.updown_path_hits);
      ("updown_path_misses", v Met.updown_path_misses);
      ("updown_escalations", v Met.updown_escalations);
    ]

let phases () =
  header "Phase breakdown: symbolic vs numeric (writes BENCH_phases.json)";
  Printf.printf "%-3s %-15s %-9s | %10s %10s %9s | %s\n" "ID" "Name" "kernel"
    "symbolic" "numeric" "amortize" "counters";
  let problems =
    List.map
      (fun id ->
        let d = prob id in
        let name = d.p.Sympiler.Suite.name in
        let a = d.p.Sympiler.Suite.a_full in
        let report kernel sym_s num_s counters =
          let amort = sym_s /. num_s in
          Printf.printf "%-3d %-15s %-9s | %9.1fus %9.2fus %8.0fx | %s\n" id
            name kernel (sym_s *. 1e6) (num_s *. 1e6) amort
            (Prof.Json.to_string counters);
          Prof.Json.Obj
            [
              ("symbolic_seconds", Prof.Json.Float sym_s);
              ("numeric_seconds", Prof.Json.Float num_s);
              ("amortization_ratio", Prof.Json.Float amort);
              ("counters", counters);
            ]
        in
        (* Triangular solve: fresh compile with metrics on, one counted
           numeric solve, then an uncounted median for the timing. *)
        let l = d.l_factor and b = d.rhs in
        let x = Vector.sparse_to_dense b in
        let load () =
          Array.iteri (fun i _ -> x.(i) <- 0.0) x;
          Array.iteri (fun k i -> x.(i) <- b.Vector.values.(k)) b.Vector.indices
        in
        Met.reset ();
        Met.enable ();
        let t0 = Prof.now_seconds () in
        let c = Trisolve_sympiler.compile l b in
        let tri_sym = Prof.now_seconds () -. t0 in
        load ();
        Trisolve_sympiler.solve_full_ip c x;
        let tri_counters = phase_counters () in
        Met.disable ();
        let tri_num =
          measure (fun () ->
              load ();
              Trisolve_sympiler.solve_full_ip c x)
        in
        let tri = report "trisolve" tri_sym tri_num tri_counters in
        (* Cholesky: the facade times its own symbolic phase. *)
        let al = d.p.Sympiler.Suite.a_lower in
        Met.reset ();
        Met.enable ();
        let t = Sympiler.Cholesky.compile al in
        let chol_sym = Sympiler.Cholesky.symbolic_seconds t in
        ignore (Sympiler.Cholesky.factor t al);
        let chol_counters = phase_counters () in
        Met.disable ();
        let chol_num =
          measure (fun () -> ignore (Sympiler.Cholesky.factor t al))
        in
        let chol = report "cholesky" chol_sym chol_num chol_counters in
        Prof.Json.Obj
          [
            ("id", Prof.Json.Int id);
            ("name", Prof.Json.Str name);
            ("n", Prof.Json.Int a.Csc.ncols);
            ("nnz", Prof.Json.Int (Csc.nnz a));
            ("trisolve", tri);
            ("cholesky", chol);
          ])
      phase_ids
  in
  let doc =
    Prof.Json.Obj
      [
        ("bench", Prof.Json.Str "phases");
        ("quick", Prof.Json.Bool quick);
        ("problems", Prof.Json.List problems);
      ]
  in
  write_bench "BENCH_phases.json" doc;
  section_note
    "(amortize = symbolic time / one numeric execution: how many numeric\n\
    \ runs repay the inspection; counters are per one counted execution.\n\
    \ Full data written to BENCH_phases.json)\n"

(* ---------------------------------------------------------------- *)
(* Steady state: reusable plans + the compilation cache — the compile-once /
   execute-many regime the paper's amortization argument assumes. For every
   suite problem: first call (cached compile, a miss, + plan creation +
   first in-place execution) vs the steady-state median; GC minor words per
   steady call (must be 0: the plans own every numeric workspace); and the
   pattern-keyed cache's hit rate after recompiling each problem. Writes
   BENCH_steady.json. *)

let steady () =
  header "Steady state: plans + compilation cache (writes BENCH_steady.json)";
  Printf.printf "%-3s %-15s %-9s | %10s %10s %7s | %s\n" "ID" "Name" "kernel"
    "first" "steady" "words" "variant";
  let gc_loops = if quick then 10 else 50 in
  (* Warm twice (fills any lazy state), then measure the per-call minor-heap
     delta over [gc_loops] calls; an allocation-free function yields 0. *)
  let minor_words_per_call f =
    f ();
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to gc_loops do
      f ()
    done;
    let w1 = Gc.minor_words () in
    int_of_float ((w1 -. w0) /. float_of_int gc_loops)
  in
  let chol_cache = Sympiler.Plan_cache.create () in
  let tri_cache = Sympiler.Plan_cache.create () in
  let all_zero = ref true and not_slower = ref true in
  let problems =
    List.map
      (fun id ->
        let d = prob id in
        let name = d.p.Sympiler.Suite.name in
        (* Cholesky: first call = cached compile (a miss: full symbolic
           phase) + plan creation + first in-place factorization. *)
        let al = d.p.Sympiler.Suite.a_lower in
        let t0 = Prof.now_seconds () in
        let h = Sympiler.Cholesky.compile ~cache:chol_cache al in
        let cp = Sympiler.Cholesky.plan h in
        ignore (Sympiler.Cholesky.execute_ip cp al);
        let chol_first = Prof.now_seconds () -. t0 in
        let chol_steady =
          measure (fun () -> ignore (Sympiler.Cholesky.execute_ip cp al))
        in
        let chol_words =
          minor_words_per_call (fun () -> ignore (Sympiler.Cholesky.execute_ip cp al))
        in
        (* Recompiling the same structure must hit and return the same
           handle, with no symbolic work. *)
        let h' = Sympiler.Cholesky.compile ~cache:chol_cache al in
        assert (h' == h);
        let variant =
          match Sympiler.Cholesky.variant h with
          | Sympiler.Cholesky.Supernodal -> "supernodal"
          | Sympiler.Cholesky.Simplicial -> "simplicial"
        in
        (* Trisolve: same protocol against the plan-owned solution buffer. *)
        let l = d.l_factor and b = d.rhs in
        let t0 = Prof.now_seconds () in
        let th = Sympiler.Trisolve.compile ~cache:tri_cache (l, b) in
        let tp = Sympiler.Trisolve.plan th in
        ignore (Sympiler.Trisolve.execute_ip tp b);
        let tri_first = Prof.now_seconds () -. t0 in
        let tri_steady =
          measure (fun () -> ignore (Sympiler.Trisolve.execute_ip tp b))
        in
        let tri_words =
          minor_words_per_call (fun () ->
              ignore (Sympiler.Trisolve.execute_ip tp b))
        in
        let th' = Sympiler.Trisolve.compile ~cache:tri_cache (l, b) in
        assert (th' == th);
        all_zero := !all_zero && chol_words = 0 && tri_words = 0;
        not_slower :=
          !not_slower && chol_steady <= chol_first && tri_steady <= tri_first;
        Printf.printf "%-3d %-15s %-9s | %8.2fms %8.3fms %7d | %s\n" id name
          "cholesky" (chol_first *. 1e3) (chol_steady *. 1e3) chol_words
          variant;
        Printf.printf "%-3d %-15s %-9s | %8.2fus %8.3fus %7d |\n" id name
          "trisolve" (tri_first *. 1e6) (tri_steady *. 1e6) tri_words;
        Prof.Json.Obj
          [
            ("id", Prof.Json.Int id);
            ("name", Prof.Json.Str name);
            ("n", Prof.Json.Int al.Csc.ncols);
            ( "cholesky",
              Prof.Json.Obj
                [
                  ("variant", Prof.Json.Str variant);
                  ("first_call_seconds", Prof.Json.Float chol_first);
                  ("steady_seconds", Prof.Json.Float chol_steady);
                  ("minor_words_per_call", Prof.Json.Int chol_words);
                ] );
            ( "trisolve",
              Prof.Json.Obj
                [
                  ("first_call_seconds", Prof.Json.Float tri_first);
                  ("steady_seconds", Prof.Json.Float tri_steady);
                  ("minor_words_per_call", Prof.Json.Int tri_words);
                ] );
          ])
      ids
  in
  let cs = Sympiler.Plan_cache.stats chol_cache in
  let ts = Sympiler.Plan_cache.stats tri_cache in
  let hits = cs.Sympiler.Plan_cache.hits + ts.Sympiler.Plan_cache.hits in
  let misses = cs.Sympiler.Plan_cache.misses + ts.Sympiler.Plan_cache.misses in
  let hit_rate = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  Printf.printf
    "cache: %d hits / %d misses (hit rate %.2f)  all_zero_alloc=%b \
     steady_not_slower=%b\n"
    hits misses hit_rate !all_zero !not_slower;
  let doc =
    Prof.Json.Obj
      [
        ("bench", Prof.Json.Str "steady");
        ("quick", Prof.Json.Bool quick);
        ("all_zero_alloc", Prof.Json.Bool !all_zero);
        ("steady_not_slower", Prof.Json.Bool !not_slower);
        ( "cache",
          Prof.Json.Obj
            [
              ("hits", Prof.Json.Int hits);
              ("misses", Prof.Json.Int misses);
              ("hit_rate", Prof.Json.Float hit_rate);
            ] );
        ("problems", Prof.Json.List problems);
      ]
  in
  write_bench "BENCH_steady.json" doc;
  section_note
    "(first = cached compile (miss) + plan creation + first execution;\n\
    \ steady = repeated in-place execution into the same plan; words =\n\
    \ GC minor words per steady call, 0 = allocation-free. Full data\n\
    \ written to BENCH_steady.json)\n"

(* ---------------------------------------------------------------- *)
(* Native backend: race the OCaml executors against the same emitted C
   compiled into a shared object (`Native). For trisolve / Cholesky / LDLT
   on a suite subset: per-call steady time under both engines, the native
   plan's compile+dlopen latency and cache origin, GC minor words per
   native call (must be 0), and a reload experiment proving a steady-state
   .so-cache hit never re-invokes the C compiler. Writes BENCH_native.json; when no C compiler is found
   the section writes an explicit skipped marker instead. *)

module Nat = Sympiler.Native
module NE = Sympiler.Native_engine

let native_ids = if quick then [ 1; 5 ] else [ 1; 2; 5; 9 ]

let native_bench () =
  header "Native backend: OCaml vs compiled C (writes BENCH_native.json)";
  if not (Nat.available ()) then begin
    print_string
      "skipped: no C compiler (cc/gcc/clang on PATH, or $SYMPILER_CC)\n";
    let doc =
      Prof.Json.Obj
        [
          ("bench", Prof.Json.Str "native");
          ("quick", Prof.Json.Bool quick);
          ("skipped", Prof.Json.Str "no cc");
        ]
    in
    write_bench "BENCH_native.json" doc
  end
  else begin
    Printf.printf "%-3s %-15s %-9s | %10s %10s | %8s %-8s %5s\n" "ID" "Name"
      "kernel" "ocaml" "native" "plan" "origin" "words";
    let gc_loops = if quick then 10 else 50 in
    let minor_words_per_call f =
      f ();
      f ();
      let w0 = Gc.minor_words () in
      for _ = 1 to gc_loops do
        f ()
      done;
      let w1 = Gc.minor_words () in
      int_of_float ((w1 -. w0) /. float_of_int gc_loops)
    in
    Nat.reset_stats ();
    (* Generous on purpose: the gate is "compiled C is not slower than the
       OCaml executor", not a speedup claim, and per-call times down at a
       few microseconds are noisy on a shared core. *)
    let tol = 1.10 in
    let tri_ok = ref true and chol_ok = ref true and all_zero = ref true in
    let origin_str (e : NE.exec) =
      match e.NE.nk.Nat.origin with
      | Nat.Compiled -> "compiled"
      | Nat.Disk_cache -> "disk"
      | Nat.Memory_cache -> "memory"
    in
    (* One family arm: [mk engine] builds the plan for that engine and
       returns the steady-state closure plus the plan's native exec (always
       [Some] for the native engines here — [Nat.available] held above, so
       a failed load is a bench bug worth failing loudly on). *)
    let bench_family ~id ~name family
        (mk : Sympiler.engine -> (unit -> unit) * NE.exec option) =
      let run_o, _ = mk `Ocaml in
      run_o ();
      let ocaml_s = measure run_o in
      let t0 = Prof.now_seconds () in
      let run_n, en = mk `Native in
      let plan_s = Prof.now_seconds () -. t0 in
      let e =
        match en with
        | Some e -> e
        | None -> failwith (family ^ ": native load failed despite cc")
      in
      run_n ();
      let native_s = measure run_n in
      let words = minor_words_per_call run_n in
      all_zero := !all_zero && words = 0;
      let ok = native_s <= ocaml_s *. tol in
      (match family with
      | "trisolve" -> tri_ok := !tri_ok && ok
      | "cholesky" -> chol_ok := !chol_ok && ok
      | _ -> ());
      Printf.printf "%-3d %-15s %-9s | %8.2fus %8.2fus | %7.2fs %-8s %5d\n" id
        name family (ocaml_s *. 1e6) (native_s *. 1e6) plan_s (origin_str e)
        words;
      Prof.Json.Obj
        [
          ("family", Prof.Json.Str family);
          ("ocaml_steady_seconds", Prof.Json.Float ocaml_s);
          ("native_steady_seconds", Prof.Json.Float native_s);
          ( "native_vs_ocaml_speedup",
            Prof.Json.Float (ocaml_s /. Float.max native_s 1e-12) );
          ("plan_seconds", Prof.Json.Float plan_s);
          ( "compile_load_seconds",
            Prof.Json.Float e.NE.nk.Nat.compile_seconds );
          ("origin", Prof.Json.Str (origin_str e));
          ("minor_words_per_call", Prof.Json.Int words);
        ]
    in
    let problems =
      List.map
        (fun id ->
          let d = prob id in
          let name = d.p.Sympiler.Suite.name in
          let al = d.p.Sympiler.Suite.a_lower in
          let th = Sympiler.Trisolve.compile (d.l_factor, d.rhs) in
          let ch = Sympiler.Cholesky.compile al in
          let lh = Sympiler.Ldlt.compile al in
          (* Explicit lets: list literals evaluate right-to-left, which
             would reverse the printed rows. *)
          let tri =
            bench_family ~id ~name "trisolve" (fun engine ->
                  let p = Sympiler.Trisolve.plan ~engine th in
                  ( (fun () ->
                      ignore
                        (Sympiler.Trisolve.execute_ip p d.rhs : float array)),
                    p.Sympiler.Trisolve.native ))
          in
          let chol =
            bench_family ~id ~name "cholesky" (fun engine ->
                  let p = Sympiler.Cholesky.plan ~engine ch in
                  ( (fun () -> ignore (Sympiler.Cholesky.execute_ip p al)),
                    p.Sympiler.Cholesky.native ))
          in
          let ldlt =
            bench_family ~id ~name "ldlt" (fun engine ->
                  let p = Sympiler.Ldlt.plan ~engine lh in
                  ( (fun () ->
                      ignore
                        (Sympiler.Ldlt.execute_ip p al
                          : Sympiler_kernels.Ldlt.factors)),
                    p.Sympiler.Ldlt.native ))
          in
          let fams = [ tri; chol; ldlt ] in
          Prof.Json.Obj
            [
              ("id", Prof.Json.Int id);
              ("name", Prof.Json.Str name);
              ("n", Prof.Json.Int al.Csc.ncols);
              ("families", Prof.Json.List fams);
            ])
        native_ids
    in
    (* Reload experiment: drop the in-process kernel table and re-plan an
       already-compiled family. The steady-state contract is that this is
       served by dlopening the cached .so — zero compiler invocations. *)
    let d = prob (List.hd native_ids) in
    let lh = Sympiler.Ldlt.compile d.p.Sympiler.Suite.a_lower in
    let s0 = Nat.stats () in
    Nat.clear_memory_cache ();
    let t0 = Prof.now_seconds () in
    let p = Sympiler.Ldlt.plan ~engine:`Native lh in
    let reload_s = Prof.now_seconds () -. t0 in
    let s1 = Nat.stats () in
    let reload_origin =
      match p.Sympiler.Ldlt.native with Some e -> origin_str e | None -> "none"
    in
    let cache_ok =
      s1.Nat.compiles = s0.Nat.compiles
      && s1.Nat.disk_hits > s0.Nat.disk_hits
      && reload_origin = "disk"
    in
    Printf.printf
      "reload after cache clear: %.2fms via %s (compiles %d->%d, disk hits \
       %d->%d)\n"
      (reload_s *. 1e3) reload_origin s0.Nat.compiles s1.Nat.compiles
      s0.Nat.disk_hits s1.Nat.disk_hits;
    Printf.printf
      "native_not_slower_trisolve=%b native_not_slower_cholesky=%b \
       cache_hit_no_recompile=%b native_zero_alloc=%b\n"
      !tri_ok !chol_ok cache_ok !all_zero;
    let s = Nat.stats () in
    let compiler =
      match Nat.cc () with
      | Some cc -> Nat.compiler_identity cc
      | None -> "unavailable"
    in
    let doc =
      Prof.Json.Obj
        [
          ("bench", Prof.Json.Str "native");
          ("quick", Prof.Json.Bool quick);
          ("compiler", Prof.Json.Str compiler);
          ("tolerance", Prof.Json.Float tol);
          ("native_not_slower_trisolve", Prof.Json.Bool !tri_ok);
          ("native_not_slower_cholesky", Prof.Json.Bool !chol_ok);
          ("cache_hit_no_recompile", Prof.Json.Bool cache_ok);
          ("native_zero_alloc", Prof.Json.Bool !all_zero);
          ( "reload",
            Prof.Json.Obj
              [
                ("seconds", Prof.Json.Float reload_s);
                ("origin", Prof.Json.Str reload_origin);
                ( "compiles_delta",
                  Prof.Json.Int (s1.Nat.compiles - s0.Nat.compiles) );
                ( "disk_hits_delta",
                  Prof.Json.Int (s1.Nat.disk_hits - s0.Nat.disk_hits) );
              ] );
          ( "stats",
            Prof.Json.Obj
              [
                ("compiles", Prof.Json.Int s.Nat.compiles);
                ("disk_hits", Prof.Json.Int s.Nat.disk_hits);
                ("memory_hits", Prof.Json.Int s.Nat.memory_hits);
                ("fallbacks", Prof.Json.Int s.Nat.fallbacks);
              ] );
          ("problems", Prof.Json.List problems);
        ]
    in
    write_bench "BENCH_native.json" doc;
    section_note
      "(ocaml/native = per-call steady medians under the two engines;\n\
      \ plan = `Native plan creation including any cc+dlopen;\n\
      \ origin = how the .so was served (compiled/disk/memory); words =\n\
      \ GC minor words per native call, 0 = allocation-free. Full data\n\
      \ written to BENCH_native.json)\n"
  end

(* ---------------------------------------------------------------- *)
(* Trace overhead: the structured-tracing layer must be free when disabled
   (its guard is one boolean load) and bounded when enabled. Measures the
   disabled begin/end pair cost, counts the spans a steady-state call
   emits, and gates the implied disabled overhead of the steady path at 2%
   (the ci.sh gate greps the verdict). Also sanity-checks both exporters.
   Writes BENCH_trace.json. *)

let trace_ids = [ 2; 6 ]

let trace_bench () =
  header "Trace: span overhead + exporters (writes BENCH_trace.json)";
  let module Trace = Sympiler_trace.Trace in
  Trace.disable ();
  (* Cost of one disabled begin/end pair, amortized over a tight loop. *)
  let pairs = 10_000 in
  let t_pair =
    measure (fun () ->
        for _ = 1 to pairs do
          Trace.begin_span "bench.noop";
          Trace.end_span ()
        done)
    /. float_of_int pairs
  in
  Printf.printf "disabled begin/end pair : %7.2f ns\n" (t_pair *. 1e9);
  Printf.printf "%-3s %-15s | %6s %10s %10s | %9s | %s\n" "ID" "Name" "spans"
    "steady" "traced" "overhead" "exporters";
  let all_ok = ref true in
  let problems =
    List.map
      (fun id ->
        let d = prob id in
        let name = d.p.Sympiler.Suite.name in
        let al = d.p.Sympiler.Suite.a_lower in
        let h = Sympiler.Cholesky.compile al in
        let p = Sympiler.Cholesky.plan h in
        ignore (Sympiler.Cholesky.execute_ip p al);
        let t_off = measure (fun () -> ignore (Sympiler.Cholesky.execute_ip p al)) in
        (* Count the spans one steady call emits, then time the traced
           path (ring wraparound during [measure] is fine: slots are
           recycled, the dropped counter just advances). *)
        Trace.enable ();
        Trace.reset ();
        ignore (Sympiler.Cholesky.execute_ip p al);
        let spans_per_call = Trace.span_count () in
        let t_on = measure (fun () -> ignore (Sympiler.Cholesky.execute_ip p al)) in
        let chrome = Trace.to_chrome_json () in
        let folded = Trace.to_folded () in
        Trace.disable ();
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i =
            i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
          in
          go 0
        in
        let chrome_ok =
          String.length chrome > 2
          && chrome.[0] = '{'
          && contains chrome "traceEvents"
        in
        let folded_ok = String.length folded > 0 in
        (* The disabled-path cost a steady call would pay: its span pairs
           at the measured disabled pair price. *)
        let overhead = float_of_int spans_per_call *. t_pair /. t_off in
        let ok = overhead <= 0.02 && chrome_ok && folded_ok in
        all_ok := !all_ok && ok;
        Printf.printf "%-3d %-15s | %6d %8.2fms %8.2fms | %8.4f%% | %s\n" id
          name spans_per_call (t_off *. 1e3) (t_on *. 1e3) (overhead *. 1e2)
          (if chrome_ok && folded_ok then "ok" else "BROKEN");
        Prof.Json.Obj
          [
            ("id", Prof.Json.Int id);
            ("name", Prof.Json.Str name);
            ("spans_per_call", Prof.Json.Int spans_per_call);
            ("steady_seconds", Prof.Json.Float t_off);
            ("traced_steady_seconds", Prof.Json.Float t_on);
            ("overhead_fraction", Prof.Json.Float overhead);
            ("chrome_export_ok", Prof.Json.Bool chrome_ok);
            ("folded_export_ok", Prof.Json.Bool folded_ok);
          ])
      trace_ids
  in
  Printf.printf "disabled_overhead_ok=%b (gate: <= 2%% of steady call)\n"
    !all_ok;
  let doc =
    Prof.Json.Obj
      [
        ("bench", Prof.Json.Str "trace");
        ("quick", Prof.Json.Bool quick);
        ("disabled_pair_ns", Prof.Json.Float (t_pair *. 1e9));
        ("disabled_overhead_ok", Prof.Json.Bool !all_ok);
        ("problems", Prof.Json.List problems);
      ]
  in
  write_bench "BENCH_trace.json" doc;
  section_note
    "(overhead = spans/call x disabled pair cost / steady call time: what\n\
    \ the instrumentation costs when tracing is off. Full data written to\n\
    \ BENCH_trace.json)\n"

(* ---------------------------------------------------------------- *)
(* Parallel runtime: persistent pool vs spawn-per-call (writes
   BENCH_parallel.json). The evaluation container is single-core, so level
   parallelism cannot buy wall-clock speedup here; the honest claims this
   section measures are (a) dispatching through the persistent pool is
   cheaper than spawning domains at every wide level, (b) steady-state
   parallel calls allocate nothing, and (c) results stay bitwise-identical
   across domain counts. The spawn baseline drives the exact same plan
   task/partitions, only replacing the pool's barrier with
   Domain.spawn/join per dispatch. *)

let parallel_ids = [ 2; 6; 9 ]
let par_nds = [ 1; 2; 4 ]

module CP = Cholesky_parallel
module TP = Trisolve_parallel
module Pool = Sympiler_runtime.Pool

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
        CP.process_target c al p.CP.lx p.CP.relpos.(0) c.CP.level_sn.(t)
      done
    else begin
      p.CP.lv <- lv;
      spawn_run ~nworkers:p.CP.ndomains p.CP.task
    end
  done;
  p.CP.a_lower <- p.CP.l

(* TP.solve_ip with the pool barrier replaced by spawn/join; narrow levels
   (< 64 columns) run as a plain column sweep. *)
let spawn_solve_ip (p : TP.plan) (b : float array) =
  let c = p.TP.c in
  let x = p.TP.x in
  Array.blit b 0 x 0 (Array.length x);
  let l = c.TP.l in
  let lp = l.Csc.colptr and li = l.Csc.rowind and lxv = l.Csc.values in
  for lv = 0 to c.TP.nlevels - 1 do
    let lo = c.TP.level_ptr.(lv) and hi = c.TP.level_ptr.(lv + 1) in
    if hi - lo < 64 then
      for t = lo to hi - 1 do
        let j = c.TP.level_cols.(t) in
        let xj = x.(j) /. lxv.(lp.(j)) in
        x.(j) <- xj;
        for e = lp.(j) + 1 to lp.(j + 1) - 1 do
          x.(li.(e)) <- x.(li.(e)) -. (lxv.(e) *. xj)
        done
      done
    else begin
      for t = lo to hi - 1 do
        let j = c.TP.level_cols.(t) in
        x.(j) <- x.(j) /. lxv.(lp.(j))
      done;
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

let parallel_bench () =
  header "Parallel runtime: pool vs spawn-per-call (writes BENCH_parallel.json)";
  Printf.printf "%-3s %-15s %-9s %5s | %9s %9s %9s | %9s | %5s %5s\n" "ID"
    "Name" "kernel" "disp" "nd=1" "nd=2" "nd=4" "spawn4" "words" "imbal";
  let gc_loops = if quick then 10 else 50 in
  let minor_words_per_call f =
    f ();
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to gc_loops do
      f ()
    done;
    int_of_float ((Gc.minor_words () -. w0) /. float_of_int gc_loops)
  in
  (* The imbalance of [f]'s last dispatch (0 = none measured). *)
  let m_imbalance = Met.gauge "sympiler_pool_imbalance_pct" in
  let imbalance_of f =
    Met.enable ();
    Met.set m_imbalance 0.0;
    f ();
    Met.disable ();
    int_of_float (Met.gauge_value m_imbalance)
  in
  let all_zero = ref true
  and all_bitwise = ref true
  and largest = ref (-1, 0) (* id, n *)
  and beats = Hashtbl.create 8 in
  let problems =
    List.map
      (fun id ->
        let d = prob id in
        let name = d.p.Sympiler.Suite.name in
        let al = d.p.Sympiler.Suite.a_lower in
        let n = al.Csc.ncols in
        if n > snd !largest then largest := (id, n);
        (* Cholesky *)
        let cc = CP.compile al in
        let plans = List.map (fun nd -> (nd, CP.make_plan ~ndomains:nd cc)) par_nds in
        let times =
          List.map
            (fun (nd, p) ->
              CP.factor_ip p al;
              (nd, measure (fun () -> CP.factor_ip p al)))
            plans
        in
        let p4 = List.assoc 4 plans and p1 = List.assoc 1 plans in
        CP.factor_ip p1 al;
        CP.factor_ip p4 al;
        all_bitwise :=
          !all_bitwise && p1.CP.l.Csc.values = p4.CP.l.Csc.values;
        let chol_spawn =
          spawn_factor_ip p4 al;
          measure (fun () -> spawn_factor_ip p4 al)
        in
        let chol_words = minor_words_per_call (fun () -> CP.factor_ip p4 al) in
        let chol_imbal = imbalance_of (fun () -> CP.factor_ip p4 al) in
        let chol_disp = wide_dispatches cc.CP.level_ptr cc.CP.nlevels 8 in
        all_zero := !all_zero && chol_words = 0;
        if chol_disp > 0 then
          Hashtbl.replace beats (id, "cholesky")
            (List.assoc 4 times <= chol_spawn);
        Printf.printf
          "%-3d %-15s %-9s %5d | %7.2fms %7.2fms %7.2fms | %7.2fms | %5d %4d%%\n"
          id name "cholesky" chol_disp
          (List.assoc 1 times *. 1e3)
          (List.assoc 2 times *. 1e3)
          (List.assoc 4 times *. 1e3)
          (chol_spawn *. 1e3) chol_words chol_imbal;
        (* Trisolve *)
        let tc = TP.compile d.l_factor in
        let b = Vector.sparse_to_dense d.rhs in
        let tplans = List.map (fun nd -> (nd, TP.make_plan ~ndomains:nd tc)) par_nds in
        let ttimes =
          List.map
            (fun (nd, p) ->
              ignore (TP.solve_ip p b);
              (nd, measure (fun () -> ignore (TP.solve_ip p b))))
            tplans
        in
        let tp4 = List.assoc 4 tplans and tp1 = List.assoc 1 tplans in
        let x1 = Array.copy (TP.solve_ip tp1 b) in
        all_bitwise := !all_bitwise && x1 = TP.solve_ip tp4 b;
        let tri_spawn =
          spawn_solve_ip tp4 b;
          measure (fun () -> spawn_solve_ip tp4 b)
        in
        let tri_words =
          minor_words_per_call (fun () -> ignore (TP.solve_ip tp4 b))
        in
        let tri_imbal = imbalance_of (fun () -> ignore (TP.solve_ip tp4 b)) in
        let tri_disp = wide_dispatches tc.TP.level_ptr tc.TP.nlevels 64 in
        all_zero := !all_zero && tri_words = 0;
        if tri_disp > 0 then
          Hashtbl.replace beats (id, "trisolve")
            (List.assoc 4 ttimes <= tri_spawn);
        Printf.printf
          "%-3d %-15s %-9s %5d | %7.2fus %7.2fus %7.2fus | %7.2fus | %5d %4d%%\n"
          id name "trisolve" tri_disp
          (List.assoc 1 ttimes *. 1e6)
          (List.assoc 2 ttimes *. 1e6)
          (List.assoc 4 ttimes *. 1e6)
          (tri_spawn *. 1e6) tri_words tri_imbal;
        let times_json ts =
          Prof.Json.Obj
            (List.map
               (fun (nd, t) ->
                 (Printf.sprintf "nd%d_seconds" nd, Prof.Json.Float t))
               ts)
        in
        Prof.Json.Obj
          [
            ("id", Prof.Json.Int id);
            ("name", Prof.Json.Str name);
            ("n", Prof.Json.Int n);
            ( "cholesky",
              Prof.Json.Obj
                [
                  ("levels", Prof.Json.Int cc.CP.nlevels);
                  ("wide_dispatches", Prof.Json.Int chol_disp);
                  ("pool", times_json times);
                  ("spawn_nd4_seconds", Prof.Json.Float chol_spawn);
                  ("minor_words_per_call", Prof.Json.Int chol_words);
                  ("imbalance_pct", Prof.Json.Int chol_imbal);
                ] );
            ( "trisolve",
              Prof.Json.Obj
                [
                  ("levels", Prof.Json.Int tc.TP.nlevels);
                  ("wide_dispatches", Prof.Json.Int tri_disp);
                  ("pool", times_json ttimes);
                  ("spawn_nd4_seconds", Prof.Json.Float tri_spawn);
                  ("minor_words_per_call", Prof.Json.Int tri_words);
                  ("imbalance_pct", Prof.Json.Int tri_imbal);
                ] );
          ])
      parallel_ids
  in
  (* The gate compares pool vs spawn only where wide dispatches happened
     (chain-structured problems never leave the inline path, and there the
     two are the same code); vacuously true when nothing dispatched. *)
  let largest_id = fst !largest in
  let pool_beats_spawn_on_largest =
    Hashtbl.fold
      (fun (id, _) ok acc -> if id = largest_id then acc && ok else acc)
      beats true
  in
  Printf.printf
    "pool domains spawned=%d  all_zero_alloc=%b  bitwise_across_ndomains=%b  \
     pool_beats_spawn_on_largest(id %d)=%b\n"
    (Pool.spawned ()) !all_zero !all_bitwise largest_id
    pool_beats_spawn_on_largest;
  let doc =
    Prof.Json.Obj
      [
        ("bench", Prof.Json.Str "parallel");
        ("quick", Prof.Json.Bool quick);
        ("default_size", Prof.Json.Int (Pool.default_size ()));
        ("pool_domains_spawned", Prof.Json.Int (Pool.spawned ()));
        ("all_zero_alloc", Prof.Json.Bool !all_zero);
        ("bitwise_across_ndomains", Prof.Json.Bool !all_bitwise);
        ("largest_id", Prof.Json.Int largest_id);
        ( "pool_beats_spawn_on_largest",
          Prof.Json.Bool pool_beats_spawn_on_largest );
        ("problems", Prof.Json.List problems);
      ]
  in
  write_bench "BENCH_parallel.json" doc;
  section_note
    "(disp = wide-level pool dispatches per call; spawn4 = the same plan's\n\
    \ chunks with Domain.spawn/join replacing the persistent pool's\n\
    \ barrier; words = GC minor words per steady nd=4 call; imbal =\n\
    \ max/mean worker time, 100% = balanced, 0% = nothing dispatched.\n\
    \ Single-core container: no wall-clock speedup is expected from\n\
    \ nd > 1 - the gate is pool-beats-spawn, allocation-freedom, and\n\
    \ bitwise determinism. Full data written to BENCH_parallel.json)\n"

(* ---------------------------------------------------------------- *)
(* Ordering quality and cost (writes BENCH_ordering.json). Fill and flop
   predictions under natural / RCM / AMD / greedy minimum degree across
   the raw (unprepared) suite matrices; AMD must stay within tolerance of
   the exact-degree greedy oracle everywhere and beat the natural order on
   every mesh/grid problem. The asymptotic section times AMD's quotient
   graph against the quadratic greedy oracle on growing 5-point grids.
   The ordered-compile section drives the facade path end to end: an
   ordered Cholesky plan must stay allocation-free in steady state and
   produce factors bitwise-identical to compiling a manually pre-permuted
   input. *)

(* The suite problems standing in for meshes/grids (the same set
   Suite.prepare reorders). *)
let mesh_names =
  [
    "Pres_Poisson"; "Dubcova2"; "Dubcova3"; "parabolic_fem"; "ecology2";
    "tmt_sym";
  ]

let ordering_bench () =
  header "Ordering: fill-reducing orderings (writes BENCH_ordering.json)";
  Printf.printf "%-3s %-15s | %9s %9s %9s %9s | %7s %9s | %s\n" "ID" "Name"
    "nnzL.nat" "nnzL.rcm" "nnzL.amd" "nnzL.md" "amd/md" "t_amd" "mesh";
  let nnz_flops a p =
    let ap =
      match p with None -> a | Some p -> Perm.symmetric_permute p a
    in
    let f = Fill_pattern.analyze (Csc.lower ap) in
    ( f.Fill_pattern.l_pattern.Csc.colptr.(a.Csc.ncols),
      Fill_pattern.flops f )
  in
  let amd_tolerance = 1.25 in
  let within_tol = ref true and mesh_wins = ref true in
  let problems =
    List.map
      (fun g ->
        let a = Lazy.force g.Generators.matrix in
        let timed f =
          let t0 = Prof.now_seconds () in
          let p = f a in
          (p, Prof.now_seconds () -. t0)
        in
        let p_rcm, t_rcm = timed Ordering.rcm in
        let p_amd, t_amd = timed Ordering.amd in
        let p_md, t_md = timed Ordering.min_degree in
        let nat_nnz, nat_fl = nnz_flops a None in
        let rcm_nnz, rcm_fl = nnz_flops a (Some p_rcm) in
        let amd_nnz, amd_fl = nnz_flops a (Some p_amd) in
        let md_nnz, md_fl = nnz_flops a (Some p_md) in
        let is_mesh = List.mem g.Generators.name mesh_names in
        let ratio =
          float_of_int amd_nnz /. float_of_int (max 1 md_nnz)
        in
        within_tol := !within_tol && ratio <= amd_tolerance;
        if is_mesh then mesh_wins := !mesh_wins && amd_nnz < nat_nnz;
        Printf.printf
          "%-3d %-15s | %9d %9d %9d %9d | %7.3f %7.2fms | %s\n"
          g.Generators.id g.Generators.name nat_nnz rcm_nnz amd_nnz md_nnz
          ratio (t_amd *. 1e3)
          (if is_mesh then "yes" else "-");
        let ord name nnz fl t =
          ( name,
            Prof.Json.Obj
              [
                ("nnz_l", Prof.Json.Int nnz);
                ("predicted_flops", Prof.Json.Float fl);
                ("seconds", Prof.Json.Float t);
              ] )
        in
        Prof.Json.Obj
          [
            ("id", Prof.Json.Int g.Generators.id);
            ("name", Prof.Json.Str g.Generators.name);
            ("n", Prof.Json.Int a.Csc.ncols);
            ("mesh", Prof.Json.Bool is_mesh);
            ord "natural" nat_nnz nat_fl 0.0;
            ord "rcm" rcm_nnz rcm_fl t_rcm;
            ord "amd" amd_nnz amd_fl t_amd;
            ord "min_degree" md_nnz md_fl t_md;
            ("amd_over_min_degree", Prof.Json.Float ratio);
          ])
      Generators.suite
  in
  (* Asymptotic cost: the quotient graph with supervariables and the
     approximate external degree stays near-linear while the exact-degree
     greedy oracle goes quadratic-ish. *)
  let grid_ks = if quick then [ 12; 24; 48 ] else [ 20; 40; 80 ] in
  Printf.printf "asymptotics on 5-point grids:\n";
  let grids =
    List.map
      (fun k ->
        let a = Generators.grid2d ~stencil:`Five k k in
        let t0 = Prof.now_seconds () in
        ignore (Ordering.amd a);
        let t_amd = Prof.now_seconds () -. t0 in
        let t0 = Prof.now_seconds () in
        ignore (Ordering.min_degree a);
        let t_md = Prof.now_seconds () -. t0 in
        Printf.printf
          "  grid %3dx%-3d (n=%5d): amd %8.2fms  greedy %8.2fms  (%5.1fx)\n"
          k k (k * k) (t_amd *. 1e3) (t_md *. 1e3)
          (t_md /. Float.max t_amd 1e-9);
        (k, t_amd, t_md))
      grid_ks
  in
  let _, t_amd_largest, t_md_largest =
    List.nth grids (List.length grids - 1)
  in
  let amd_not_slower = t_amd_largest <= t_md_largest in
  (* Ordered compile path end to end, on a mesh problem's lower pattern:
     steady-state allocation freedom and bitwise identity against a
     manually pre-permuted compile. *)
  let al = (Sympiler.Suite.problem 2).Sympiler.Suite.a_lower in
  let h = Sympiler.Cholesky.compile
      ~opts:(Sympiler.Options.make ~ordering:`Amd ())
      al in
  let p = Sympiler.Cholesky.plan h in
  let l_ordered = Sympiler.Cholesky.execute_ip p al in
  let gc_loops = if quick then 10 else 50 in
  let w0 = Gc.minor_words () in
  for _ = 1 to gc_loops do
    ignore (Sympiler.Cholesky.execute_ip p al)
  done;
  let words =
    int_of_float ((Gc.minor_words () -. w0) /. float_of_int gc_loops)
  in
  let perm =
    match h.Sympiler.Cholesky.ord.Sympiler.o_perm with
    | Some p -> p
    | None -> Perm.identity al.Csc.ncols
  in
  let pl, map = Perm.permute_lower perm al in
  Array.iteri (fun q m -> pl.Csc.values.(q) <- al.Csc.values.(m)) map;
  let h_manual = Sympiler.Cholesky.compile pl in
  let l_manual = Sympiler.Cholesky.factor h_manual pl in
  let bitwise = l_ordered.Csc.values = l_manual.Csc.values in
  let zero_alloc = words = 0 in
  let verdict =
    !within_tol && !mesh_wins && amd_not_slower && bitwise && zero_alloc
  in
  Printf.printf
    "amd_fill_within_tolerance=%b (<= %.2fx greedy)  \
     amd_beats_natural_on_meshes=%b\n"
    !within_tol amd_tolerance !mesh_wins;
  Printf.printf
    "amd_not_slower_than_greedy_on_largest=%b  ordered_steady_zero_alloc=%b \
     (words=%d)  ordered_bitwise_vs_manual=%b\n"
    amd_not_slower zero_alloc words bitwise;
  let doc =
    Prof.Json.Obj
      [
        ("bench", Prof.Json.Str "ordering");
        ("quick", Prof.Json.Bool quick);
        ("amd_tolerance", Prof.Json.Float amd_tolerance);
        ("amd_fill_within_tolerance", Prof.Json.Bool !within_tol);
        ("amd_beats_natural_on_meshes", Prof.Json.Bool !mesh_wins);
        ( "amd_not_slower_than_greedy_on_largest",
          Prof.Json.Bool amd_not_slower );
        ("ordered_steady_zero_alloc", Prof.Json.Bool zero_alloc);
        ("ordered_minor_words_per_call", Prof.Json.Int words);
        ("ordered_bitwise_vs_manual", Prof.Json.Bool bitwise);
        ("verdict", Prof.Json.Bool verdict);
        ( "grids",
          Prof.Json.List
            (List.map
               (fun (k, ta, tm) ->
                 Prof.Json.Obj
                   [
                     ("k", Prof.Json.Int k);
                     ("amd_seconds", Prof.Json.Float ta);
                     ("min_degree_seconds", Prof.Json.Float tm);
                   ])
               grids) );
        ("problems", Prof.Json.List problems);
      ]
  in
  write_bench "BENCH_ordering.json" doc;
  section_note
    "(nnzL.* = predicted factor nonzeros under each ordering of the raw\n\
    \ generator matrix; amd/md = AMD fill relative to the exact-degree\n\
    \ greedy oracle, gated at the tolerance; meshes must improve on\n\
    \ natural. The ordered-compile gate checks the facade's ?ordering\n\
    \ path: zero steady-state allocation and factors bitwise-identical\n\
    \ to a manually pre-permuted compile. Full data written to\n\
    \ BENCH_ordering.json)\n"

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
   Writes BENCH_large.json. *)

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

let large () =
  header "Large tier: 10^4..10^6-row end-to-end (writes BENCH_large.json)";
  Printf.printf "%-12s %9s | %9s %9s %9s %9s %9s | %10s %9s\n" "name" "n"
    "assemble" "symbolic" "compile" "factor" "solve" "nnz(L)" "rss";
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
  in
  let grid_sym = ref [] and grid_num = ref [] and grid_asm = ref [] in
  let rows =
    List.map
      (fun (g : Generators.problem) ->
        let name = g.Generators.name in
        (* Settle the heap before each instance so one problem's garbage
           never counts against the next one's assembly timing. *)
        Gc.compact ();
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
              Gc.compact ())
            (fun () -> fill := Some (Fill_pattern.analyze al))
        in
        let store_bytes =
          Bigstore.memory_bytes (Fill_pattern.row_store (Option.get !fill))
        in
        (* Drop the timed analysis before compiling, so peak RSS at 10^6
           rows never holds two: the compile runs its own analysis, and
           compile_seconds includes it. *)
        fill := None;
        Gc.compact ();
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
        let solve_s =
          time_min reps (fun () -> x := Cholesky_ref.solve_with_factor l b)
        in
        (* Relative infinity-norm residual ||Ax - b|| / ||b||. *)
        let ax = Csc.spmv a !x in
        let rnum = ref 0.0 and rden = ref 1e-300 in
        for i = 0 to n - 1 do
          rnum := Float.max !rnum (Float.abs (ax.(i) -. b.(i)));
          rden := Float.max !rden (Float.abs b.(i))
        done;
        let residual = !rnum /. !rden in
        let rss = max_rss_kb () in
        if String.starts_with ~prefix:"grid3d" name then begin
          grid_sym := (n, symbolic_s) :: !grid_sym;
          grid_num := (n, factor_s) :: !grid_num;
          grid_asm := (n, assemble_s) :: !grid_asm
        end;
        Printf.printf
          "%-12s %9d | %8.3fs %8.3fs %8.3fs %8.3fs %8.3fs | %10d %8dk\n" name
          n assemble_s symbolic_s compile_s factor_s solve_s
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
          ])
      Generators.large_suite
  in
  let sym_exp = fit_exponent !grid_sym in
  let num_exp = fit_exponent !grid_num in
  let asm_exp = fit_exponent !grid_asm in
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
  write_bench "BENCH_large.json" doc;
  section_note
    "(each timing = min over 2-3 one-shot runs, sized to the instance,\n\
    \ with a Gc.compact outside each timed window so repetitions never\n\
    \ pay the previous run's collection debt;\n\
    \ exponents = log-log least-squares slope over the 10^4/10^5/10^6\n\
    \ grid3d ladder, whose constant 5x5 cross-section makes work per row\n\
    \ constant — a linear stack measures ~1.0. Full data written to\n\
    \ BENCH_large.json)\n"

(* ---------------------------------------------------------------- *)
(* Metrics layer: serving-grade gates for the labeled registry (writes
   BENCH_metrics.json). Four claims, each a verdict the ci gate greps:
   (a) enabling metrics costs <= 2% on the steady Cholesky refactor path
   (interleaved on/off rounds, min-of-rounds on both arms so scheduler
   noise can only shrink the measured gap's inputs symmetrically);
   (b) histogram percentiles land within one log-linear bucket of a
   sorted-array oracle over a skewed synthetic sample, with the exact-sum
   and exact-max invariants holding bit-for-bit; (c) 4 domains hammering
   one counter lose no increments (the sharded cells keep every count
   exact across domains); (d) the enabled hot path allocates zero GC
   minor words, and the exposition passes the OpenMetrics linter. *)

let metrics_bench () =
  header "Metrics: registry overhead + fidelity (writes BENCH_metrics.json)";
  let was_on = Met.enabled () in
  (* -- (a) overhead on the serving path -- *)
  let d = prob 2 in
  let al = d.p.Sympiler.Suite.a_lower in
  let h = Sympiler.Cholesky.compile al in
  let p = Sympiler.Cholesky.plan h in
  ignore (Sympiler.Cholesky.execute_ip p al);
  let t0 = Prof.now_seconds () in
  ignore (Sympiler.Cholesky.execute_ip p al);
  let once = Prof.now_seconds () -. t0 in
  let inner = max 1 (int_of_float (min_window /. Float.max once 1e-7)) in
  let time_loop () =
    let t0 = Prof.now_seconds () in
    for _ = 1 to inner do
      ignore (Sympiler.Cholesky.execute_ip p al)
    done;
    (Prof.now_seconds () -. t0) /. float_of_int inner
  in
  let best_on = ref infinity and best_off = ref infinity in
  for _ = 1 to reps_outer do
    Met.disable ();
    best_off := Float.min !best_off (time_loop ());
    Met.enable ();
    best_on := Float.min !best_on (time_loop ())
  done;
  Met.disable ();
  let overhead = (!best_on -. !best_off) /. !best_off in
  let overhead_ok = overhead <= 0.02 in
  Printf.printf
    "steady refactor  : off %.3fms  on %.3fms  overhead %+.3f%% (gate <= 2%%)\n"
    (!best_off *. 1e3) (!best_on *. 1e3) (overhead *. 1e2);
  (* -- (b) percentile fidelity vs a sorted-array oracle -- *)
  let nsamples = 20_000 in
  let samples = Array.make nsamples 0 in
  let state = ref 0x2545F4914F6CDD1D in
  let next () =
    state := ((!state * 25214903917) + 11) land ((1 lsl 48) - 1);
    !state lsr 17
  in
  (* Log-uniform-ish latencies, ~100ns to ~100ms: exponent first, then
     jitter inside the decade, i.e. a long right tail like real serving. *)
  for i = 0 to nsamples - 1 do
    let e = next () mod 20 in
    let base = 1 lsl e in
    samples.(i) <- 100 + (base * 50) + (next () mod ((base * 10) + 1))
  done;
  let hh =
    Met.histogram "bench_metrics_fidelity"
      ~help:"Synthetic latency sample for the percentile-fidelity gate"
  in
  Met.enable ();
  Array.iter (fun v -> Met.observe_ns hh v) samples;
  let snap = Met.snapshot hh in
  Met.disable ();
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let oracle q =
    sorted.(min (nsamples - 1)
              (max 0 (int_of_float (Float.ceil (q *. float_of_int nsamples)) - 1)))
  in
  let bucket_close q est_s =
    let est_ns = int_of_float ((est_s *. 1e9) +. 0.5) in
    abs (Met.bucket_of_ns est_ns - Met.bucket_of_ns (oracle q)) <= 1
  in
  let exact_sum = Array.fold_left ( + ) 0 samples in
  let exact_max = Array.fold_left max 0 samples in
  let sum_exact = int_of_float ((snap.Met.sum *. 1e9) +. 0.5) = exact_sum in
  let max_exact = int_of_float ((snap.Met.max *. 1e9) +. 0.5) = exact_max in
  let percentiles_ok =
    snap.Met.count = nsamples
    && bucket_close 0.50 snap.Met.p50
    && bucket_close 0.90 snap.Met.p90
    && bucket_close 0.99 snap.Met.p99
    && sum_exact && max_exact
  in
  Printf.printf
    "histogram        : p50 %.0f/%d ns  p99 %.0f/%d ns (est/oracle)  \
     sum_exact=%b max_exact=%b\n"
    (snap.Met.p50 *. 1e9) (oracle 0.50) (snap.Met.p99 *. 1e9) (oracle 0.99)
    sum_exact max_exact;
  (* -- (c) cross-domain counter exactness -- *)
  let c =
    Met.counter "bench_metrics_stress"
      ~help:"Cross-domain increment-loss stress for the sharded cells"
  in
  let perdom = 200_000 and ndom = 4 in
  Met.enable ();
  let doms =
    Array.init (ndom - 1) (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to perdom do
              Met.inc c 1
            done))
  in
  for _ = 1 to perdom do
    Met.inc c 1
  done;
  Array.iter Domain.join doms;
  let total = Met.counter_value c in
  let counters_exact = total = perdom * ndom in
  Printf.printf "domain stress    : %d domains x %d incs -> %d (exact=%b)\n"
    ndom perdom total counters_exact;
  (* -- (d) hot-path allocation + exposition conformance -- *)
  let alloc_words enabled =
    if enabled then Met.enable () else Met.disable ();
    (* warm both paths once so any lazy state is settled *)
    Met.inc c 1;
    Met.observe_ns hh 1234;
    let w0 = Gc.minor_words () in
    for i = 1 to 1_000 do
      Met.inc c 1;
      Met.observe_ns hh (i * 100)
    done;
    Met.disable ();
    int_of_float (Gc.minor_words () -. w0)
  in
  let enabled_words = alloc_words true in
  let disabled_words = alloc_words false in
  let zero_alloc = enabled_words = 0 && disabled_words = 0 in
  Met.enable ();
  let expo = Met.to_openmetrics () in
  Met.disable ();
  let lint = Met.lint_openmetrics expo in
  let exposition_ok = lint = Ok () in
  (match lint with
  | Ok () -> ()
  | Error e -> Printf.printf "openmetrics lint : FAILED: %s\n" e);
  Printf.printf
    "hot path         : minor words/1k records on=%d off=%d  \
     openmetrics_lint=%b\n"
    enabled_words disabled_words exposition_ok;
  if was_on then Met.enable ();
  let verdict =
    overhead_ok && percentiles_ok && counters_exact && zero_alloc
    && exposition_ok
  in
  Printf.printf
    "overhead_ok=%b percentiles_ok=%b counters_exact=%b zero_alloc=%b \
     exposition_ok=%b verdict=%b\n"
    overhead_ok percentiles_ok counters_exact zero_alloc exposition_ok verdict;
  let doc =
    Prof.Json.Obj
      [
        ("bench", Prof.Json.Str "metrics");
        ("quick", Prof.Json.Bool quick);
        ("steady_off_seconds", Prof.Json.Float !best_off);
        ("steady_on_seconds", Prof.Json.Float !best_on);
        ("overhead_fraction", Prof.Json.Float overhead);
        ("overhead_ok", Prof.Json.Bool overhead_ok);
        ( "histogram",
          Prof.Json.Obj
            [
              ("samples", Prof.Json.Int nsamples);
              ("count", Prof.Json.Int snap.Met.count);
              ("p50_seconds", Prof.Json.Float snap.Met.p50);
              ("p50_oracle_seconds",
               Prof.Json.Float (float_of_int (oracle 0.50) /. 1e9));
              ("p90_seconds", Prof.Json.Float snap.Met.p90);
              ("p99_seconds", Prof.Json.Float snap.Met.p99);
              ("p99_oracle_seconds",
               Prof.Json.Float (float_of_int (oracle 0.99) /. 1e9));
              ("sum_exact", Prof.Json.Bool sum_exact);
              ("max_exact", Prof.Json.Bool max_exact);
            ] );
        ("percentiles_ok", Prof.Json.Bool percentiles_ok);
        ( "stress",
          Prof.Json.Obj
            [
              ("domains", Prof.Json.Int ndom);
              ("increments_per_domain", Prof.Json.Int perdom);
              ("total", Prof.Json.Int total);
            ] );
        ("counters_exact", Prof.Json.Bool counters_exact);
        ("enabled_minor_words_per_1k", Prof.Json.Int enabled_words);
        ("disabled_minor_words_per_1k", Prof.Json.Int disabled_words);
        ("zero_alloc", Prof.Json.Bool zero_alloc);
        ("exposition_ok", Prof.Json.Bool exposition_ok);
        ("verdict", Prof.Json.Bool verdict);
      ]
  in
  write_bench "BENCH_metrics.json" doc;
  section_note
    "(overhead = min-of-rounds steady refactor with the registry on vs\n\
    \ off, interleaved; percentiles must land within one log-linear\n\
    \ bucket (<= 6.25% width) of the sorted-array oracle while sum and\n\
    \ max stay exact; the 4-domain stress must lose no increments; the\n\
    \ enabled record path must allocate nothing. Full data written to\n\
    \ BENCH_metrics.json)\n"

(* ---------------------------------------------------------------- *)
(* Pipeline fusion: whole solver DAGs compiled through one shared
   symbolic analysis. Gates the fused executor's contract: fused apply not
   slower than the staged baseline, zero steady-state allocation,
   bitwise-identical results, and the shared analysis ledger (every
   artifact computed at most once). The rows are Cholesky factor+solve on
   suite problems, which keep the column sweeps, and IC(0) factor+solve on
   natural 5-point grids, whose fused sweeps run level-ordered
   ([level_scheduled]). Writes BENCH_pipeline.json; scripts/ci.sh greps
   the verdicts. *)

let pipeline_bench () =
  let module Pl = Sympiler.Pipeline in
  header "Pipeline fusion: fused vs staged solver DAGs";
  let pids = if quick then [ 1; 2; 5 ] else [ 1; 2; 5; 8; 9 ] in
  let cases =
    List.map
      (fun id ->
        let d = prob id in
        (d.p.Sympiler.Suite.name, "cholesky", `Cholesky, d.p.Sympiler.Suite.a_lower))
      pids
    @ List.map
        (fun side ->
          ( Printf.sprintf "grid5_%dx%d" side side,
            "ic0",
            `Ic0,
            Csc.lower (Generators.grid2d ~stencil:`Five side side) ))
        [ 40; 100 ]
  in
  Printf.printf "%-15s %-8s %7s %12s %12s %8s %6s %8s %6s\n" "problem" "family"
    "n" "fused" "staged" "speedup" "alloc" "bitwise" "level";
  let rows = ref [] in
  let all_not_slower = ref true in
  let all_zero_alloc = ref true in
  let all_bitwise = ref true in
  let all_shared = ref true in
  List.iter
    (fun (name, family_name, family, al) ->
      let n = al.Csc.ncols in
      let t = Pl.compile (Pl.factor_solve family) al in
      let p = Pl.plan t in
      Pl.factor_ip p al;
      let b = Array.init n (fun i -> sin (0.01 *. float_of_int i)) in
      let xf = Array.copy (Pl.execute_ip p b) in
      let bitwise = xf = Pl.staged_execute_ip p b in
      let fused_s = measure (fun () -> ignore (Pl.execute_ip p b)) in
      let staged_s = measure (fun () -> ignore (Pl.staged_execute_ip p b)) in
      (* per-call minor-heap delta of the fused apply (two warmups ran) *)
      let k = 20 in
      let w0 = Gc.minor_words () in
      for _ = 1 to k do
        ignore (Pl.execute_ip p b)
      done;
      let words =
        int_of_float ((Gc.minor_words () -. w0) /. float_of_int k)
      in
      let shared =
        List.for_all (fun (_, v) -> v <= 1) (Pl.analysis_runs t)
      in
      let level_scheduled =
        List.exists
          (fun (d : Sympiler.Trace.decision) ->
            d.Sympiler.Trace.pass = "level-sweep" && d.Sympiler.Trace.fired)
          (Pl.decisions t)
      in
      let speedup = staged_s /. Float.max fused_s 1e-12 in
      (* 5% noise tolerance: fusion must never lose, modulo jitter *)
      let not_slower = fused_s <= staged_s *. 1.05 in
      all_not_slower := !all_not_slower && not_slower;
      all_zero_alloc := !all_zero_alloc && words = 0;
      all_bitwise := !all_bitwise && bitwise;
      all_shared := !all_shared && shared;
      Printf.printf "%-15s %-8s %7d %10.1fus %10.1fus %7.2fx %6d %8b %6b\n" name
        family_name n (fused_s *. 1e6) (staged_s *. 1e6) speedup words bitwise
        level_scheduled;
      rows :=
        Prof.Json.Obj
          [
            ("name", Prof.Json.Str name);
            ("family", Prof.Json.Str family_name);
            ("n", Prof.Json.Int n);
            ("nnz", Prof.Json.Int (Csc.nnz al));
            ("fused_seconds", Prof.Json.Float fused_s);
            ("staged_seconds", Prof.Json.Float staged_s);
            ("speedup", Prof.Json.Float speedup);
            ("minor_words_per_apply", Prof.Json.Int words);
            ("bitwise", Prof.Json.Bool bitwise);
            ("analysis_shared", Prof.Json.Bool shared);
            ("fused_boundaries", Prof.Json.Int (Pl.fused_boundaries t));
            ("level_scheduled", Prof.Json.Bool level_scheduled);
            ("symbolic_seconds", Prof.Json.Float (Pl.symbolic_seconds t));
          ]
        :: !rows)
    cases;
  let verdict =
    !all_not_slower && !all_zero_alloc && !all_bitwise && !all_shared
  in
  Printf.printf
    "fused_not_slower=%b pipeline_zero_alloc=%b fused_bitwise_identical=%b \
     analysis_shared=%b verdict=%b\n"
    !all_not_slower !all_zero_alloc !all_bitwise !all_shared verdict;
  let doc =
    Prof.Json.Obj
      [
        ("bench", Prof.Json.Str "pipeline");
        ("quick", Prof.Json.Bool quick);
        ("problems", Prof.Json.List (List.rev !rows));
        ("fused_not_slower", Prof.Json.Bool !all_not_slower);
        ("pipeline_zero_alloc", Prof.Json.Bool !all_zero_alloc);
        ("fused_bitwise_identical", Prof.Json.Bool !all_bitwise);
        ("analysis_shared", Prof.Json.Bool !all_shared);
        ("verdict", Prof.Json.Bool verdict);
      ]
  in
  write_bench "BENCH_pipeline.json" doc;
  section_note
    "(the staged baseline runs the same stage bodies with per-stage\n\
    \ copy-in/copy-out - what N independently compiled plans would do;\n\
    \ fusion removes the copies and the L/L^T boundary, and on the\n\
    \ level-scheduled rows also visits the sweeps in level order, so it\n\
    \ must never lose. Full data written to BENCH_pipeline.json)\n"

(* ---------------------------------------------------------------- *)
(* Rank-1 update/downdate in the plan world (the §3.3 rank-update
   method): update_ip against a full refactorization and the resulting
   crossover rank, residual drift over long canceling update/downdate
   streams, rollback and allocation gates, the incremental column
   refactorization, and the out-of-pattern escalation path. Writes
   BENCH_updown.json; scripts/ci.sh greps the verdicts. *)

let updown_bench () =
  let module C = Sympiler.Cholesky in
  header "Rank update/downdate: update_ip vs refactorization";
  let pids = if quick then [ 1; 2; 5 ] else [ 1; 2; 5; 8; 9 ] in
  Printf.printf "%-15s %9s %12s %12s %10s %6s %9s %10s\n" "problem" "n"
    "update" "refactor" "crossover" "alloc" "rollback" "drift";
  let rows = ref [] in
  let all_faster = ref true in
  let all_zero_alloc = ref true in
  let all_rollback = ref true in
  let all_drift = ref true in
  let all_incr_bitwise = ref true in
  List.iter
    (fun id ->
      let d = prob id in
      let al = d.p.Sympiler.Suite.a_lower in
      let n = al.Csc.ncols in
      let t = C.compile al in
      let p = C.plan t in
      ignore (C.execute_ip p al : Csc.t);
      let w = Rank_update.vector_like (C.plan_factor p) ~j:(n / 3) ~scale:0.2 in
      let refactor_s = measure (fun () -> ignore (C.execute_ip p al)) in
      (* a stream of pure updates only inflates the factor, so it can
         never fail mid-measurement; downdates are timed as half of a
         canceling pair for the same reason *)
      let update_s = measure (fun () -> C.update_ip p ~sigma:0.5 w) in
      ignore (C.execute_ip p al : Csc.t);
      let pair_s =
        measure (fun () ->
            C.update_ip p ~sigma:0.5 w;
            C.downdate_ip p ~sigma:0.5 w)
      in
      let downdate_s = Float.max (pair_s -. update_s) 0.0 in
      (* per-pair minor-heap delta on the steady loop (warmups ran) *)
      let k = 20 in
      let w0 = Gc.minor_words () in
      for _ = 1 to k do
        C.update_ip p ~sigma:0.5 w;
        C.downdate_ip p ~sigma:0.5 w
      done;
      let words = int_of_float ((Gc.minor_words () -. w0) /. float_of_int k) in
      (* residual drift over a long canceling update/downdate stream *)
      ignore (C.execute_ip p al : Csc.t);
      let v0 = Array.copy (C.plan_factor p).Csc.values in
      for _ = 1 to 200 do
        C.update_ip p ~sigma:0.5 w;
        C.downdate_ip p ~sigma:0.5 w
      done;
      let scale =
        Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1.0 v0
      in
      let drift = ref 0.0 in
      Array.iteri
        (fun i v ->
          drift :=
            Float.max !drift
              (Float.abs (v -. (C.plan_factor p).Csc.values.(i)) /. scale))
        v0;
      (* a rejected downdate must leave the factor bitwise intact *)
      ignore (C.execute_ip p al : Csc.t);
      let before = Array.copy (C.plan_factor p).Csc.values in
      let rollback_ok =
        (try
           C.downdate_ip p ~sigma:1e9 w;
           false
         with Rank_update.Not_positive_definite _ -> true)
        && before = (C.plan_factor p).Csc.values
      in
      (* incremental column refactorization on a simplicial plan:
         alternate two inputs differing in one column so every timed
         call recomputes the same localized row set (a repeated input
         would diff to zero after the first call) *)
      let ts = C.compile ~opts:(Sympiler.Options.make ~simplicial:true ()) al in
      let ps = C.plan ts in
      let ps2 = C.plan ts in
      ignore (C.execute_ip ps al : Csc.t);
      ignore (C.refactor_cols_ip ps al : int);
      let al2 =
        (* bump one diagonal entry: a localized change that can only
           increase positive definiteness *)
        let values = Array.copy al.Csc.values in
        let c = n / 2 in
        for q = al.Csc.colptr.(c) to al.Csc.colptr.(c + 1) - 1 do
          if al.Csc.rowind.(q) = c then values.(q) <- values.(q) *. 1.5
        done;
        { al with Csc.values }
      in
      let incr_rows = C.refactor_cols_ip ps al2 in
      ignore (C.execute_ip ps2 al2 : Csc.t);
      let incr_bitwise =
        (C.plan_factor ps).Csc.values = (C.plan_factor ps2).Csc.values
      in
      let incr_pair_s =
        measure (fun () ->
            ignore (C.refactor_cols_ip ps al : int);
            ignore (C.refactor_cols_ip ps al2 : int))
      in
      let full_simp_s = measure (fun () -> ignore (C.execute_ip ps2 al2)) in
      let crossover =
        int_of_float (Float.ceil (refactor_s /. Float.max update_s 1e-12))
      in
      all_faster := !all_faster && update_s < refactor_s;
      all_zero_alloc := !all_zero_alloc && words = 0;
      all_rollback := !all_rollback && rollback_ok;
      all_drift := !all_drift && !drift <= 1e-10;
      all_incr_bitwise := !all_incr_bitwise && incr_bitwise;
      Printf.printf "%-15s %9d %10.1fus %10.1fus %10d %6d %9b %10.1e\n"
        d.p.Sympiler.Suite.name n (update_s *. 1e6) (refactor_s *. 1e6)
        crossover words rollback_ok !drift;
      rows :=
        Prof.Json.Obj
          [
            ("name", Prof.Json.Str d.p.Sympiler.Suite.name);
            ("n", Prof.Json.Int n);
            ("nnz_l", Prof.Json.Int (Csc.nnz (C.plan_factor p)));
            ("update_seconds", Prof.Json.Float update_s);
            ("downdate_seconds", Prof.Json.Float downdate_s);
            ("refactor_seconds", Prof.Json.Float refactor_s);
            ("crossover_rank", Prof.Json.Int crossover);
            ("updown_minor_words_per_pair", Prof.Json.Int words);
            ("rollback_ok", Prof.Json.Bool rollback_ok);
            ("drift_after_200_pairs", Prof.Json.Float !drift);
            ("incremental_rows", Prof.Json.Int incr_rows);
            ("incremental_seconds", Prof.Json.Float (incr_pair_s /. 2.0));
            ("simplicial_refactor_seconds", Prof.Json.Float full_simp_s);
            ("incremental_bitwise", Prof.Json.Bool incr_bitwise);
          ]
        :: !rows)
    pids;
  (* Escalation: an update coupling the two ends of a band can never fit
     the factor pattern, so update_ip recompiles the plan in place; the
     recompile goes through the default plan cache, so a repeated
     escalation shape skips the symbolic phase. *)
  let ab = Csc.lower (Generators.banded ~seed:11 ~n:40 ~band:2 ()) in
  let wc = { Vector.n = 40; indices = [| 0; 39 |]; values = [| 1.0; -1.0 |] } in
  let esc_once () =
    let t = C.compile ab in
    let p = C.plan t in
    ignore (C.execute_ip p ab : Csc.t);
    let t0 = Prof.now_seconds () in
    C.update_ip p ~sigma:0.5 wc;
    (Prof.now_seconds () -. t0, p.C.esc_map <> None)
  in
  let h0 = (C.cache_stats ()).Sympiler.Plan_cache.hits in
  let esc1_s, esc1_ok = esc_once () in
  let esc2_s, esc2_ok = esc_once () in
  let esc_cache_hit = (C.cache_stats ()).Sympiler.Plan_cache.hits > h0 in
  let verdict =
    !all_faster && !all_zero_alloc && !all_rollback && !all_drift
    && !all_incr_bitwise && esc1_ok && esc2_ok
  in
  Printf.printf
    "update_faster_than_refactor_below_crossover=%b updown_zero_alloc=%b \
     rollback_preserves_factor=%b drift_bounded=%b incremental_bitwise=%b \
     escalation_cache_hit=%b verdict=%b\n"
    !all_faster !all_zero_alloc !all_rollback !all_drift !all_incr_bitwise
    esc_cache_hit verdict;
  let doc =
    Prof.Json.Obj
      [
        ("bench", Prof.Json.Str "updown");
        ("quick", Prof.Json.Bool quick);
        ("problems", Prof.Json.List (List.rev !rows));
        ("escalation_first_seconds", Prof.Json.Float esc1_s);
        ("escalation_second_seconds", Prof.Json.Float esc2_s);
        ("escalation_cache_hit", Prof.Json.Bool esc_cache_hit);
        ( "update_faster_than_refactor_below_crossover",
          Prof.Json.Bool !all_faster );
        ("updown_zero_alloc", Prof.Json.Bool !all_zero_alloc);
        ("rollback_preserves_factor", Prof.Json.Bool !all_rollback);
        ("drift_bounded", Prof.Json.Bool !all_drift);
        ("incremental_bitwise", Prof.Json.Bool !all_incr_bitwise);
        ("verdict", Prof.Json.Bool verdict);
      ]
  in
  write_bench "BENCH_updown.json" doc;
  section_note
    "(update = one in-pattern rank-1 update through the plan facade;\n\
    \ crossover = how many rank-1 updates fit in one refactorization;\n\
    \ drift = max relative factor deviation after 200 canceling\n\
    \ update/downdate pairs; incremental = refactor_cols_ip over a\n\
    \ one-column change, bitwise vs the full simplicial refactor.\n\
    \ Full data written to BENCH_updown.json)\n"

(* ---------------------------------------------------------------- *)
(* Bechamel variant: one Test.make per experiment. *)

let bechamel_tests () =
  let open Bechamel in
  let d = prob 1 in
  let al = d.p.Sympiler.Suite.a_lower in
  let b = d.rhs in
  let x = Vector.sparse_to_dense b in
  let load () =
    Array.iteri (fun i _ -> x.(i) <- 0.0) x;
    Array.iteri (fun k i -> x.(i) <- b.Vector.values.(k)) b.Vector.indices
  in
  let an_e = Cholesky_ref.Eigen.analyze al in
  let an_c = Cholesky_supernodal.Cholmod.analyze al in
  let cs = Cholesky_supernodal.Sympiler.compile al in
  let c = d.tri_compiled in
  let l = d.l_factor in
  Test.make_grouped ~name:"sympiler"
    [
      Test.make ~name:"fig6/trisolve-eigen"
        (Staged.stage (fun () ->
             load ();
             Trisolve_ref.library_ip l x));
      Test.make ~name:"fig6/trisolve-sympiler"
        (Staged.stage (fun () ->
             load ();
             Trisolve_sympiler.solve_full_ip c x));
      Test.make ~name:"fig7/cholesky-eigen"
        (Staged.stage (fun () -> ignore (Cholesky_ref.Eigen.factor an_e al)));
      Test.make ~name:"fig7/cholesky-cholmod"
        (Staged.stage (fun () ->
             ignore (Cholesky_supernodal.Cholmod.factor an_c al)));
      Test.make ~name:"fig7/cholesky-sympiler"
        (Staged.stage (fun () ->
             ignore (Cholesky_supernodal.Sympiler.factor cs al)));
      Test.make ~name:"fig8/trisolve-symbolic"
        (Staged.stage (fun () -> ignore (Trisolve_sympiler.compile l b)));
      Test.make ~name:"fig9/cholesky-symbolic"
        (Staged.stage (fun () ->
             ignore (Cholesky_supernodal.Sympiler.compile al)));
      Test.make ~name:"table2/generator"
        (Staged.stage (fun () ->
             ignore
               (Generators.clique_chain ~seed:11 ~n:400 ~clique:16 ~overlap:4
                  ())));
    ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun name tbl ->
      Hashtbl.iter
        (fun test result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              Printf.printf "%-40s %-18s %14.1f ns/run\n" test name est
          | _ -> ())
        tbl)
    merged

let () =
  if use_bechamel then run_bechamel ()
  else begin
    Printf.printf
      "Sympiler reproduction benchmarks (median of %d, window %.2fs%s)\n"
      reps_outer min_window
      (if quick then ", --quick" else "");
    if run_section "phases" then phases ();
    if run_section "steady" then steady ();
    if run_section "native" then native_bench ();
    if run_section "trace" then trace_bench ();
    if run_section "parallel" then parallel_bench ();
    if run_section "ordering" then ordering_bench ();
    if run_section "metrics" then metrics_bench ();
    if run_section "pipeline" then pipeline_bench ();
    if run_section "updown" then updown_bench ();
    if run_section "table2" then table2 ();
    if run_section "fig6" then fig6 ();
    if run_section "fig7" then fig7 ();
    if run_section "fig8" then fig8 ();
    if run_section "fig9" then fig9 ();
    if run_section "intro" then intro ();
    if run_section "ablation-threshold" then ablation_threshold ();
    if run_section "ablation-lowlevel" then ablation_lowlevel ();
    if run_section "extensions" then extensions ();
    (* The large tier never rides along with the default all-sections
       sweep: it runs only when named (`--only large`) or when `--large`
       opts in explicitly. *)
    if run_section "large" && (only <> None || large_requested) then large ()
  end
