open Sympiler_sparse

(* Elimination tree of a symmetric positive definite matrix (Liu's algorithm
   with path-compressed virtual ancestors, nearly O(|A|)). The parent of
   column j is min{ i > j : L(i,j) <> 0 }. Input is the lower-triangular
   part of A in CSC form. *)

(* parent.(j) = parent column, or -1 for roots, from [upper] = the
   transpose of the stored lower part: column k of [upper] lists the
   i <= k with A(k,i) <> 0 (the row pattern of the lower triangle).
   Callers that already hold the transpose (the fill analysis) pass it
   here instead of paying for a second one. *)
let of_upper (upper : Csc.t) : int array =
  Sympiler_trace.Trace.with_span "symbolic.etree" @@ fun () ->
  let n = upper.Csc.ncols in
  let parent = Array.make n (-1) in
  let ancestor = Array.make n (-1) in
  for k = 0 to n - 1 do
    for p = upper.Csc.colptr.(k) to upper.Csc.colptr.(k + 1) - 1 do
      (* Walk from i up the current forest to its root, compressing. *)
      let i = ref upper.Csc.rowind.(p) in
      while !i < k && !i >= 0 do
        let next = ancestor.(!i) in
        ancestor.(!i) <- k;
        if next = -1 then begin
          parent.(!i) <- k;
          i := -1
        end
        else i := next
      done
    done
  done;
  parent

let compute (a_lower : Csc.t) : int array =
  of_upper (Csc.transpose_pattern a_lower)

(* Naive O(n^2)-ish oracle: build the filled pattern column by column with
   explicit sets and read parents off it. Used only in tests. *)
let compute_naive (a_lower : Csc.t) : int array =
  let n = a_lower.Csc.ncols in
  let module S = Set.Make (Int) in
  let cols = Array.make n S.empty in
  (* Start with pattern of A's lower triangle. *)
  Csc.iter a_lower (fun i j _ -> if i > j then cols.(j) <- S.add i cols.(j));
  let parent = Array.make n (-1) in
  for j = 0 to n - 1 do
    match S.min_elt_opt cols.(j) with
    | None -> ()
    | Some p ->
        parent.(j) <- p;
        (* Fill: the rest of column j's pattern joins column p. *)
        cols.(p) <- S.union cols.(p) (S.remove p cols.(j))
  done;
  parent

let children (parent : int array) : int list array =
  let n = Array.length parent in
  let ch = Array.make n [] in
  for j = n - 1 downto 0 do
    if parent.(j) >= 0 then ch.(parent.(j)) <- j :: ch.(parent.(j))
  done;
  ch

let n_children (parent : int array) : int array =
  let n = Array.length parent in
  let c = Array.make n 0 in
  Array.iter (fun p -> if p >= 0 then c.(p) <- c.(p) + 1) parent;
  c

let roots (parent : int array) : int list =
  let acc = ref [] in
  Array.iteri (fun j p -> if p = -1 then acc := j :: !acc) parent;
  List.rev !acc

(* Path from [j] to its root, inclusive, in ascending (child-to-root)
   order — the inspection set of the §3.3 rank-update method: an update
   whose first nonzero is [j] touches exactly these columns. *)
let path_to_root (parent : int array) (j : int) : int array =
  if j < 0 || j >= Array.length parent then
    invalid_arg "Etree.path_to_root: node out of range";
  let len = ref 0 in
  let i = ref j in
  while !i >= 0 do
    incr len;
    i := parent.(!i)
  done;
  let path = Array.make !len 0 in
  let i = ref j in
  for t = 0 to !len - 1 do
    path.(t) <- !i;
    i := parent.(!i)
  done;
  path

(* Memoized per-node path table. Paths are computed on first use and
   cached ([paths.(j)] is [[||]] until then — a real path always contains
   [j] itself, so the empty array is a free "unset" sentinel). Steady-state
   lookups are a single array read: the symbolic phase of a repeated rank
   update collapses to a table hit, which is what lets the numeric update
   run allocation-free. [hits]/[misses] let callers feed the path
   counters without the table depending on the metrics layer. *)
type path_table = {
  pt_parent : int array;
  pt_paths : int array array;
  mutable pt_hits : int;
  mutable pt_misses : int;
}

let make_path_table (parent : int array) : path_table =
  {
    pt_parent = parent;
    pt_paths = Array.make (Array.length parent) [||];
    pt_hits = 0;
    pt_misses = 0;
  }

let path (tbl : path_table) (j : int) : int array =
  let p = tbl.pt_paths.(j) in
  if Array.length p > 0 then begin
    tbl.pt_hits <- tbl.pt_hits + 1;
    p
  end
  else begin
    tbl.pt_misses <- tbl.pt_misses + 1;
    let p = path_to_root tbl.pt_parent j in
    tbl.pt_paths.(j) <- p;
    p
  end

(* Depth of each node (roots have depth 0). Iterative: a band matrix's
   etree is a single path, so at 10^6 columns the obvious memoized
   recursion is 10^6 frames deep — it must climb with an explicit stack.
   Each node is pushed once overall, so the whole pass is O(n). *)
let depths (parent : int array) : int array =
  let n = Array.length parent in
  let depth = Array.make n (-1) in
  let path = Array.make (max 1 n) 0 in
  for j = 0 to n - 1 do
    if depth.(j) < 0 then begin
      (* Climb to the first ancestor of known depth (or a root), recording
         the path, then assign depths back down it. *)
      let top = ref 0 in
      let i = ref j in
      while !i >= 0 && depth.(!i) < 0 do
        path.(!top) <- !i;
        incr top;
        i := parent.(!i)
      done;
      let d = ref (if !i < 0 then -1 else depth.(!i)) in
      for t = !top - 1 downto 0 do
        incr d;
        depth.(path.(t)) <- !d
      done
    end
  done;
  depth
