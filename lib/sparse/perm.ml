(* Permutations. Convention: a permutation [p] maps new index -> old index,
   so applying p to a vector x gives y with y.(k) = x.(p.(k)), i.e. y = P x
   where row k of P has its 1 in column p.(k). Fill-reducing orderings in
   [Ordering] return permutations in this convention. *)

type t = int array

let identity n = Array.init n (fun i -> i)

let is_valid p =
  let n = Array.length p in
  let seen = Array.make n false in
  let ok = ref true in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then ok := false else seen.(i) <- true)
    p;
  !ok

let inverse p =
  let n = Array.length p in
  let q = Array.make n 0 in
  for k = 0 to n - 1 do
    q.(p.(k)) <- k
  done;
  q

(* y.(k) = x.(p.(k)) *)
let apply_vec p x =
  if Array.length p <> Array.length x then invalid_arg "Perm.apply_vec";
  Array.map (fun i -> x.(i)) p

(* Inverse application: y.(p.(k)) = x.(k). *)
let apply_inv_vec p x =
  if Array.length p <> Array.length x then invalid_arg "Perm.apply_inv_vec";
  let y = Array.make (Array.length x) 0.0 in
  Array.iteri (fun k i -> y.(i) <- x.(k)) p;
  y

let compose p q = Array.map (fun i -> q.(i)) p

(* B = P A P^T for a square matrix stored in full (not triangular) form:
   B.(knew, jnew) = A.(p.(knew), p.(jnew)). *)
let symmetric_permute p (a : Csc.t) =
  if a.Csc.nrows <> a.Csc.ncols then invalid_arg "Perm.symmetric_permute";
  let n = a.Csc.nrows in
  if Array.length p <> n then
    invalid_arg "Perm.symmetric_permute: permutation length does not match n";
  if not (is_valid p) then
    invalid_arg "Perm.symmetric_permute: not a valid permutation of [0, n)";
  let pinv = inverse p in
  let tr = Triplet.create ~nrows:n ~ncols:n () in
  Csc.iter a (fun i j v -> Triplet.add tr pinv.(i) pinv.(j) v);
  Csc.of_triplet tr

(* Shared builder for the two permute-with-gather-map operations below:
   source entry [q] lands at (rows.(q), cols.(q)); the result's entry [k]
   reads its value from [values.(map.(k))] of the source matrix.
   Column-major counting sort followed by an in-column sort keeps rows
   strictly increasing. *)
let build_permuted ~n ~(rows : int array) ~(cols : int array)
    (src_values : float array) =
  let nnz = Array.length rows in
  let colptr = Array.make (n + 1) 0 in
  for q = 0 to nnz - 1 do
    colptr.(cols.(q)) <- colptr.(cols.(q)) + 1
  done;
  let _ = Utils.cumsum colptr in
  let next = Array.sub colptr 0 n in
  let rowind = Array.make nnz 0 and map = Array.make nnz 0 in
  for q = 0 to nnz - 1 do
    let c = cols.(q) in
    let slot = next.(c) in
    next.(c) <- slot + 1;
    rowind.(slot) <- rows.(q);
    map.(slot) <- q
  done;
  (* Sort each column by row, carrying the map along (compile-time code;
     columns are short, insertion sort suffices and allocates nothing). *)
  for c = 0 to n - 1 do
    for k = colptr.(c) + 1 to colptr.(c + 1) - 1 do
      let r = rowind.(k) and m = map.(k) in
      let i = ref (k - 1) in
      while !i >= colptr.(c) && rowind.(!i) > r do
        rowind.(!i + 1) <- rowind.(!i);
        map.(!i + 1) <- map.(!i);
        decr i
      done;
      rowind.(!i + 1) <- r;
      map.(!i + 1) <- m
    done
  done;
  let values = Array.make nnz 0.0 in
  for k = 0 to nnz - 1 do
    values.(k) <- src_values.(map.(k))
  done;
  (Csc.create ~nrows:n ~ncols:n ~colptr ~rowind ~values, map)

let check_square_perm ~who p (a : Csc.t) =
  if a.Csc.nrows <> a.Csc.ncols then invalid_arg who;
  if Array.length p <> a.Csc.ncols then
    invalid_arg (who ^ ": permutation length does not match n");
  if not (is_valid p) then
    invalid_arg (who ^ ": not a valid permutation of [0, n)")

(* B = P A P^T with a gather map: entry [q] of B takes its value from
   [a.values.(map.(q))], so a steady-state caller can refresh B's values
   with one allocation-free gather when A's values change. *)
let permute_pattern p (a : Csc.t) : Csc.t * int array =
  check_square_perm ~who:"Perm.permute_pattern" p a;
  let pinv = inverse p in
  let nnz = Csc.nnz a in
  let rows = Array.make nnz 0 and cols = Array.make nnz 0 in
  for j = 0 to a.Csc.ncols - 1 do
    for q = a.Csc.colptr.(j) to a.Csc.colptr.(j + 1) - 1 do
      rows.(q) <- pinv.(a.Csc.rowind.(q));
      cols.(q) <- pinv.(j)
    done
  done;
  build_permuted ~n:a.Csc.ncols ~rows ~cols a.Csc.values

(* lower(P sym(A) P^T) from lower(A), with the same gather-map contract:
   each stored lower entry (i, j), i >= j, lands at
   (max(pinv i, pinv j), min(pinv i, pinv j)) — the permuted coordinates
   folded back into the lower triangle. *)
let permute_lower p (a_lower : Csc.t) : Csc.t * int array =
  check_square_perm ~who:"Perm.permute_lower" p a_lower;
  let pinv = inverse p in
  let nnz = Csc.nnz a_lower in
  let rows = Array.make nnz 0 and cols = Array.make nnz 0 in
  for j = 0 to a_lower.Csc.ncols - 1 do
    for q = a_lower.Csc.colptr.(j) to a_lower.Csc.colptr.(j + 1) - 1 do
      let i = a_lower.Csc.rowind.(q) in
      if i < j then
        invalid_arg "Perm.permute_lower: input is not lower triangular";
      let r = pinv.(i) and c = pinv.(j) in
      rows.(q) <- (if r > c then r else c);
      cols.(q) <- (if r > c then c else r)
    done
  done;
  build_permuted ~n:a_lower.Csc.ncols ~rows ~cols a_lower.Csc.values

let random rng n =
  let p = identity n in
  Utils.Rng.shuffle rng p;
  p
