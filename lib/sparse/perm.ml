(* Permutations. Convention: a permutation [p] maps new index -> old index,
   so applying p to a vector x gives y with y.(k) = x.(p.(k)), i.e. y = P x
   where row k of P has its 1 in column p.(k). Fill-reducing orderings in
   [Ordering] return permutations in this convention. *)

open Ix

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

(* The inverse of a caller's permutation, checked in the same pass: every
   index in range and taken once. *)
let checked_inverse ~who p n =
  if Array.length p <> n then
    invalid_arg (who ^ ": permutation length does not match n");
  let q = Array.make n (-1) in
  for k = 0 to n - 1 do
    let i = p.(k) in
    if i < 0 || i >= n || q.(i) >= 0 then
      invalid_arg (who ^ ": not a valid permutation of [0, n)");
    q.(i) <- k
  done;
  q

(* B = P A P^T with a gather map: entry [q] of B takes its value from
   [a.values.(map.(q))], so a steady-state caller can refresh B's values
   with one allocation-free gather when A's values change. Two counting
   passes, unchecked behind the input check: bucket the entries by
   permuted row, then walk the rows in order and place each entry in its
   permuted column, so every column's rows come out ascending. *)
let permute_pattern p (a : Csc.t) : Csc.t * int array =
  let who = "Perm.permute_pattern" in
  Csc.check ~who ~square:true a;
  let n = a.Csc.ncols in
  let pinv = checked_inverse ~who p n in
  let cp = a.Csc.colptr and ri = a.Csc.rowind and av = a.Csc.values in
  let nz = cp.(n) in
  let rowptr = Array.make (n + 1) 0 in
  for q = 0 to nz - 1 do
    let r = pinv.!(ri.!(q)) in
    rowptr.!(r) <- rowptr.!(r) + 1
  done;
  let _ = Utils.cumsum rowptr in
  let next = Array.sub rowptr 0 n in
  let colptr = Array.make (n + 1) 0 in
  let bcol = Array.make nz 0 and bsrc = Array.make nz 0 in
  for j = 0 to n - 1 do
    let c = pinv.!(j) in
    colptr.!(c) <- cp.!(j + 1) - cp.!(j);
    for q = cp.!(j) to cp.!(j + 1) - 1 do
      let r = pinv.!(ri.!(q)) in
      let s = next.!(r) in
      bcol.!(s) <- c;
      bsrc.!(s) <- q;
      next.!(r) <- s + 1
    done
  done;
  let _ = Utils.cumsum colptr in
  Array.blit colptr 0 next 0 n;
  let rowind = Array.make nz 0 and map = Array.make nz 0 in
  let values = Array.make nz 0.0 in
  for r = 0 to n - 1 do
    for s = rowptr.!(r) to rowptr.!(r + 1) - 1 do
      let c = bcol.!(s) in
      let k = next.!(c) in
      rowind.!(k) <- r;
      map.!(k) <- bsrc.!(s);
      values.!.(k) <- av.!.(bsrc.!(s));
      next.!(c) <- k + 1
    done
  done;
  ({ Csc.nrows = n; ncols = n; colptr; rowind; values }, map)

(* lower(P sym(A) P^T) from lower(A), with the same gather-map contract:
   each stored lower entry (i, j), i >= j, lands at
   (max(pinv i, pinv j), min(pinv i, pinv j)) — the permuted coordinates
   folded back into the lower triangle. [Csc.Unsafe.permute_lower] builds
   it, behind the input check. *)
let permute_lower p (a_lower : Csc.t) : Csc.t * int array =
  let who = "Perm.permute_lower" in
  let l = Csc.Unsafe.check_lower ~who ~values:true a_lower in
  let pinv = checked_inverse ~who p a_lower.Csc.ncols in
  let b, map, _ = Csc.Unsafe.permute_lower ~who ~pinv l in
  ((b :> Csc.t), map)

let random rng n =
  let p = identity n in
  Utils.Rng.shuffle rng p;
  p
