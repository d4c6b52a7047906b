(* Small numeric and array helpers shared across the sparse substrate. *)

let feq ?(eps = 1e-9) a b =
  let d = Float.abs (a -. b) in
  d <= eps || d <= eps *. Float.max (Float.abs a) (Float.abs b)

(* Relative residual ||a - b||_inf / max(1, ||a||_inf) over float arrays. *)
let max_rel_diff a b =
  if Array.length a <> Array.length b then invalid_arg "max_rel_diff: length";
  let scale = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 1.0 a in
  let d = ref 0.0 in
  Array.iteri (fun i x -> d := Float.max !d (Float.abs (x -. b.(i)))) a;
  !d /. scale

let array_is_sorted_strict (a : int array) lo hi =
  let i = ref lo in
  while !i < hi - 1 && a.(!i) < a.(!i + 1) do
    incr i
  done;
  !i >= hi - 1

(* Exclusive prefix sum: turns per-bucket counts into offsets, in place,
   returning the total. counts has length n+1; counts.(n) receives total. *)
let cumsum counts =
  let n = Array.length counts - 1 in
  let total = ref 0 in
  for i = 0 to n - 1 do
    let c = counts.(i) in
    counts.(i) <- !total;
    total := !total + c
  done;
  counts.(n) <- !total;
  !total

(* In-place ascending sort of a.(lo..hi-1). Monomorphic quicksort (no
   polymorphic compare, no allocation): median-of-three pivots, insertion
   sort below a small cutoff, recursion only on the smaller side so the
   stack stays O(log n) even on adversarial inputs. *)
let sort_int_range (a : int array) lo hi =
  let insertion lo hi =
    for p = lo + 1 to hi - 1 do
      let v = a.(p) in
      let q = ref p in
      while !q > lo && a.(!q - 1) > v do
        a.(!q) <- a.(!q - 1);
        decr q
      done;
      a.(!q) <- v
    done
  in
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let rec qsort lo hi =
    if hi - lo <= 16 then insertion lo hi
    else begin
      let mid = lo + ((hi - lo) / 2) in
      (* Median-of-three into a.(lo). *)
      if a.(mid) < a.(lo) then swap mid lo;
      if a.(hi - 1) < a.(lo) then swap (hi - 1) lo;
      if a.(hi - 1) < a.(mid) then swap (hi - 1) mid;
      let pivot = a.(mid) in
      let i = ref lo and j = ref (hi - 1) in
      while !i <= !j do
        while a.(!i) < pivot do
          incr i
        done;
        while a.(!j) > pivot do
          decr j
        done;
        if !i <= !j then begin
          swap !i !j;
          incr i;
          decr j
        end
      done;
      (* Recurse on the smaller partition first, loop on the larger. *)
      if !j + 1 - lo < hi - !i then begin
        qsort lo (!j + 1);
        qsort !i hi
      end
      else begin
        qsort !i hi;
        qsort lo (!j + 1)
      end
    end
  in
  if hi - lo > 1 then qsort lo hi

let int_array_equal a b =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (a.(i) = b.(i) && go (i + 1)) in
  go 0

(* Deterministic splitmix64-based PRNG; avoids Stdlib.Random so every test,
   example and benchmark is reproducible across runs and OCaml versions. *)
module Rng = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int seed }

  let next_int64 t =
    let open Int64 in
    t.state <- add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  (* Uniform in [0, bound), by rejection sampling: a bare [r mod bound]
     over-weights small residues whenever bound does not divide the draw
     range. Draws land uniformly in [0, max_int] (62 random bits), so we
     reject the top [((max_int mod bound) + 1) mod bound] values; for the
     small bounds used here the rejection probability is ~bound/2^62, so
     streams from existing seeds are unchanged in practice. *)
  let rec int t bound =
    if bound <= 0 then invalid_arg "Rng.int: bound";
    let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
    let rem = ((max_int mod bound) + 1) mod bound in
    if r > max_int - rem then int t bound else r mod bound

  (* Uniform in [0, 1). *)
  let float t =
    let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
    r /. 9007199254740992.0 (* 2^53 *)

  (* Uniform in [lo, hi). *)
  let float_range t lo hi = lo +. ((hi -. lo) *. float t)

  (* Fisher-Yates shuffle of an int array prefix [0, len). *)
  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done
end
