(* Fill-reducing orderings. CHOLMOD applies AMD before factorizing; we
   provide reverse Cuthill-McKee (bandwidth reduction), a plain greedy
   minimum-degree ordering (the test oracle), and an approximate minimum
   degree (AMD) on a quotient graph — the default fill-reducing ordering
   of the compile pipeline. All are usable through
   [Perm.symmetric_permute]. Input is the full symmetric matrix. *)

open Ix

(* CSR adjacency (excluding self loops) of the symmetric pattern: vertex
   [v]'s neighbors are [ind.(ptr.(v) .. ptr.(v+1)-1)], ascending. Since the
   input is symmetric, each column IS a neighbor list, and CSC's
   strictly-increasing-rows invariant means no sorting or deduplication is
   needed — one counting pass and one fill pass, O(n + nnz) flat arrays
   instead of n boxed lists. Unchecked behind the callers' input check. *)
let adjacency_of_full (a : Csc.t) : int array * int array =
  let n = a.Csc.ncols and cp = a.Csc.colptr and ri = a.Csc.rowind in
  let ptr = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    let c = ref 0 in
    for p = cp.!(j) to cp.!(j + 1) - 1 do
      if ri.!(p) <> j then incr c
    done;
    ptr.!(j) <- !c
  done;
  let total = Utils.cumsum ptr in
  let ind = Array.make (max 1 total) 0 in
  let q = ref 0 in
  for j = 0 to n - 1 do
    for p = cp.!(j) to cp.!(j + 1) - 1 do
      let i = ri.!(p) in
      if i <> j then begin
        ind.!(!q) <- i;
        incr q
      end
    done
  done;
  (ptr, ind)

let check_square ~who a = Csc.check ~who ~values:false ~square:true a

let adjacency_csr (a : Csc.t) : int array * int array =
  check_square ~who:"Ordering.adjacency_csr" a;
  adjacency_of_full a

(* The same adjacency of sym(A), read from a checked lower(A) with no
   symmetrized copy: vertex [v]'s neighbours are the columns [j < v] whose
   column stores row [v] (the mirror images, appended as the columns are
   scanned in order, hence ascending), then the rows [i > v] of its own
   column (ascending). That is column [v] of [Csc.symmetrize_from_lower]
   without the diagonal, so the lists, and the ordering run on them, are
   identical. *)
let adjacency_of_lower (l : Csc.Unsafe.checked_lower) : int array * int array =
  let a = (l :> Csc.t) in
  let n = a.Csc.ncols and cp = a.Csc.colptr and ri = a.Csc.rowind in
  let ptr = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    for p = cp.!(j) to cp.!(j + 1) - 1 do
      let i = ri.!(p) in
      if i <> j then begin
        ptr.!(i) <- ptr.!(i) + 1;
        ptr.!(j) <- ptr.!(j) + 1
      end
    done
  done;
  let total = Utils.cumsum ptr in
  let ind = Array.make (max 1 total) 0 in
  let next = Array.sub ptr 0 n in
  for j = 0 to n - 1 do
    for p = cp.!(j) to cp.!(j + 1) - 1 do
      let i = ri.!(p) in
      if i > j then begin
        let q = next.!(i) in
        ind.!(q) <- j;
        next.!(i) <- q + 1
      end
    done
  done;
  for j = 0 to n - 1 do
    let q = ref next.!(j) in
    for p = cp.!(j) to cp.!(j + 1) - 1 do
      let i = ri.!(p) in
      if i > j then begin
        ind.!(!q) <- i;
        incr q
      end
    done
  done;
  (ptr, ind)

(* List view of the same adjacency (the greedy min-degree oracle below and
   a few tests want lists). *)
let adjacency (a : Csc.t) =
  let ptr, ind = adjacency_csr a in
  Array.init (Array.length ptr - 1) (fun v ->
      List.init (ptr.(v + 1) - ptr.(v)) (fun k -> ind.(ptr.(v) + k)))

(* Reverse Cuthill-McKee. BFS from a pseudo-peripheral vertex of each
   connected component, visiting neighbors in increasing-degree order, then
   reverse. The pseudo-peripheral search follows George & Liu: it starts
   from a minimum-degree vertex of the component and breaks farthest-level
   ties by minimum degree, both of which matter for bandwidth quality on
   multi-component problems. Returns a permutation in the [Perm] new->old
   convention. *)
let rcm (a : Csc.t) : Perm.t =
  Sympiler_metrics.Metrics.(inc orderings 1);
  let n = a.Csc.ncols in
  let aptr, aind = adjacency_csr a in
  let degree = Array.init n (fun v -> aptr.(v + 1) - aptr.(v)) in
  let visited = Array.make n false in
  let order = Array.make n 0 in
  let pos = ref 0 in
  (* Workspaces shared by every BFS sweep: a flat int-array queue and a
     distance array whose reset walks only the queue prefix (the vertices
     the sweep actually touched). A sweep therefore costs O(component +
     its edges), not O(n) — the pseudo-peripheral iteration runs several
     sweeps per component, which on a many-component matrix used to add up
     to quadratic allocation and clearing. *)
  let q = Array.make (max 1 n) 0 in
  let dist = Array.make n (-1) in
  let nbuf = Array.make (max 1 n) 0 in
  let bfs_levels root =
    (* Farthest vertex of the BFS tree from [root] and its eccentricity;
       among the vertices of the last level the one of minimum degree is
       returned (the George-Liu shrinking step). *)
    let head = ref 0 and tail = ref 0 in
    q.(!tail) <- root;
    incr tail;
    dist.(root) <- 0;
    let far = ref root in
    while !head < !tail do
      let u = q.(!head) in
      incr head;
      if
        dist.(u) > dist.(!far)
        || (dist.(u) = dist.(!far) && degree.(u) < degree.(!far))
      then far := u;
      for p = aptr.(u) to aptr.(u + 1) - 1 do
        let v = aind.(p) in
        if dist.(v) < 0 && not visited.(v) then begin
          dist.(v) <- dist.(u) + 1;
          q.(!tail) <- v;
          incr tail
        end
      done
    done;
    let ecc = dist.(!far) in
    for k = 0 to !tail - 1 do
      dist.(q.(k)) <- -1
    done;
    (!far, ecc)
  in
  let pseudo_peripheral root =
    let rec go root ecc =
      let far, ecc' = bfs_levels root in
      if ecc' > ecc then go far ecc' else root
    in
    go root (-1)
  in
  (* [seen] marks vertices already assigned to a component, so the
     component sweep below touches each vertex once overall. *)
  let seen = Array.make n false in
  for seed = 0 to n - 1 do
    if not visited.(seed) then begin
      (* Collect the component and find its minimum-degree vertex: the
         pseudo-peripheral iteration converges to a much better diameter
         endpoint from there than from an arbitrary seed. *)
      let best = ref seed in
      let head = ref 0 and tail = ref 0 in
      seen.(seed) <- true;
      q.(!tail) <- seed;
      incr tail;
      while !head < !tail do
        let u = q.(!head) in
        incr head;
        if
          degree.(u) < degree.(!best)
          || (degree.(u) = degree.(!best) && u < !best)
        then best := u;
        for p = aptr.(u) to aptr.(u + 1) - 1 do
          let v = aind.(p) in
          if not seen.(v) then begin
            seen.(v) <- true;
            q.(!tail) <- v;
            incr tail
          end
        done
      done;
      let root = pseudo_peripheral !best in
      let head = ref 0 and tail = ref 0 in
      visited.(root) <- true;
      q.(!tail) <- root;
      incr tail;
      while !head < !tail do
        let u = q.(!head) in
        incr head;
        order.(!pos) <- u;
        incr pos;
        (* Enqueue unvisited neighbors by increasing degree, ties by index.
           Sorting the packed keys [degree*n + v] reproduces exactly the
           stable by-degree list sort over an ascending neighbor list that
           this loop previously performed (keys are unique, so the
           unstable in-place sort gives the same order). *)
        let m = ref 0 in
        for p = aptr.(u) to aptr.(u + 1) - 1 do
          let v = aind.(p) in
          if not visited.(v) then begin
            nbuf.(!m) <- (degree.(v) * n) + v;
            incr m
          end
        done;
        Utils.sort_int_range nbuf 0 !m;
        for k = 0 to !m - 1 do
          let v = nbuf.(k) mod n in
          visited.(v) <- true;
          q.(!tail) <- v;
          incr tail
        done
      done
    end
  done;
  assert (!pos = n);
  (* Reverse for RCM. *)
  let p = Array.make n 0 in
  for k = 0 to n - 1 do
    p.(k) <- order.(n - 1 - k)
  done;
  p

module Iset = Set.Make (Int)

(* Greedy minimum-degree ordering on the elimination graph. Quadratic-ish in
   the worst case (no quotient-graph machinery); kept as the exact-degree
   test oracle that [amd] is measured against. *)
let min_degree (a : Csc.t) : Perm.t =
  Sympiler_metrics.Metrics.(inc orderings 1);
  let n = a.Csc.ncols in
  let adj = Array.map Iset.of_list (adjacency a) in
  let eliminated = Array.make n false in
  let order = Array.make n 0 in
  for k = 0 to n - 1 do
    (* Pick the uneliminated vertex of minimum current degree. *)
    let best = ref (-1) and best_deg = ref max_int in
    for v = 0 to n - 1 do
      if not eliminated.(v) then begin
        let d = Iset.cardinal adj.(v) in
        if d < !best_deg then begin
          best := v;
          best_deg := d
        end
      end
    done;
    let v = !best in
    order.(k) <- v;
    eliminated.(v) <- true;
    (* Eliminate v: its neighbors become a clique. *)
    let nbrs = adj.(v) in
    Iset.iter
      (fun u ->
        adj.(u) <- Iset.remove v (Iset.union adj.(u) (Iset.remove u nbrs)))
      nbrs;
    adj.(v) <- Iset.empty
  done;
  order

(* Approximate minimum degree (Amestoy, Davis & Duff) on a quotient graph.
   Instead of forming the elimination graph's cliques explicitly, an
   eliminated pivot [p] becomes an *element* whose member list L_p records
   the variables it couples; a variable's neighborhood is its remaining
   variable list A_v plus the union of its element lists. Degrees are the
   ADD external-degree approximation computed with the w(e) = |L_e \ L_p|
   trick, so one pivot's update costs O(sum of its members' list lengths)
   rather than a clique formation. Supervariables (indistinguishable
   variables detected by hashing) and mass elimination keep the graph
   shrinking; elements absorbed by a new pivot die immediately, as do
   elements whose members are all inside the new pivot's element
   (aggressive absorption). Node ids are shared between variables and
   elements — a node is exactly one of the two, per [state]. *)
(* Int-typed min/max: [Stdlib.min]/[max] are polymorphic and compare
   through the runtime. *)
let imin (a : int) b = if a < b then a else b
let imax (a : int) b = if a > b then a else b

let amd_core n (aptr : int array) (aind : int array) : Perm.t =
  Sympiler_metrics.Metrics.(inc orderings 1);
  if n = 0 then [||]
  else begin
    (* Variable lists A_v live in place in the CSR adjacency: A_v is
       [aind.(aptr.(v) .. aptr.(v) + alen.(v) - 1)] and only ever shrinks,
       so pruning compacts it inside its own segment. *)
    let alen = Array.init n (fun v -> aptr.!(v + 1) - aptr.!(v)) in
    let elist = Array.make n [||] in
    let elen = Array.make n 0 in
    let emem = Array.make n [||] in
    let emlen = Array.make n 0 in
    let nv = Array.make n 1 in
    (* 0 = live (principal) variable, 1 = element, 2 = dead (absorbed
       supervariable, mass-eliminated variable, or absorbed element). *)
    let state = Array.make n 0 in
    let parent = Array.make n (-1) in
    let deg = Array.copy alen in
    (* Degree buckets: doubly-linked lists per degree with a rising
       minimum-degree pointer. *)
    let head = Array.make n (-1) in
    let dnext = Array.make n (-1) in
    let dprev = Array.make n (-1) in
    let inbucket = Array.make n (-1) in
    let mindeg = ref 0 in
    let bucket_insert v d =
      let d = if d >= n then n - 1 else if d < 0 then 0 else d in
      inbucket.!(v) <- d;
      dprev.!(v) <- -1;
      dnext.!(v) <- head.!(d);
      if head.!(d) >= 0 then dprev.!(head.!(d)) <- v;
      head.!(d) <- v;
      if d < !mindeg then mindeg := d
    in
    let bucket_remove v =
      let d = inbucket.!(v) in
      if d >= 0 then begin
        if dprev.!(v) >= 0 then dnext.!(dprev.!(v)) <- dnext.!(v)
        else head.!(d) <- dnext.!(v);
        if dnext.!(v) >= 0 then dprev.!(dnext.!(v)) <- dprev.!(v);
        inbucket.!(v) <- -1
      end
    in
    for v = 0 to n - 1 do
      bucket_insert v deg.!(v)
    done;
    (* Supervariable hash groups: singly-linked lists per hash key,
       prepended to (so a group lists its members newest first) and
       emptied as each pivot's groups are scanned. [hkey.(v)] is v's key
       at the current pivot, or -1 when v was not hashed. *)
    let hhead = Array.make n (-1) in
    let hnext = Array.make n (-1) in
    let hkey = Array.make n (-1) in
    (* Iteration-stamped workspaces: a fresh stamp value replaces clearing
       the mark arrays between pivots. *)
    let stamp = Array.make n 0 in
    let wstamp = Array.make n 0 in
    let w = Array.make n 0 in
    let cur = ref 0 in
    (* The pivot's members in the order they are gathered. *)
    let mbuf = Array.make n 0 in
    let nm = ref 0 and dmass = ref 0 in
    let add v =
      if state.!(v) = 0 && nv.!(v) > 0 && stamp.!(v) <> !cur then begin
        stamp.!(v) <- !cur;
        mbuf.!(!nm) <- v;
        incr nm;
        dmass := !dmass + nv.!(v)
      end
    in
    let push_elem v e =
      let cap = Array.length elist.(v) in
      if elen.!(v) = cap then begin
        let grown = Array.make (max 4 (2 * cap)) 0 in
        Array.blit elist.(v) 0 grown 0 cap;
        elist.(v) <- grown
      end;
      elist.(v).!(elen.!(v)) <- e;
      elen.!(v) <- elen.!(v) + 1
    in
    let norder = ref 0 in
    let pivots = ref [] in
    while !norder < n do
      while head.!(!mindeg) < 0 do
        incr mindeg
      done;
      let p = head.!(!mindeg) in
      bucket_remove p;
      pivots := p :: !pivots;
      (* Form the pivot element L_p = (A_p U union of its elements'
         members) minus p and the dead; absorb those elements. *)
      incr cur;
      let c = !cur in
      stamp.!(p) <- c;
      nm := 0;
      dmass := 0;
      for k = 0 to alen.!(p) - 1 do
        add aind.!(aptr.!(p) + k)
      done;
      let ep = elist.(p) in
      for k = 0 to elen.!(p) - 1 do
        let e = ep.!(k) in
        if state.!(e) = 1 then begin
          let me = emem.(e) in
          for m = 0 to emlen.!(e) - 1 do
            add me.!(m)
          done;
          state.!(e) <- 2
        end
      done;
      (* L_p lists the members newest first. *)
      let nlp = !nm in
      let lp = Array.make nlp 0 in
      for k = 0 to nlp - 1 do
        lp.!(k) <- mbuf.!(nlp - 1 - k)
      done;
      let dp = !dmass in
      state.!(p) <- 1;
      emem.(p) <- lp;
      emlen.!(p) <- nlp;
      alen.!(p) <- 0;
      elen.!(p) <- 0;
      norder := !norder + nv.!(p);
      (* w(e) pass: after it, w.(e) = |L_e \ L_p| in supervariable mass for
         every element adjacent to a member of L_p. Member lists are
         compacted (dead entries dropped) when first touched. *)
      incr cur;
      let cw = !cur in
      for t = 0 to nlp - 1 do
        let v = lp.!(t) in
        let ev = elist.(v) in
        for k = 0 to elen.!(v) - 1 do
          let e = ev.!(k) in
          if state.!(e) = 1 then begin
            if wstamp.!(e) <> cw then begin
              let len = ref 0 and sz = ref 0 in
              let me = emem.(e) in
              for m = 0 to emlen.!(e) - 1 do
                let u = me.!(m) in
                if state.!(u) = 0 && nv.!(u) > 0 then begin
                  me.!(!len) <- u;
                  incr len;
                  sz := !sz + nv.!(u)
                end
              done;
              emlen.!(e) <- !len;
              w.!(e) <- !sz;
              wstamp.!(e) <- cw
            end;
            w.!(e) <- w.!(e) - nv.!(v)
          end
        done
      done;
      (* Update pass over the pivot's members: prune A_v and E_v, apply
         aggressive absorption, recompute the approximate degree, detect
         mass eliminations, and hash for supervariable detection. *)
      for t = 0 to nlp - 1 do
        let v = lp.!(t) in
        let base = aptr.!(v) in
        let len = ref 0 and asz = ref 0 and h = ref p in
        for k = 0 to alen.!(v) - 1 do
          let u = aind.!(base + k) in
          if state.!(u) = 0 && nv.!(u) > 0 && stamp.!(u) <> c then begin
            aind.!(base + !len) <- u;
            incr len;
            asz := !asz + nv.!(u);
            h := !h + u
          end
        done;
        alen.!(v) <- !len;
        let el = ref 0 and sumw = ref 0 in
        let ev = elist.(v) in
        for k = 0 to elen.!(v) - 1 do
          let e = ev.!(k) in
          if state.!(e) = 1 then begin
            if wstamp.!(e) = cw && w.!(e) <= 0 then
              (* Aggressive absorption: every live member of e is inside
                 L_p, so element e is redundant from now on. *)
              state.!(e) <- 2
            else begin
              ev.!(!el) <- e;
              incr el;
              sumw := !sumw + (if wstamp.!(e) = cw then w.!(e) else 0);
              h := !h + e
            end
          end
        done;
        elen.!(v) <- !el;
        push_elem v p;
        bucket_remove v;
        hkey.!(v) <- -1;
        if alen.!(v) = 0 && elen.!(v) = 1 then begin
          (* Mass elimination: v's neighborhood is exactly L_p, so it can
             be eliminated with p at no extra fill; it is emitted right
             after p in the output ordering. *)
          state.!(v) <- 2;
          parent.!(v) <- p;
          norder := !norder + nv.!(v);
          nv.!(v) <- 0
        end
        else begin
          let ext_p = dp - nv.!(v) in
          let d_new =
            imin (n - !norder) (imin (deg.!(v) + ext_p) (ext_p + !sumw + !asz))
          in
          deg.!(v) <- imax 0 d_new;
          let r = !h mod n in
          let key = if r < 0 then r + n else r in
          hkey.!(v) <- key;
          hnext.!(v) <- hhead.!(key);
          hhead.!(key) <- v
        end
      done;
      (* Supervariable detection within each hash group: exact set
         comparison of the pruned (A, E) lists via stamping; [vj] merges
         into [vi] and is emitted adjacent to it at output time. Groups
         are disjoint, so the order they are scanned in does not matter;
         each is scanned once, from its first member in L_p. *)
      for t = 0 to nlp - 1 do
        let key = hkey.!(lp.!(t)) in
        if key >= 0 && hhead.!(key) >= 0 then begin
          let vi = ref hhead.!(key) in
          hhead.!(key) <- -1;
          while !vi >= 0 do
            let vi' = !vi in
            if state.!(vi') = 0 && nv.!(vi') > 0 then begin
              let stamped = ref false in
              let vj = ref hnext.!(vi') in
              while !vj >= 0 do
                let vj' = !vj in
                if
                  state.!(vj') = 0
                  && nv.!(vj') > 0
                  && alen.!(vi') = alen.!(vj')
                  && elen.!(vi') = elen.!(vj')
                then begin
                  if not !stamped then begin
                    incr cur;
                    for k = 0 to alen.!(vi') - 1 do
                      stamp.!(aind.!(aptr.!(vi') + k)) <- !cur
                    done;
                    let ei = elist.(vi') in
                    for k = 0 to elen.!(vi') - 1 do
                      stamp.!(ei.!(k)) <- !cur
                    done;
                    stamped := true
                  end;
                  let same = ref true in
                  for k = 0 to alen.!(vj') - 1 do
                    if stamp.!(aind.!(aptr.!(vj') + k)) <> !cur then same := false
                  done;
                  let ej = elist.(vj') in
                  for k = 0 to elen.!(vj') - 1 do
                    if stamp.!(ej.!(k)) <> !cur then same := false
                  done;
                  if !same then begin
                    let mass = nv.!(vj') in
                    nv.!(vi') <- nv.!(vi') + mass;
                    nv.!(vj') <- 0;
                    state.!(vj') <- 2;
                    parent.!(vj') <- vi';
                    bucket_remove vj';
                    deg.!(vi') <- imax 0 (deg.!(vi') - mass)
                  end
                end;
                vj := hnext.!(vj')
              done
            end;
            vi := hnext.!(vi')
          done
        end
      done;
      (* Reinsert the surviving members with their updated degrees. *)
      for t = 0 to nlp - 1 do
        let v = lp.!(t) in
        if state.!(v) = 0 && nv.!(v) > 0 then bucket_insert v deg.!(v)
      done
    done;
    (* Output: pivots in elimination order; each absorbed or
       mass-eliminated node is emitted right after the node that absorbed
       it (the absorption forest rooted at the pivots). *)
    let children = Array.make n [] in
    for x = n - 1 downto 0 do
      let px = parent.!(x) in
      if px >= 0 then children.(px) <- x :: children.(px)
    done;
    let perm = Array.make n 0 in
    let pos = ref 0 in
    let rec emit x =
      perm.!(!pos) <- x;
      incr pos;
      List.iter emit children.(x)
    in
    List.iter emit (List.rev !pivots);
    assert (!pos = n);
    perm
  end

let amd (a : Csc.t) : Perm.t =
  check_square ~who:"Ordering.amd" a;
  let aptr, aind = adjacency_of_full a in
  amd_core a.Csc.ncols aptr aind

(* AMD for the facade's compile path, which has checked lower(A) once
   ([Csc.Unsafe]). *)
module Unsafe = struct
  let amd_lower (l : Csc.Unsafe.checked_lower) : Perm.t =
    let aptr, aind = adjacency_of_lower l in
    amd_core (l :> Csc.t).Csc.ncols aptr aind
end

(* Bandwidth of the symmetric pattern: used to test that RCM reduces it. *)
let bandwidth (a : Csc.t) =
  let b = ref 0 in
  Csc.iter a (fun i j _ -> b := max !b (abs (i - j)));
  !b
