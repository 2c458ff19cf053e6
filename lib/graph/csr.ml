(* Flat CSR bipartite instance with an in-place builder.

   The pending edge list ([e_left]/[e_right], insertion order) is the
   source of truth; [row_start]/[col] are a derived row-major view
   rebuilt by [finalize] whenever edges were added since the last
   rebuild.  All buffers grow by amortised doubling and are never
   shrunk, so a caller that [reset]s and refills the same instance every
   round stops allocating once the buffers reach their high-water
   mark. *)

type t = {
  mutable n_left : int;
  mutable n_right : int;
  mutable row_start : int array; (* entries 0 .. n_left are meaningful *)
  mutable col : int array; (* entries 0 .. n_edges - 1 are meaningful *)
  mutable n_edges : int;
  mutable right_cap : int array; (* entries 0 .. n_right - 1 *)
  (* pending edges, in insertion order *)
  mutable e_left : int array;
  mutable e_right : int array;
  mutable n_pending : int;
  (* scratch for finalize *)
  mutable cursor : int array; (* per-left counting-sort cursors *)
  mutable rcnt : int array; (* per-right counting-sort cursors *)
  mutable order : int array; (* pending-edge ids sorted by right *)
  mutable dirty : bool;
  (* delta rebuilds: double buffers swapped by [rebuild_rows] *)
  mutable col_alt : int array;
  mutable row_start_alt : int array;
  mutable frozen : bool; (* true after [rebuild_rows]: pending list is stale *)
}

let next_cap n =
  let c = ref 8 in
  while !c < n do
    c := 2 * !c
  done;
  !c

(* Grown buffers start zeroed and old contents are irrelevant after a
   rebuild, so plain [Array.make] (no blit) suffices for scratch; the
   pending-edge buffers do need their prefix preserved. *)
let ensure a n = if Array.length a >= n then a else Array.make (next_cap n) 0

let ensure_keep a n used =
  if Array.length a >= n then a
  else begin
    let a' = Array.make (next_cap n) 0 in
    Array.blit a 0 a' 0 used;
    a'
  end

let create () =
  {
    n_left = 0;
    n_right = 0;
    row_start = [| 0 |];
    col = [||];
    n_edges = 0;
    right_cap = [||];
    e_left = [||];
    e_right = [||];
    n_pending = 0;
    cursor = [||];
    rcnt = [||];
    order = [||];
    dirty = false;
    col_alt = [||];
    row_start_alt = [||];
    frozen = false;
  }

let reset t ~n_left ~n_right =
  if n_left < 0 || n_right < 0 then invalid_arg "Csr.reset: negative dimension";
  t.n_left <- n_left;
  t.n_right <- n_right;
  t.n_pending <- 0;
  t.n_edges <- 0;
  t.right_cap <- ensure t.right_cap n_right;
  Array.fill t.right_cap 0 n_right 0;
  t.row_start <- ensure t.row_start (n_left + 1);
  Array.fill t.row_start 0 (n_left + 1) 0;
  t.dirty <- false;
  t.frozen <- false

let set_right_cap t r c =
  if r < 0 || r >= t.n_right then invalid_arg "Csr.set_right_cap: right out of range";
  if c < 0 then invalid_arg "Csr.set_right_cap: negative capacity";
  t.right_cap.(r) <- c

let add_edge t ~left ~right =
  if t.frozen then
    invalid_arg "Csr.add_edge: instance is frozen after rebuild_rows (reset it first)";
  if left < 0 || left >= t.n_left then invalid_arg "Csr.add_edge: left out of range";
  if right < 0 || right >= t.n_right then invalid_arg "Csr.add_edge: right out of range";
  let n = t.n_pending in
  t.e_left <- ensure_keep t.e_left (n + 1) n;
  t.e_right <- ensure_keep t.e_right (n + 1) n;
  t.e_left.(n) <- left;
  t.e_right.(n) <- right;
  t.n_pending <- n + 1;
  t.dirty <- true

(* Two-pass stable counting sort (by right, then by left), so each
   finalized row lists its columns in ascending order — the same
   normal form as the legacy sorted adjacency view, which keeps the
   CSR and legacy solvers' tie-breaking aligned.  Sorted rows make
   the dedup a simple adjacent-equality compaction. *)
let finalize t =
  if t.dirty then begin
    let nl = t.n_left and nr = t.n_right and np = t.n_pending in
    let row_start = ensure t.row_start (nl + 1) in
    let col = ensure t.col np in
    let cursor = ensure t.cursor (max nl 1) in
    let rcnt = ensure t.rcnt (max nr 1) in
    let order = ensure t.order np in
    t.row_start <- row_start;
    t.col <- col;
    t.cursor <- cursor;
    t.rcnt <- rcnt;
    t.order <- order;
    (* pass 1: pending-edge ids, stably ordered by right endpoint *)
    Array.fill rcnt 0 nr 0;
    for i = 0 to np - 1 do
      let r = t.e_right.(i) in
      rcnt.(r) <- rcnt.(r) + 1
    done;
    let s = ref 0 in
    for r = 0 to nr - 1 do
      let c = rcnt.(r) in
      rcnt.(r) <- !s;
      s := !s + c
    done;
    for i = 0 to np - 1 do
      let r = t.e_right.(i) in
      order.(rcnt.(r)) <- i;
      rcnt.(r) <- rcnt.(r) + 1
    done;
    (* pass 2: stable by left endpoint; within a row, rights ascend *)
    Array.fill cursor 0 nl 0;
    for i = 0 to np - 1 do
      let l = t.e_left.(i) in
      cursor.(l) <- cursor.(l) + 1
    done;
    row_start.(0) <- 0;
    for l = 0 to nl - 1 do
      row_start.(l + 1) <- row_start.(l) + cursor.(l);
      cursor.(l) <- row_start.(l)
    done;
    for j = 0 to np - 1 do
      let i = order.(j) in
      let l = t.e_left.(i) in
      let pos = cursor.(l) in
      col.(pos) <- t.e_right.(i);
      cursor.(l) <- pos + 1
    done;
    (* in-place dedup of now-adjacent duplicates, compacting [col] and
       rewriting [row_start]; the write pointer never overtakes the
       read pointer because rows only shrink *)
    let w = ref 0 in
    for l = 0 to nl - 1 do
      let rb = row_start.(l) and re = row_start.(l + 1) in
      let row_begin = !w in
      for i = rb to re - 1 do
        let r = col.(i) in
        if !w = row_begin || col.(!w - 1) <> r then begin
          col.(!w) <- r;
          incr w
        end
      done;
      row_start.(l) <- row_begin
    done;
    row_start.(nl) <- !w;
    t.n_edges <- !w;
    t.dirty <- false
  end

(* Delta rebuild: produce the next round's finalized row view from the
   current one, copying unchanged rows wholesale and re-emitting only
   dirty ones.  Writes go to the alternate buffers, then the buffer
   pairs are swapped, so clean-row blits read stable memory.  The
   pending-edge list is NOT maintained, so the instance is [frozen]
   afterwards: [add_edge] refuses until the next [reset]. *)
let rebuild_rows t ~n_left ~src_of ~fill =
  finalize t;
  let old_row_start = t.row_start and old_col = t.col in
  let row_start = ensure t.row_start_alt (n_left + 1) in
  (* worst case: every dirty row rewritten plus all clean-row bytes; we
     grow [col_alt] incrementally as rows are emitted instead of
     precomputing, since dirty rows have unknown size until filled. *)
  let col = ref (ensure t.col_alt (max t.n_edges 8)) in
  let w = ref 0 in
  row_start.(0) <- 0;
  for l = 0 to n_left - 1 do
    let src = src_of l in
    if src >= 0 then begin
      (* clean row: blit the old segment verbatim *)
      if src >= t.n_left then invalid_arg "Csr.rebuild_rows: src_of out of range";
      let rb = old_row_start.(src) and re = old_row_start.(src + 1) in
      let len = re - rb in
      if Array.length !col < !w + len then begin
        let grown = Array.make (next_cap (!w + len)) 0 in
        Array.blit !col 0 grown 0 !w;
        col := grown
      end;
      Array.blit old_col rb !col !w len;
      w := !w + len
    end
    else begin
      (* dirty row: append raw neighbours, then sort + dedup in place *)
      let row_begin = !w in
      fill l (fun r ->
          if r < 0 || r >= t.n_right then
            invalid_arg "Csr.rebuild_rows: emitted right out of range";
          if Array.length !col < !w + 1 then begin
            let grown = Array.make (next_cap (!w + 1)) 0 in
            Array.blit !col 0 grown 0 !w;
            col := grown
          end;
          !col.(!w) <- r;
          incr w);
      let a = !col in
      (* insertion sort: rows are short (degree-bounded) *)
      for i = row_begin + 1 to !w - 1 do
        let v = a.(i) in
        let j = ref (i - 1) in
        while !j >= row_begin && a.(!j) > v do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- v
      done;
      let wr = ref row_begin in
      for i = row_begin to !w - 1 do
        let r = a.(i) in
        if !wr = row_begin || a.(!wr - 1) <> r then begin
          a.(!wr) <- r;
          incr wr
        end
      done;
      w := !wr
    end;
    row_start.(l + 1) <- !w
  done;
  (* swap the buffer pairs: the fresh view becomes primary *)
  t.row_start_alt <- t.row_start;
  t.col_alt <- old_col;
  t.row_start <- row_start;
  t.col <- !col;
  t.n_left <- n_left;
  t.n_edges <- !w;
  t.n_pending <- 0;
  t.dirty <- false;
  t.frozen <- true

let n_left t = t.n_left
let n_right t = t.n_right

let n_edges t =
  finalize t;
  t.n_edges

let row_start t =
  finalize t;
  t.row_start

let col t =
  finalize t;
  t.col

let right_cap_array t = t.right_cap

let right_cap t r =
  if r < 0 || r >= t.n_right then invalid_arg "Csr.right_cap: right out of range";
  t.right_cap.(r)

let degree t l =
  finalize t;
  if l < 0 || l >= t.n_left then invalid_arg "Csr.degree: left out of range";
  t.row_start.(l + 1) - t.row_start.(l)

let mem t ~left ~right =
  finalize t;
  if left < 0 || left >= t.n_left then invalid_arg "Csr.mem: left out of range";
  let rec scan i = i < t.row_start.(left + 1) && (t.col.(i) = right || scan (i + 1)) in
  scan t.row_start.(left)

let iter_row t l f =
  finalize t;
  if l < 0 || l >= t.n_left then invalid_arg "Csr.iter_row: left out of range";
  for i = t.row_start.(l) to t.row_start.(l + 1) - 1 do
    f t.col.(i)
  done

let total_cap t =
  let s = ref 0 in
  for r = 0 to t.n_right - 1 do
    s := !s + t.right_cap.(r)
  done;
  !s

let load_adjacency t ?right_cap ~n_right adj =
  let n_left = Array.length adj in
  reset t ~n_left ~n_right;
  (match right_cap with
  | None -> Array.fill t.right_cap 0 n_right 1
  | Some caps ->
      if Array.length caps <> n_right then
        invalid_arg "Csr.load_adjacency: right_cap length mismatch";
      Array.iteri (fun r c -> set_right_cap t r c) caps);
  Array.iteri (fun l row -> Array.iter (fun r -> add_edge t ~left:l ~right:r) row) adj;
  finalize t

let of_adjacency ?right_cap ~n_right adj =
  let t = create () in
  load_adjacency t ?right_cap ~n_right adj;
  t

let to_adjacency t =
  finalize t;
  (* rows are already sorted and deduplicated by [finalize] *)
  Array.init t.n_left (fun l ->
      Array.sub t.col t.row_start.(l) (t.row_start.(l + 1) - t.row_start.(l)))
