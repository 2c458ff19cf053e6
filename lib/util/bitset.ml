type t = { words : int array; capacity : int }

(* 32 bits per 63-bit word: half the density, but bit positioning is a
   shift and a mask instead of a division by 63 — and the positioning
   runs once per *edge* in the matching kernels' frontier builds while
   the word-parallel sweeps (union/andnot/intersects) that pay for the
   extra words run once per *word*.  Measured on the layer-build
   micro-bench the trade is ~1.9x in favour of the shifts. *)
let bits_per_word = 32
let word_shift = 5
let bit_mask = 31
let full_word = 0xFFFFFFFF

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Array.make ((capacity + bit_mask) lsr word_shift) 0; capacity }

let capacity t = t.capacity
let words t = t.words
let word_count t = Array.length t.words

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of bounds"

let unsafe_mem t i =
  Array.unsafe_get t.words (i lsr word_shift) land (1 lsl (i land bit_mask)) <> 0

let mem t i =
  check t i;
  unsafe_mem t i

let unsafe_add t i =
  let w = i lsr word_shift in
  Array.unsafe_set t.words w
    (Array.unsafe_get t.words w lor (1 lsl (i land bit_mask)))

let add t i =
  check t i;
  unsafe_add t i

let unsafe_remove t i =
  let w = i lsr word_shift in
  Array.unsafe_set t.words w
    (Array.unsafe_get t.words w land lnot (1 lsl (i land bit_mask)))

let remove t i =
  check t i;
  unsafe_remove t i

let popcount x =
  let rec loop x acc = if x = 0 then acc else loop (x land (x - 1)) (acc + 1) in
  loop x 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let is_empty t =
  let n = Array.length t.words in
  let rec go i = i >= n || (Array.unsafe_get t.words i = 0 && go (i + 1)) in
  go 0

(* Index of the single set bit of [b] (a power of two below 2^32), by
   binary descent: five shift-test steps instead of a 32-iteration scan. *)
let bit_index b =
  let n = ref 0 and b = ref b in
  if !b land 0xFFFF = 0 then begin
    n := !n + 16;
    b := !b lsr 16
  end;
  if !b land 0xFF = 0 then begin
    n := !n + 8;
    b := !b lsr 8
  end;
  if !b land 0xF = 0 then begin
    n := !n + 4;
    b := !b lsr 4
  end;
  if !b land 0x3 = 0 then begin
    n := !n + 2;
    b := !b lsr 2
  end;
  if !b land 0x1 = 0 then incr n;
  !n

let next_set_bit t i =
  if i >= t.capacity then -1
  else begin
    let i = if i < 0 then 0 else i in
    let nw = Array.length t.words in
    let wi = ref (i lsr word_shift) in
    let w = ref (Array.unsafe_get t.words !wi land ((-1) lsl (i land bit_mask))) in
    while !w = 0 && !wi + 1 < nw do
      incr wi;
      w := Array.unsafe_get t.words !wi
    done;
    if !w = 0 then -1 else (!wi lsl word_shift) + bit_index (!w land - !w)
  end

(* Zero words are skipped in one compare; within a nonzero word the set
   bits are peeled off lowest-first with [x land -x] / [x land (x - 1)],
   so the cost is O(words + population), not O(capacity). *)
let iter f t =
  for wi = 0 to Array.length t.words - 1 do
    let w = ref (Array.unsafe_get t.words wi) in
    if !w <> 0 then begin
      let base = wi lsl word_shift in
      while !w <> 0 do
        f (base + bit_index (!w land - !w));
        w := !w land (!w - 1)
      done
    end
  done

let to_list t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc

let copy t = { words = Array.copy t.words; capacity = t.capacity }

let set_prefix t n =
  if n < 0 || n > t.capacity then invalid_arg "Bitset.set_prefix: out of range";
  let nw = Array.length t.words in
  let full = n lsr word_shift in
  Array.fill t.words 0 full full_word;
  if full < nw then begin
    t.words.(full) <- (1 lsl (n land bit_mask)) - 1;
    Array.fill t.words (full + 1) (nw - full - 1) 0
  end

let union_into ~dst src =
  if dst.capacity <> src.capacity then invalid_arg "Bitset.union_into: capacity mismatch";
  for w = 0 to Array.length dst.words - 1 do
    Array.unsafe_set dst.words w
      (Array.unsafe_get dst.words w lor Array.unsafe_get src.words w)
  done

let andnot_into ~dst src =
  if dst.capacity <> src.capacity then
    invalid_arg "Bitset.andnot_into: capacity mismatch";
  for w = 0 to Array.length dst.words - 1 do
    Array.unsafe_set dst.words w
      (Array.unsafe_get dst.words w land lnot (Array.unsafe_get src.words w))
  done

let intersects a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset.intersects: capacity mismatch";
  let n = Array.length a.words in
  let rec go w =
    w < n
    && (Array.unsafe_get a.words w land Array.unsafe_get b.words w <> 0 || go (w + 1))
  in
  go 0
