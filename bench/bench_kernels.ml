(* Micro-benchmarks for the word-parallel matching kernels.

   One pair of records, so compare.exe tracks kernel drift point by
   point:

     kernels/layer_build/{bitset,array}    one BFS layer expansion —
         OR the frontier lefts' rows into a right-side set.  The bitset
         path is the Hopcroft-Karp inner loop (raw word writes +
         andnot sweep); the array baseline is the per-vertex seen-array
         walk the kernels replaced.

   [matched_per_round] carries a deterministic work measure (bits
   built) so the compare gate's drift check also pins kernel outputs,
   not just their speed. *)

open Vod
module Bitset = Vod_util.Bitset

type record = Bench_matching.record = {
  name : string;
  n : int;
  rounds : int;
  ns_per_round : float;
  matched_per_round : float;
  alloc_per_round : float;
}

let best_of ~repeats f =
  let best = ref infinity and work = ref 0 and bytes = ref 0.0 in
  for _ = 1 to repeats do
    let ns, w, b = f () in
    if ns < !best then best := ns;
    work := w;
    bytes := b
  done;
  (!best, !work, !bytes)

(* ------------------------------------------------------------------ *)
(* Layer build                                                         *)
(* ------------------------------------------------------------------ *)

let layer_n_left = 16384
let layer_degree = 8
let layer_rounds = 64

(* A frontier of every fourth left, expanded once per round against a
   visited set holding every third right: the mix of fresh and already
   visited rights both paths must filter. *)
let make_layer_instance () =
  let g = Prng.create ~seed:0xb17 () in
  let n_left = layer_n_left in
  let n_right = n_left / 4 in
  let b =
    Bipartite.create ~n_left ~n_right ~right_cap:(Array.make n_right 2)
  in
  for l = 0 to n_left - 1 do
    for _ = 1 to layer_degree do
      Bipartite.add_edge b ~left:l ~right:(Prng.int g n_right)
    done
  done;
  Bipartite.csr b

let time_layer_bitset csr =
  let n_left = Csr.n_left csr and n_right = Csr.n_right csr in
  let row_start = Csr.row_start csr and col = Csr.col csr in
  let frontier = Bitset.create n_right and visited = Bitset.create n_right in
  let built = ref 0 in
  let t0 = Meter.now_ns () in
  let b0 = Meter.allocated_bytes () in
  for _ = 1 to layer_rounds do
    Bitset.clear visited;
    for r = 0 to (n_right / 3) - 1 do
      Bitset.unsafe_add visited (3 * r)
    done;
    Bitset.clear frontier;
    let fw = Bitset.words frontier in
    let wsh = Bitset.word_shift and bmask = Bitset.bit_mask in
    let l = ref 0 in
    while !l < n_left do
      for i = row_start.(!l) to row_start.(!l + 1) - 1 do
        let r = Array.unsafe_get col i in
        let w = r lsr wsh in
        Array.unsafe_set fw w (Array.unsafe_get fw w lor (1 lsl (r land bmask)))
      done;
      l := !l + 4
    done;
    Bitset.andnot_into ~dst:frontier visited;
    built := !built + Bitset.cardinal frontier
  done;
  let bytes = Meter.allocated_bytes () -. b0 in
  (Meter.now_ns () -. t0, !built, bytes)

let time_layer_array csr =
  let n_left = Csr.n_left csr and n_right = Csr.n_right csr in
  let row_start = Csr.row_start csr and col = Csr.col csr in
  let seen = Array.make n_right false in
  let layer = Array.make n_right 0 in
  let built = ref 0 in
  let t0 = Meter.now_ns () in
  let b0 = Meter.allocated_bytes () in
  for _ = 1 to layer_rounds do
    Array.fill seen 0 n_right false;
    for r = 0 to (n_right / 3) - 1 do
      seen.(3 * r) <- true
    done;
    let filled = ref 0 in
    let l = ref 0 in
    while !l < n_left do
      for i = row_start.(!l) to row_start.(!l + 1) - 1 do
        let r = Array.unsafe_get col i in
        if not (Array.unsafe_get seen r) then begin
          Array.unsafe_set seen r true;
          Array.unsafe_set layer !filled r;
          incr filled
        end
      done;
      l := !l + 4
    done;
    built := !built + !filled
  done;
  let bytes = Meter.allocated_bytes () -. b0 in
  (Meter.now_ns () -. t0, !built, bytes)

(* ------------------------------------------------------------------ *)

let run () =
  let mk name n rounds (ns, work, bytes) =
    let r = float_of_int rounds in
    {
      name;
      n;
      rounds;
      ns_per_round = ns /. r;
      matched_per_round = float_of_int work /. r;
      alloc_per_round = bytes /. r;
    }
  in
  let layer = make_layer_instance () in
  ignore (time_layer_bitset layer);
  ignore (time_layer_array layer);
  let bitset = best_of ~repeats:5 (fun () -> time_layer_bitset layer) in
  let array = best_of ~repeats:5 (fun () -> time_layer_array layer) in
  let (_, bits, _) = bitset and (_, cells, _) = array in
  if bits <> cells then
    failwith
      (Printf.sprintf "bench_kernels: layer builds disagree (bitset %d, array %d)"
         bits cells);
  [
    mk "kernels/layer_build/bitset" layer_n_left layer_rounds bitset;
    mk "kernels/layer_build/array" layer_n_left layer_rounds array;
  ]
