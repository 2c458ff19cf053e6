(* Wall-clock and allocation meters shared by the bench harnesses. *)

let now_ns () = Unix.gettimeofday () *. 1e9

(* [Gc.allocated_bytes] misses what the minor heap took since its last
   collection (up to its whole size, which would swamp a few-round
   record); [Gc.minor_words] is exact, and the quick_stat terms add the
   direct major-heap allocations.  A reading allocates itself (the
   quick_stat record and boxed floats), so every reading subtracts one
   reading's cost, measured once at startup between two back-to-back
   readings: the difference of two readings is then exactly what the
   code between them allocated, and 0 for a region that allocates
   nothing. *)
let readings = ref 0
let reading_cost = ref 0.0

let allocated_bytes () =
  incr readings;
  let s = Gc.quick_stat () in
  let words = Gc.minor_words () +. s.major_words -. s.promoted_words in
  (words *. float_of_int (Sys.word_size / 8)) -. (float_of_int !readings *. !reading_cost)

(* Calibrated on an emptied minor heap, so that no collection can fall
   between the two readings. *)
let () =
  Gc.minor ();
  let b0 = allocated_bytes () in
  reading_cost := allocated_bytes () -. b0
