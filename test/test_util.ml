(* Unit and property tests for the vod_util substrate. *)

open Vod_util

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:7 () and b = Prng.create ~seed:7 () in
  for _ = 1 to 100 do
    checkb "same stream" true (Prng.int64 a = Prng.int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 () and b = Prng.create ~seed:2 () in
  let distinct = ref false in
  for _ = 1 to 10 do
    if Prng.int64 a <> Prng.int64 b then distinct := true
  done;
  checkb "different seeds diverge" true !distinct

let test_prng_copy_independence () =
  let a = Prng.create ~seed:3 () in
  let b = Prng.copy a in
  let va = Prng.int64 a in
  (* advancing [a] must not have advanced [b] *)
  let vb = Prng.int64 b in
  checkb "copy starts at same point" true (va = vb);
  ignore (Prng.int64 a);
  let va2 = Prng.int64 a and vb2 = Prng.int64 b in
  checkb "streams advance independently" true (va2 <> vb2 || va2 = vb2)

let test_prng_int_bounds () =
  let g = Prng.create ~seed:11 () in
  for _ = 1 to 10_000 do
    let v = Prng.int g 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_pow2 () =
  let g = Prng.create ~seed:13 () in
  for _ = 1 to 10_000 do
    let v = Prng.int g 64 in
    checkb "in range pow2" true (v >= 0 && v < 64)
  done

let test_prng_int_invalid () =
  let g = Prng.create () in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_prng_int_in_range () =
  let g = Prng.create ~seed:5 () in
  for _ = 1 to 1000 do
    let v = Prng.int_in_range g ~lo:(-5) ~hi:5 in
    checkb "range inclusive" true (v >= -5 && v <= 5)
  done;
  checki "degenerate range" 9 (Prng.int_in_range g ~lo:9 ~hi:9)

let test_prng_float_unit () =
  let g = Prng.create ~seed:17 () in
  for _ = 1 to 10_000 do
    let v = Prng.float g 1.0 in
    checkb "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_prng_uniformity () =
  (* Chi-square-ish sanity: 10 buckets over 100k draws stay within 5% of
     the expected count. *)
  let g = Prng.create ~seed:23 () in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Prng.int g 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      let dev = abs (c - (n / 10)) in
      checkb "bucket within 5%" true (dev < n / 20))
    buckets

let test_prng_split_independence () =
  let g = Prng.create ~seed:31 () in
  let child = Prng.split g in
  let equal_run = ref true in
  for _ = 1 to 8 do
    if Prng.int64 g <> Prng.int64 child then equal_run := false
  done;
  checkb "split stream differs from parent" false !equal_run

let test_prng_jump_stable () =
  let g = Prng.create ~seed:3 () in
  let a = Prng.jump_to_stream g 4 and b = Prng.jump_to_stream g 4 in
  for _ = 1 to 32 do
    checkb "jump is a pure function of (g, i)" true (Prng.int64 a = Prng.int64 b)
  done;
  let c = Prng.jump_to_stream g 5 in
  checkb "distinct stream ids differ" true (Prng.int64 c <> Prng.int64 (Prng.jump_to_stream g 4))

(* ------------------------------------------------------------------ *)
(* Sample                                                              *)
(* ------------------------------------------------------------------ *)

let test_shuffle_permutes () =
  let g = Prng.create ~seed:1 () in
  let a = Array.init 100 (fun i -> i) in
  Sample.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "multiset preserved" (Array.init 100 (fun i -> i)) sorted

let test_permutation_is_bijection () =
  let g = Prng.create ~seed:2 () in
  let p = Sample.permutation g 50 in
  let seen = Array.make 50 false in
  Array.iter (fun i -> seen.(i) <- true) p;
  checkb "all positions hit" true (Array.for_all (fun x -> x) seen)

let test_choose_distinct () =
  let g = Prng.create ~seed:3 () in
  for _ = 1 to 100 do
    let chosen = Sample.choose_distinct g ~n:20 ~k:7 in
    checki "k elements" 7 (Array.length chosen);
    let tbl = Hashtbl.create 7 in
    Array.iter
      (fun x ->
        checkb "in range" true (x >= 0 && x < 20);
        checkb "distinct" false (Hashtbl.mem tbl x);
        Hashtbl.add tbl x ())
      chosen
  done

let test_choose_distinct_full () =
  let g = Prng.create ~seed:4 () in
  let chosen = Sample.choose_distinct g ~n:5 ~k:5 in
  let sorted = Array.copy chosen in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "k=n is a permutation" [| 0; 1; 2; 3; 4 |] sorted

let test_choose_distinct_invalid () =
  let g = Prng.create () in
  Alcotest.check_raises "k>n" (Invalid_argument "Sample.choose_distinct") (fun () ->
      ignore (Sample.choose_distinct g ~n:3 ~k:4))

let test_weighted_index () =
  let g = Prng.create ~seed:5 () in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Sample.weighted_index g [| 1.0; 2.0; 7.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  (* expected proportions 0.1, 0.2, 0.7 *)
  checkb "w0 ~ 10%" true (abs (counts.(0) - 3000) < 600);
  checkb "w1 ~ 20%" true (abs (counts.(1) - 6000) < 900);
  checkb "w2 ~ 70%" true (abs (counts.(2) - 21000) < 1500)

let test_categorical_matches_weights () =
  let g = Prng.create ~seed:6 () in
  let cat = Sample.Categorical.create [| 5.0; 1.0; 4.0 |] in
  checki "size" 3 (Sample.Categorical.size cat);
  let counts = Array.make 3 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let i = Sample.Categorical.draw g cat in
    counts.(i) <- counts.(i) + 1
  done;
  checkb "p0 ~ 0.5" true (abs (counts.(0) - 25_000) < 1500);
  checkb "p1 ~ 0.1" true (abs (counts.(1) - 5_000) < 800);
  checkb "p2 ~ 0.4" true (abs (counts.(2) - 20_000) < 1500)

let test_categorical_invalid () =
  Alcotest.check_raises "all-zero" (Invalid_argument "Sample: bad weights") (fun () ->
      ignore (Sample.Categorical.create [| 0.0; 0.0 |]))

let test_zipf_pmf_sums_to_one () =
  let z = Sample.Zipf.create ~n:100 ~s:1.0 in
  let total = ref 0.0 in
  for i = 0 to 99 do
    total := !total +. Sample.Zipf.pmf z i
  done;
  checkf "pmf normalised" 1.0 !total

let test_zipf_monotone () =
  let z = Sample.Zipf.create ~n:50 ~s:0.8 in
  for i = 0 to 48 do
    checkb "pmf decreasing in rank" true (Sample.Zipf.pmf z i >= Sample.Zipf.pmf z (i + 1))
  done

let test_zipf_draw_skew () =
  let g = Prng.create ~seed:7 () in
  let z = Sample.Zipf.create ~n:1000 ~s:1.2 in
  let top = ref 0 and n = 20_000 in
  for _ = 1 to n do
    if Sample.Zipf.draw g z < 10 then incr top
  done;
  (* with s=1.2 the top-10 ranks carry well over a third of the mass *)
  checkb "popularity skew present" true (!top > n / 3)

let test_poisson_moments () =
  let g = Prng.create ~seed:8 () in
  List.iter
    (fun lambda ->
      let r = Stats.Running.create () in
      for _ = 1 to 20_000 do
        Stats.Running.add r (float_of_int (Sample.poisson g lambda))
      done;
      let m = Stats.Running.mean r and v = Stats.Running.variance r in
      checkb
        (Printf.sprintf "poisson(%g) mean ~ lambda (got %g)" lambda m)
        true
        (Float.abs (m -. lambda) < 0.1 +. (0.05 *. lambda));
      checkb
        (Printf.sprintf "poisson(%g) variance ~ lambda (got %g)" lambda v)
        true
        (Float.abs (v -. lambda) < 0.1 +. (0.1 *. lambda)))
    [ 0.5; 3.0; 25.0; 80.0; 1e6 ]

(* The rejection step's log k! is O(1): a draw at lambda = 1e12 returns
   at once and lands within 6 standard deviations of lambda. *)
let test_poisson_huge_rate () =
  let g = Prng.create ~seed:10 () in
  let lambda = 1e12 in
  for _ = 1 to 100 do
    let k = float_of_int (Sample.poisson g lambda) in
    checkb
      (Printf.sprintf "poisson(1e12) within 6 sigma (got %.0f)" k)
      true
      (Float.abs (k -. lambda) <= 6.0 *. sqrt lambda)
  done

let test_poisson_zero () =
  let g = Prng.create () in
  checki "lambda=0" 0 (Sample.poisson g 0.0)

let test_exponential_mean () =
  let g = Prng.create ~seed:9 () in
  let r = Stats.Running.create () in
  for _ = 1 to 50_000 do
    Stats.Running.add r (Sample.exponential g 2.0)
  done;
  checkb "mean ~ 1/rate" true (Float.abs (Stats.Running.mean r -. 0.5) < 0.02)

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  checki "length" 100 (Vec.length v);
  for i = 0 to 99 do
    checki "get" (i * i) (Vec.get v i)
  done

let test_vec_pop_lifo () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 1; 2; 3 ];
  checki "pop 3" 3 (Vec.pop v);
  checki "pop 2" 2 (Vec.pop v);
  checki "len" 1 (Vec.length v)

let test_vec_clear_reuse () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 1; 2; 3 ];
  Vec.clear v;
  checkb "empty after clear" true (Vec.is_empty v);
  Vec.push v 9;
  checki "reusable" 9 (Vec.get v 0)

let test_vec_ensure_capacity () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 1; 2; 3 ];
  Vec.ensure_capacity v 1000 0;
  checki "length unchanged" 3 (Vec.length v);
  checki "contents kept" 2 (Vec.get v 1);
  (* pushes up to the reserved capacity must not lose anything *)
  for i = 3 to 999 do
    Vec.push v i
  done;
  checki "grown" 1000 (Vec.length v);
  checki "front survives" 1 (Vec.get v 0);
  checki "tail correct" 999 (Vec.get v 999);
  Vec.ensure_capacity v 10 0;
  checki "shrink request is a no-op" 1000 (Vec.length v);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Vec.ensure_capacity: negative capacity") (fun () ->
      Vec.ensure_capacity v (-1) 0)

let test_vec_bounds () =
  let v = Vec.create () in
  Vec.push v 1;
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index out of bounds")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec.set: index out of bounds")
    (fun () -> Vec.set v (-1) 0)

let test_vec_conversions () =
  let v = Vec.of_array [| 4; 5; 6 |] in
  check (Alcotest.list Alcotest.int) "to_list" [ 4; 5; 6 ] (Vec.to_list v);
  check (Alcotest.array Alcotest.int) "to_array" [| 4; 5; 6 |] (Vec.to_array v);
  checki "fold" 15 (Vec.fold_left ( + ) 0 v);
  checkb "exists" true (Vec.exists (fun x -> x = 5) v);
  checkb "not exists" false (Vec.exists (fun x -> x = 7) v)

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitset_basic () =
  let b = Bitset.create 200 in
  checki "empty" 0 (Bitset.cardinal b);
  Bitset.add b 0;
  Bitset.add b 63;
  Bitset.add b 64;
  Bitset.add b 199;
  checki "cardinal" 4 (Bitset.cardinal b);
  checkb "mem 63" true (Bitset.mem b 63);
  checkb "mem 100" false (Bitset.mem b 100);
  Bitset.remove b 63;
  checkb "removed" false (Bitset.mem b 63);
  checki "cardinal after remove" 3 (Bitset.cardinal b)

let test_bitset_add_idempotent () =
  let b = Bitset.create 10 in
  Bitset.add b 5;
  Bitset.add b 5;
  checki "idempotent" 1 (Bitset.cardinal b)

let test_bitset_iter_sorted () =
  let b = Bitset.create 300 in
  List.iter (Bitset.add b) [ 250; 3; 70; 180 ];
  check (Alcotest.list Alcotest.int) "to_list sorted" [ 3; 70; 180; 250 ] (Bitset.to_list b)

let test_bitset_union_inter () =
  let a = Bitset.create 128 and b = Bitset.create 128 in
  List.iter (Bitset.add a) [ 1; 2; 3; 100 ];
  List.iter (Bitset.add b) [ 2; 3; 4 ];
  checkb "inter" true (Bitset.intersects a b);
  Bitset.union_into ~dst:a b;
  checki "union" 5 (Bitset.cardinal a)

let test_bitset_copy_independent () =
  let a = Bitset.create 64 in
  Bitset.add a 7;
  let b = Bitset.copy a in
  Bitset.add b 8;
  checkb "copy isolated" false (Bitset.mem a 8);
  checkb "copy kept" true (Bitset.mem b 7)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of bounds") (fun () ->
      Bitset.add b 10)

let test_bitset_next_set_bit () =
  let b = Bitset.create 300 in
  List.iter (Bitset.add b) [ 3; 62; 63; 200 ];
  checki "from 0" 3 (Bitset.next_set_bit b 0);
  checki "from 3" 3 (Bitset.next_set_bit b 3);
  checki "from 4" 62 (Bitset.next_set_bit b 4);
  checki "word boundary" 63 (Bitset.next_set_bit b 63);
  checki "skip empty words" 200 (Bitset.next_set_bit b 64);
  checki "past last" (-1) (Bitset.next_set_bit b 201);
  checki "at capacity" (-1) (Bitset.next_set_bit b 300);
  checki "empty set" (-1) (Bitset.next_set_bit (Bitset.create 300) 0)

let test_bitset_set_prefix () =
  let b = Bitset.create 200 in
  Bitset.add b 150;
  Bitset.set_prefix b 130;
  checki "cardinal" 130 (Bitset.cardinal b);
  checkb "last of prefix" true (Bitset.mem b 129);
  checkb "first beyond" false (Bitset.mem b 130);
  checkb "old bit cleared" false (Bitset.mem b 150);
  Bitset.set_prefix b 63;
  checki "full-word prefix" 63 (Bitset.cardinal b);
  Bitset.set_prefix b 0;
  checkb "zero prefix" true (Bitset.is_empty b)

let test_bitset_andnot () =
  let a = Bitset.create 128 and b = Bitset.create 128 in
  List.iter (Bitset.add a) [ 1; 2; 3; 100 ];
  List.iter (Bitset.add b) [ 2; 100; 101 ];
  Bitset.andnot_into ~dst:a b;
  check (Alcotest.list Alcotest.int) "difference" [ 1; 3 ] (Bitset.to_list a)

let test_bitset_intersects () =
  let a = Bitset.create 128 and b = Bitset.create 128 in
  Bitset.add a 5;
  Bitset.add b 70;
  checkb "disjoint" false (Bitset.intersects a b);
  Bitset.add b 5;
  checkb "common bit" true (Bitset.intersects a b)

let test_bitset_capacity_mismatch () =
  let a = Bitset.create 64 and b = Bitset.create 128 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Bitset.union_into: capacity mismatch")
    (fun () -> Bitset.union_into ~dst:a b)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let test_heap_sorts () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.add h) [ 5; 1; 4; 1; 9; 0 ];
  check (Alcotest.list Alcotest.int) "sorted drain" [ 0; 1; 1; 4; 5; 9 ] (Heap.to_sorted_list h)

let test_heap_peek_pop () =
  let h = Heap.create ~cmp:compare in
  checkb "empty peek" true (Heap.peek h = None);
  checkb "empty pop" true (Heap.pop h = None);
  Heap.add h 3;
  Heap.add h 1;
  checkb "peek min" true (Heap.peek h = Some 1);
  checki "len" 2 (Heap.length h);
  checkb "pop min" true (Heap.pop h = Some 1);
  checkb "then next" true (Heap.pop h = Some 3)

let test_heap_of_array () =
  let h = Heap.of_array ~cmp:compare [| 9; 2; 7; 2 |] in
  check (Alcotest.list Alcotest.int) "heapify" [ 2; 2; 7; 9 ] (Heap.to_sorted_list h)

let test_heap_custom_order () =
  let h = Heap.create ~cmp:(fun a b -> compare b a) in
  List.iter (Heap.add h) [ 1; 5; 3 ];
  check (Alcotest.list Alcotest.int) "max-heap" [ 5; 3; 1 ] (Heap.to_sorted_list h)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_running_moments () =
  let r = Stats.Running.create () in
  List.iter (Stats.Running.add r) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  checki "count" 8 (Stats.Running.count r);
  checkf "mean" 5.0 (Stats.Running.mean r);
  checkf "variance" (32.0 /. 7.0) (Stats.Running.variance r);
  checkf "min" 2.0 (Stats.Running.min r);
  checkf "max" 9.0 (Stats.Running.max r)

let test_running_single () =
  let r = Stats.Running.create () in
  Stats.Running.add r 3.0;
  checkf "variance of 1 obs" 0.0 (Stats.Running.variance r);
  checkf "ci of 1 obs" 0.0 (Stats.Running.ci95_halfwidth r)

let test_percentiles () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  checkf "p0" 1.0 (Stats.percentile xs 0.0);
  checkf "p100" 5.0 (Stats.percentile xs 100.0);
  checkf "median" 3.0 (Stats.median xs);
  checkf "p25" 2.0 (Stats.percentile xs 25.0);
  checkf "interpolated" 4.6 (Stats.percentile xs 90.0)

let test_percentile_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile [||] 50.0));
  Alcotest.check_raises "bad p" (Invalid_argument "Stats.percentile: p outside [0,100]")
    (fun () -> ignore (Stats.percentile [| 1.0 |] 101.0))

let test_percentile_nearest_rank () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  (* nearest rank always returns an observation, never an interpolation *)
  checkf "p0" 1.0 (Stats.percentile_nearest_rank xs 0.0);
  checkf "p50" 3.0 (Stats.percentile_nearest_rank xs 50.0);
  checkf "p90" 5.0 (Stats.percentile_nearest_rank xs 90.0);
  checkf "p100" 5.0 (Stats.percentile_nearest_rank xs 100.0);
  checkf "singleton" 7.0 (Stats.percentile_nearest_rank [| 7.0 |] 95.0);
  checkf "p95 of 1..100" 95.0
    (Stats.percentile_nearest_rank (Array.init 100 (fun i -> float_of_int (i + 1))) 95.0);
  Alcotest.check_raises "empty"
    (Invalid_argument "Stats.percentile_nearest_rank: empty") (fun () ->
      ignore (Stats.percentile_nearest_rank [||] 50.0));
  Alcotest.check_raises "bad p"
    (Invalid_argument "Stats.percentile_nearest_rank: p outside [0,100]") (fun () ->
      ignore (Stats.percentile_nearest_rank [| 1.0 |] (-1.0)))

let test_stddev () =
  checkf "constant" 0.0 (Stats.stddev [| 4.0; 4.0; 4.0 |]);
  (* sample (n-1) stddev of 2,4,6 is exactly 2 *)
  checkf "exact" 2.0 (Stats.stddev [| 2.0; 4.0; 6.0 |]);
  checkf "matches running"
    (let r = Stats.Running.create () in
     Array.iter (Stats.Running.add r) [| 1.0; 2.0; 4.0; 8.0 |];
     Stats.Running.stddev r)
    (Stats.stddev [| 1.0; 2.0; 4.0; 8.0 |])

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.0; 3.0; 9.9; -4.0; 42.0 ];
  checki "total" 6 (Stats.Histogram.total h);
  let counts = Stats.Histogram.counts h in
  checki "bin0 (incl clamped low)" 3 counts.(0);
  checki "bin4 (incl clamped high)" 2 counts.(4);
  checkf "bin mid" 1.0 (Stats.Histogram.bin_mid h 0)

let test_linear_fit_exact () =
  let slope, intercept = Stats.linear_fit [| (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) |] in
  checkf "slope" 2.0 slope;
  checkf "intercept" 1.0 intercept

let test_pearson_perfect () =
  let r = Stats.pearson [| (0.0, 0.0); (1.0, 2.0); (2.0, 4.0) |] in
  checkf "perfect correlation" 1.0 r;
  let r' = Stats.pearson [| (0.0, 4.0); (1.0, 2.0); (2.0, 0.0) |] in
  checkf "perfect anticorrelation" (-1.0) r'

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let test_table_render () =
  let t = Table.create ~columns:[ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "23" ];
  let s = Table.render t in
  checkb "contains header" true (contains_substring s "name");
  checkb "contains cell" true (contains_substring s "alpha");
  checkb "right-aligned value" true (contains_substring s "    1 |")

let test_table_row_mismatch () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "width" (Invalid_argument "Table.add_row: row width mismatch")
    (fun () -> Table.add_row t [ "x"; "y" ])

let test_table_formats () =
  check Alcotest.string "float" "3.142" (Table.fmt_float 3.14159);
  check Alcotest.string "float decimals" "3.1" (Table.fmt_float ~decimals:1 3.14159);
  check Alcotest.string "pct" "42.1%" (Table.fmt_pct 0.421)

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

(* Word-sweep laws, checked against a naive bool-array / Set model: the
   matching kernels in vod_graph lean on these exact semantics. *)
let bitset_word_laws =
  let open QCheck in
  let members = list_of_size Gen.(int_range 0 64) (int_range 0 199) in
  let bitset_of l =
    let b = Bitset.create 200 in
    List.iter (Bitset.add b) l;
    b
  in
  [
    Test.make ~name:"bitset next_set_bit agrees with linear scan" ~count:200
      (pair members (int_range 0 200))
      (fun (l, start) ->
        let b = bitset_of l in
        let m = Array.make 200 false in
        List.iter (fun i -> m.(i) <- true) l;
        let naive = ref (-1) in
        (try
           for i = start to 199 do
             if m.(i) then begin
               naive := i;
               raise Exit
             end
           done
         with Exit -> ());
        Bitset.next_set_bit b start = !naive);
    Test.make ~name:"bitset set_prefix is [0, n)" ~count:200
      (pair members (int_range 0 200))
      (fun (l, n) ->
        let b = bitset_of l in
        Bitset.set_prefix b n;
        Bitset.to_list b = List.init n Fun.id);
    Test.make ~name:"bitset andnot_into is set difference" ~count:200
      (pair members members)
      (fun (la, lb) ->
        let a = bitset_of la and b = bitset_of lb in
        Bitset.andnot_into ~dst:a b;
        let module S = Set.Make (Int) in
        Bitset.to_list a = S.elements (S.diff (S.of_list la) (S.of_list lb)));
    Test.make ~name:"bitset intersects iff a common element" ~count:200
      (pair members members)
      (fun (la, lb) ->
        let a = bitset_of la and b = bitset_of lb in
        Bitset.intersects a b = List.exists (fun i -> List.mem i lb) la);
  ]

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~name:"prng: int g b always in [0,b)" ~count:500
      (pair small_int (int_range 1 10_000))
      (fun (seed, bound) ->
        let g = Prng.create ~seed () in
        let v = Prng.int g bound in
        v >= 0 && v < bound);
    Test.make ~name:"shuffle preserves multiset" ~count:200
      (pair small_int (list_of_size Gen.(int_range 0 64) int))
      (fun (seed, l) ->
        let g = Prng.create ~seed () in
        let a = Array.of_list l in
        Sample.shuffle g a;
        List.sort compare (Array.to_list a) = List.sort compare l);
    Test.make ~name:"heap drain is sorted" ~count:200
      (list_of_size Gen.(int_range 0 128) int)
      (fun l ->
        let h = Heap.of_array ~cmp:compare (Array.of_list l) in
        Heap.to_sorted_list h = List.sort compare l);
    Test.make ~name:"vec roundtrip" ~count:200
      (list_of_size Gen.(int_range 0 128) int)
      (fun l ->
        let v = Vec.create () in
        List.iter (Vec.push v) l;
        Vec.to_list v = l);
    Test.make ~name:"bitset add/mem agree with a reference set" ~count:200
      (list_of_size Gen.(int_range 0 64) (int_range 0 255))
      (fun l ->
        let b = Bitset.create 256 in
        List.iter (Bitset.add b) l;
        let module S = Set.Make (Int) in
        let s = S.of_list l in
        Bitset.cardinal b = S.cardinal s
        && List.for_all (fun i -> Bitset.mem b i = S.mem i s) (List.init 256 Fun.id));
  ]
  @ bitset_word_laws
  @ [
    Test.make ~name:"percentile is within data range" ~count:200
      (pair (list_of_size Gen.(int_range 1 64) (float_range (-100.) 100.)) (float_range 0. 100.))
      (fun (l, p) ->
        let xs = Array.of_list l in
        let v = Stats.percentile xs p in
        let lo = List.fold_left min infinity l and hi = List.fold_left max neg_infinity l in
        v >= lo -. 1e-9 && v <= hi +. 1e-9);
    Test.make ~name:"categorical draw index in range" ~count:200
      (pair small_int (list_of_size Gen.(int_range 1 32) (float_range 0.01 10.0)))
      (fun (seed, ws) ->
        let g = Prng.create ~seed () in
        let cat = Sample.Categorical.create (Array.of_list ws) in
        let i = Sample.Categorical.draw g cat in
        i >= 0 && i < List.length ws);
    Test.make ~name:"choose_distinct yields distinct in-range values" ~count:200
      (pair small_int (pair (int_range 1 64) (int_range 0 64)))
      (fun (seed, (n, k)) ->
        QCheck.assume (k <= n);
        let g = Prng.create ~seed () in
        let a = Sample.choose_distinct g ~n ~k in
        let module S = Set.Make (Int) in
        let s = S.of_list (Array.to_list a) in
        S.cardinal s = k && S.for_all (fun x -> x >= 0 && x < n) s);
  ]

let suites =
  [
    ( "util.prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
        Alcotest.test_case "copy independence" `Quick test_prng_copy_independence;
        Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
        Alcotest.test_case "int pow2 bounds" `Quick test_prng_int_pow2;
        Alcotest.test_case "int invalid" `Quick test_prng_int_invalid;
        Alcotest.test_case "int_in_range" `Quick test_prng_int_in_range;
        Alcotest.test_case "float unit interval" `Quick test_prng_float_unit;
        Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
        Alcotest.test_case "split independence" `Quick test_prng_split_independence;
        Alcotest.test_case "jump_to_stream stable" `Quick test_prng_jump_stable;
      ] );
    ( "util.sample",
      [
        Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
        Alcotest.test_case "permutation bijection" `Quick test_permutation_is_bijection;
        Alcotest.test_case "choose_distinct" `Quick test_choose_distinct;
        Alcotest.test_case "choose_distinct full" `Quick test_choose_distinct_full;
        Alcotest.test_case "choose_distinct invalid" `Quick test_choose_distinct_invalid;
        Alcotest.test_case "weighted_index frequencies" `Quick test_weighted_index;
        Alcotest.test_case "categorical frequencies" `Quick test_categorical_matches_weights;
        Alcotest.test_case "categorical invalid" `Quick test_categorical_invalid;
        Alcotest.test_case "zipf pmf normalised" `Quick test_zipf_pmf_sums_to_one;
        Alcotest.test_case "zipf pmf monotone" `Quick test_zipf_monotone;
        Alcotest.test_case "zipf draw skew" `Quick test_zipf_draw_skew;
        Alcotest.test_case "poisson moments" `Quick test_poisson_moments;
        Alcotest.test_case "poisson zero" `Quick test_poisson_zero;
        Alcotest.test_case "poisson huge rate" `Quick test_poisson_huge_rate;
        Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
      ] );
    ( "util.vec",
      [
        Alcotest.test_case "push/get" `Quick test_vec_push_get;
        Alcotest.test_case "pop lifo" `Quick test_vec_pop_lifo;
        Alcotest.test_case "clear and reuse" `Quick test_vec_clear_reuse;
        Alcotest.test_case "ensure_capacity" `Quick test_vec_ensure_capacity;
        Alcotest.test_case "bounds checking" `Quick test_vec_bounds;
        Alcotest.test_case "conversions" `Quick test_vec_conversions;
      ] );
    ( "util.bitset",
      [
        Alcotest.test_case "basic ops" `Quick test_bitset_basic;
        Alcotest.test_case "add idempotent" `Quick test_bitset_add_idempotent;
        Alcotest.test_case "iter sorted" `Quick test_bitset_iter_sorted;
        Alcotest.test_case "union/inter" `Quick test_bitset_union_inter;
        Alcotest.test_case "copy independent" `Quick test_bitset_copy_independent;
        Alcotest.test_case "bounds" `Quick test_bitset_bounds;
        Alcotest.test_case "next_set_bit" `Quick test_bitset_next_set_bit;
        Alcotest.test_case "set_prefix" `Quick test_bitset_set_prefix;
        Alcotest.test_case "andnot" `Quick test_bitset_andnot;
        Alcotest.test_case "intersects" `Quick test_bitset_intersects;
        Alcotest.test_case "capacity mismatch" `Quick test_bitset_capacity_mismatch;
      ] );
    ( "util.heap",
      [
        Alcotest.test_case "sorts" `Quick test_heap_sorts;
        Alcotest.test_case "peek/pop" `Quick test_heap_peek_pop;
        Alcotest.test_case "of_array" `Quick test_heap_of_array;
        Alcotest.test_case "custom order" `Quick test_heap_custom_order;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "running moments" `Quick test_running_moments;
        Alcotest.test_case "running single obs" `Quick test_running_single;
        Alcotest.test_case "percentiles" `Quick test_percentiles;
        Alcotest.test_case "percentile invalid" `Quick test_percentile_invalid;
        Alcotest.test_case "nearest-rank percentile" `Quick test_percentile_nearest_rank;
        Alcotest.test_case "stddev" `Quick test_stddev;
        Alcotest.test_case "histogram" `Quick test_histogram;
        Alcotest.test_case "linear fit" `Quick test_linear_fit_exact;
        Alcotest.test_case "pearson" `Quick test_pearson_perfect;
      ] );
    ( "util.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "row mismatch" `Quick test_table_row_mismatch;
        Alcotest.test_case "formats" `Quick test_table_formats;
      ] );
    ("util.properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
  ]
