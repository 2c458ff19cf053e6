(* Tests for the vod_graph substrate: bipartite matching, Hall
   certificates and expansion measurement — plus the explicit flow
   networks and max-flow solvers vod_check keeps as the matching core's
   references. *)

open Vod_util
open Vod_graph
module Flow_network = Vod_check.Flow_network
module Dinic = Vod_check.Dinic
module Push_relabel = Vod_check.Push_relabel
module Reference = Vod_check.Reference

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* ------------------------------------------------------------------ *)
(* Flow_network                                                        *)
(* ------------------------------------------------------------------ *)

let test_network_construction () =
  let net = Flow_network.create 4 in
  checki "nodes" 4 (Flow_network.node_count net);
  let a = Flow_network.add_edge net ~src:0 ~dst:1 ~cap:5 in
  checki "arc pair per edge" 2 (Flow_network.arc_count net);
  checki "src" 0 (Flow_network.arc_src net a);
  checki "dst" 1 (Flow_network.arc_dst net a);
  checki "capacity" 5 (Flow_network.capacity net a);
  checki "flow starts 0" 0 (Flow_network.flow net a);
  checki "residual = cap" 5 (Flow_network.residual net a)

let test_network_push_and_reset () =
  let net = Flow_network.create 2 in
  let a = Flow_network.add_edge net ~src:0 ~dst:1 ~cap:3 in
  Flow_network.push net a 2;
  checki "flow" 2 (Flow_network.flow net a);
  checki "residual" 1 (Flow_network.residual net a);
  checki "reverse residual" 2 (Flow_network.residual net (a lxor 1));
  Flow_network.reset_flow net;
  checki "reset flow" 0 (Flow_network.flow net a);
  checki "reset residual" 3 (Flow_network.residual net a)

let test_network_invalid () =
  let net = Flow_network.create 2 in
  Alcotest.check_raises "negative cap"
    (Invalid_argument "Flow_network.add_edge: negative capacity") (fun () ->
      ignore (Flow_network.add_edge net ~src:0 ~dst:1 ~cap:(-1)));
  Alcotest.check_raises "bad endpoint"
    (Invalid_argument "Flow_network.add_edge: endpoint out of range") (fun () ->
      ignore (Flow_network.add_edge net ~src:0 ~dst:2 ~cap:1))

(* A classic 6-node instance with known max flow 23 (CLRS-style). *)
let clrs_network () =
  let net = Flow_network.create 6 in
  let e = Flow_network.add_edge net in
  ignore (e ~src:0 ~dst:1 ~cap:16);
  ignore (e ~src:0 ~dst:2 ~cap:13);
  ignore (e ~src:1 ~dst:2 ~cap:10);
  ignore (e ~src:2 ~dst:1 ~cap:4);
  ignore (e ~src:1 ~dst:3 ~cap:12);
  ignore (e ~src:3 ~dst:2 ~cap:9);
  ignore (e ~src:2 ~dst:4 ~cap:14);
  ignore (e ~src:4 ~dst:3 ~cap:7);
  ignore (e ~src:3 ~dst:5 ~cap:20);
  ignore (e ~src:4 ~dst:5 ~cap:4);
  net

let test_dinic_clrs () =
  let net = clrs_network () in
  checki "max flow" 23 (Dinic.max_flow net ~src:0 ~sink:5);
  checkb "conservation" true (Flow_network.check_conservation net ~src:0 ~sink:5)

let test_push_relabel_clrs () =
  let net = clrs_network () in
  checki "max flow" 23 (Push_relabel.max_flow net ~src:0 ~sink:5);
  checkb "conservation" true (Flow_network.check_conservation net ~src:0 ~sink:5)

let test_dinic_disconnected () =
  let net = Flow_network.create 4 in
  ignore (Flow_network.add_edge net ~src:0 ~dst:1 ~cap:10);
  ignore (Flow_network.add_edge net ~src:2 ~dst:3 ~cap:10);
  checki "no path" 0 (Dinic.max_flow net ~src:0 ~sink:3)

let test_dinic_parallel_edges () =
  let net = Flow_network.create 2 in
  ignore (Flow_network.add_edge net ~src:0 ~dst:1 ~cap:3);
  ignore (Flow_network.add_edge net ~src:0 ~dst:1 ~cap:4);
  checki "parallel edges sum" 7 (Dinic.max_flow net ~src:0 ~sink:1)

let test_dinic_limit () =
  let net = clrs_network () in
  let f = Dinic.max_flow ~limit:5 net ~src:0 ~sink:5 in
  checkb "limit respected" true (f <= 5);
  checkb "limit progress" true (f > 0)

let test_dinic_bottleneck_chain () =
  let net = Flow_network.create 5 in
  List.iteri
    (fun i cap -> ignore (Flow_network.add_edge net ~src:i ~dst:(i + 1) ~cap))
    [ 9; 3; 7; 5 ];
  checki "chain bottleneck" 3 (Dinic.max_flow net ~src:0 ~sink:4)

let test_dinic_invalid () =
  let net = Flow_network.create 3 in
  Alcotest.check_raises "src=sink" (Invalid_argument "Dinic.max_flow: src = sink")
    (fun () -> ignore (Dinic.max_flow net ~src:1 ~sink:1))

let test_mincut_reachability () =
  let net = clrs_network () in
  let (_ : int) = Dinic.max_flow net ~src:0 ~sink:5 in
  let side = Flow_network.residual_reachable net ~src:0 in
  checkb "source on source side" true (Bitset.mem side 0);
  checkb "sink not reachable at optimum" false (Bitset.mem side 5)

(* Random networks: Dinic and push-relabel must agree. *)
let random_network g n_nodes n_edges max_cap =
  let net = Flow_network.create n_nodes in
  for _ = 1 to n_edges do
    let src = Prng.int g n_nodes and dst = Prng.int g n_nodes in
    if src <> dst then ignore (Flow_network.add_edge net ~src ~dst ~cap:(Prng.int g max_cap))
  done;
  net

let test_solvers_agree_random () =
  let g = Prng.create ~seed:99 () in
  for _ = 1 to 50 do
    let n = 2 + Prng.int g 12 in
    let build_seed = Prng.bits g in
    let build () = random_network (Prng.create ~seed:build_seed ()) n (3 * n) 10 in
    let n1 = build () and n2 = build () in
    let f1 = Dinic.max_flow n1 ~src:0 ~sink:(n - 1) in
    let f2 = Push_relabel.max_flow n2 ~src:0 ~sink:(n - 1) in
    checki "solver agreement" f1 f2;
    checkb "dinic conservation" true (Flow_network.check_conservation n1 ~src:0 ~sink:(n - 1));
    checkb "pr conservation" true (Flow_network.check_conservation n2 ~src:0 ~sink:(n - 1))
  done

(* ------------------------------------------------------------------ *)
(* Hopcroft-Karp                                                       *)
(* ------------------------------------------------------------------ *)

let test_hk_perfect_matching () =
  (* 3 requests, 3 boxes, a cycle structure with a unique perfect matching *)
  let r =
    Hopcroft_karp.solve ~n_left:3 ~n_right:3
      ~adj:[| [| 0 |]; [| 0; 1 |]; [| 1; 2 |] |]
      ~right_cap:[| 1; 1; 1 |] ()
  in
  checki "size" 3 r.size;
  checki "l0" 0 r.assignment.(0);
  checki "l1" 1 r.assignment.(1);
  checki "l2" 2 r.assignment.(2)

let test_hk_capacitated () =
  (* one box with 3 slots serves all requests *)
  let r =
    Hopcroft_karp.solve ~n_left:3 ~n_right:1
      ~adj:[| [| 0 |]; [| 0 |]; [| 0 |] |]
      ~right_cap:[| 3 |] ()
  in
  checki "size" 3 r.size;
  checki "load" 3 r.right_load.(0)

let test_hk_saturated () =
  let r =
    Hopcroft_karp.solve ~n_left:3 ~n_right:1
      ~adj:[| [| 0 |]; [| 0 |]; [| 0 |] |]
      ~right_cap:[| 2 |] ()
  in
  checki "only two served" 2 r.size

let test_hk_empty () =
  let r = Hopcroft_karp.solve ~n_left:0 ~n_right:0 ~adj:[||] ~right_cap:[||] () in
  checki "empty" 0 r.size

let test_hk_isolated_left () =
  let r =
    Hopcroft_karp.solve ~n_left:2 ~n_right:1 ~adj:[| [||]; [| 0 |] |] ~right_cap:[| 1 |] ()
  in
  checki "isolated unmatched" 1 r.size;
  checki "unmatched is -1" (-1) r.assignment.(0)

let test_hk_invalid () =
  Alcotest.check_raises "neg cap" (Invalid_argument "Hopcroft_karp.solve: negative cap")
    (fun () ->
      ignore (Hopcroft_karp.solve ~n_left:1 ~n_right:1 ~adj:[| [| 0 |] |] ~right_cap:[| -1 |] ()))

(* ------------------------------------------------------------------ *)
(* Bipartite                                                           *)
(* ------------------------------------------------------------------ *)

let simple_instance () =
  let b = Bipartite.create ~n_left:4 ~n_right:3 ~right_cap:[| 2; 1; 1 |] in
  Bipartite.add_edge b ~left:0 ~right:0;
  Bipartite.add_edge b ~left:1 ~right:0;
  Bipartite.add_edge b ~left:2 ~right:1;
  Bipartite.add_edge b ~left:3 ~right:2;
  b

(* The production core and every reference solver. *)
let all_solvers =
  [
    (fun b -> Bipartite.solve b);
    Reference.solve `Slots;
    Reference.solve `Dinic;
    Reference.solve `Push_relabel;
  ]

let test_bipartite_feasible_all_algorithms () =
  List.iter
    (fun solve ->
      let b = simple_instance () in
      let (o : Bipartite.outcome) = solve b in
      checki "all matched" 4 o.matched;
      (* box 0 has 2 slots and serves requests 0 and 1 *)
      checki "box0 load" 2 o.right_load.(0);
      Array.iteri (fun l r -> checkb (Printf.sprintf "req %d served" l) true (r >= 0)) o.assignment)
    all_solvers

let test_bipartite_duplicate_edges_ignored () =
  let b = Bipartite.create ~n_left:1 ~n_right:1 ~right_cap:[| 5 |] in
  Bipartite.add_edge b ~left:0 ~right:0;
  Bipartite.add_edge b ~left:0 ~right:0;
  checki "degree deduplicated" 1 (Bipartite.degree b 0);
  let o = Bipartite.solve b in
  checki "matched once" 1 o.matched;
  checki "load 1" 1 o.right_load.(0)

let test_bipartite_infeasible () =
  let b = Bipartite.create ~n_left:3 ~n_right:1 ~right_cap:[| 2 |] in
  for l = 0 to 2 do
    Bipartite.add_edge b ~left:l ~right:0
  done;
  checkb "infeasible" false (Bipartite.is_feasible b);
  match Bipartite.hall_violator b with
  | None -> Alcotest.fail "expected a violator"
  | Some v ->
      checkb "violation holds" true (v.server_slots < List.length v.requests);
      checki "X is all three requests" 3 (List.length v.requests);
      checki "slots" 2 v.server_slots

let test_bipartite_feasible_no_violator () =
  let b = simple_instance () in
  checkb "no violator when feasible" true (Bipartite.hall_violator b = None)

let test_bipartite_violator_is_localised () =
  (* requests 0,1 fight over box 0 (1 slot); requests 2,3 are fine *)
  let b = Bipartite.create ~n_left:4 ~n_right:3 ~right_cap:[| 1; 1; 1 |] in
  Bipartite.add_edge b ~left:0 ~right:0;
  Bipartite.add_edge b ~left:1 ~right:0;
  Bipartite.add_edge b ~left:2 ~right:1;
  Bipartite.add_edge b ~left:3 ~right:2;
  match Bipartite.hall_violator b with
  | None -> Alcotest.fail "expected violator"
  | Some v ->
      checkb "contains the contested pair" true
        (List.mem 0 v.requests && List.mem 1 v.requests);
      checkb "excludes satisfied requests" true
        ((not (List.mem 2 v.requests)) && not (List.mem 3 v.requests));
      checkb "certificate valid" true (v.server_slots < List.length v.requests)

let test_bipartite_zero_capacity_boxes () =
  let b = Bipartite.create ~n_left:1 ~n_right:2 ~right_cap:[| 0; 1 |] in
  Bipartite.add_edge b ~left:0 ~right:0;
  checkb "zero-cap box cannot serve" false (Bipartite.is_feasible b);
  Bipartite.add_edge b ~left:0 ~right:1;
  checkb "now feasible" true (Bipartite.is_feasible b)

let test_bipartite_empty () =
  let b = Bipartite.create ~n_left:0 ~n_right:0 ~right_cap:[||] in
  checkb "empty feasible" true (Bipartite.is_feasible b);
  checkb "no violator" true (Bipartite.hall_violator b = None)

(* Random instances with the certificate's corner cases: zero-capacity
   boxes, requests with no edge at all, and duplicate edges. *)
let certificate_instance g ~n_left ~n_right =
  let right_cap = Array.init n_right (fun _ -> Prng.int g 3) in
  let b = Bipartite.create ~n_left ~n_right ~right_cap in
  for l = 0 to n_left - 1 do
    if Prng.int g 5 > 0 then
      for _ = 0 to Prng.int g 3 do
        let r = Prng.int g n_right in
        Bipartite.add_edge b ~left:l ~right:r;
        if Prng.bool g then Bipartite.add_edge b ~left:l ~right:r
      done
  done;
  b

let test_violator_from_non_maximum_matching () =
  (* 200 requests over 50 boxes of 0-2 slots: one proposal round leaves
     augmenting paths, so the search must discard the greedy matching
     and still return the flow-cut certificate *)
  let g = Prng.create ~seed:0xce27 () in
  let b = certificate_instance g ~n_left:200 ~n_right:50 in
  let greedy = Bipartite.solve_greedy ~rounds:1 (Prng.create ~seed:1 ()) b in
  let maximum = Bipartite.solve b in
  checkb "greedy matching is not maximum" true
    (greedy.Bipartite.matched < maximum.Bipartite.matched);
  let reference = Vod_check.Certificate.reference_violator b in
  checkb "instance is infeasible" true (reference <> None);
  checkb "same certificate from the greedy matching" true
    (Bipartite.hall_violator ~matching:greedy b = reference);
  checkb "same certificate from a maximum matching" true
    (Bipartite.hall_violator ~matching:maximum b = reference)

(* Brute-force maximum b-matching on tiny instances, for ground truth. *)
let brute_force_max_matching ~n_left ~adj ~right_cap =
  let best = ref 0 in
  let load = Array.make (Array.length right_cap) 0 in
  let rec go l matched =
    if l = n_left then best := max !best matched
    else begin
      (* leave request l unmatched *)
      go (l + 1) matched;
      Array.iter
        (fun r ->
          if load.(r) < right_cap.(r) then begin
            load.(r) <- load.(r) + 1;
            go (l + 1) (matched + 1);
            load.(r) <- load.(r) - 1
          end)
        adj.(l)
    end
  in
  go 0 0;
  !best

let random_bipartite g ~n_left ~n_right ~max_cap ~edge_prob =
  let right_cap = Array.init n_right (fun _ -> Prng.int g (max_cap + 1)) in
  let adj =
    Array.init n_left (fun _ ->
        let row = Vec.create () in
        for r = 0 to n_right - 1 do
          if Prng.float g 1.0 < edge_prob then Vec.push row r
        done;
        Vec.to_array row)
  in
  (adj, right_cap)

let test_matching_vs_bruteforce () =
  let g = Prng.create ~seed:7 () in
  for _ = 1 to 60 do
    let n_left = 1 + Prng.int g 6 and n_right = 1 + Prng.int g 5 in
    let adj, right_cap = random_bipartite g ~n_left ~n_right ~max_cap:2 ~edge_prob:0.5 in
    let truth = brute_force_max_matching ~n_left ~adj ~right_cap in
    let b = Bipartite.create ~n_left ~n_right ~right_cap in
    Array.iteri (fun l rs -> Array.iter (fun r -> Bipartite.add_edge b ~left:l ~right:r) rs) adj;
    List.iter
      (fun solve -> checki "matches brute force" truth (solve b).Bipartite.matched)
      all_solvers
  done

(* ------------------------------------------------------------------ *)
(* Expander                                                            *)
(* ------------------------------------------------------------------ *)

let test_expander_perfect_matching_graph () =
  (* identity graph: each left sees exactly its own right; ratio 1 *)
  let adj = Array.init 4 (fun i -> [| i |]) in
  checkf "identity ratio" 1.0 (Expander.exact_min_ratio ~adj ~n_right:4)

let test_expander_star () =
  (* all lefts share one right: worst X is everything, ratio 1/4 *)
  let adj = Array.init 4 (fun _ -> [| 0 |]) in
  checkf "star ratio" 0.25 (Expander.exact_min_ratio ~adj ~n_right:1)

let test_expander_slot_weighting () =
  let adj = Array.init 4 (fun _ -> [| 0 |]) in
  checkf "slots lift ratio" 1.0 (Expander.exact_min_slot_ratio ~adj ~right_cap:[| 4 |])

let test_expander_sampled_upper_bounds_exact () =
  let g = Prng.create ~seed:5 () in
  for _ = 1 to 20 do
    let n_left = 2 + Prng.int g 8 and n_right = 2 + Prng.int g 6 in
    let adj, right_cap = random_bipartite g ~n_left ~n_right ~max_cap:3 ~edge_prob:0.6 in
    let exact = Expander.exact_min_slot_ratio ~adj ~right_cap in
    let sampled = Expander.sampled_min_slot_ratio g ~adj ~right_cap ~samples:20 in
    checkb "sampled >= exact (upper bound on min)" true (sampled >= exact -. 1e-9)
  done

let test_expander_rejects_large () =
  let adj = Array.make 23 [| 0 |] in
  Alcotest.check_raises "too large"
    (Invalid_argument "Expander: exact scan limited to 22 left vertices") (fun () ->
      ignore (Expander.exact_min_ratio ~adj ~n_right:1))

(* Lemma 1 consistency: feasibility iff min slot-expansion ratio >= 1. *)
let test_hall_iff_expansion () =
  let g = Prng.create ~seed:11 () in
  for _ = 1 to 60 do
    let n_left = 1 + Prng.int g 7 and n_right = 1 + Prng.int g 5 in
    let adj, right_cap = random_bipartite g ~n_left ~n_right ~max_cap:2 ~edge_prob:0.6 in
    let ratio = Expander.exact_min_slot_ratio ~adj ~right_cap in
    let b = Bipartite.create ~n_left ~n_right ~right_cap in
    Array.iteri (fun l rs -> Array.iter (fun r -> Bipartite.add_edge b ~left:l ~right:r) rs) adj;
    let feasible = Bipartite.is_feasible b in
    checkb "Lemma 1: feasible iff expansion >= 1" feasible (ratio >= 1.0 -. 1e-9)
  done

(* ------------------------------------------------------------------ *)
(* CSR builder and solver arenas                                       *)
(* ------------------------------------------------------------------ *)

(* The reference normal form: per-row sorted, deduplicated. *)
let normalise adj =
  Array.map
    (fun row ->
      let sorted = Array.copy row in
      Array.sort compare sorted;
      Array.of_list (List.sort_uniq compare (Array.to_list sorted)))
    adj

let test_csr_roundtrip_basic () =
  (* duplicates, an empty row, unsorted insertion order *)
  let adj = [| [| 2; 0; 2; 1 |]; [||]; [| 1; 1 |] |] in
  let csr = Csr.of_adjacency ~n_right:3 adj in
  checki "n_left" 3 (Csr.n_left csr);
  checki "n_right" 3 (Csr.n_right csr);
  checki "distinct edges" 4 (Csr.n_edges csr);
  Alcotest.check (Alcotest.array (Alcotest.array Alcotest.int)) "round-trip" (normalise adj)
    (Csr.to_adjacency csr);
  checki "degree dedups" 3 (Csr.degree csr 0);
  checki "degree empty" 0 (Csr.degree csr 1);
  checkb "mem" true (Csr.mem csr ~left:0 ~right:1);
  checkb "not mem" false (Csr.mem csr ~left:1 ~right:0)

let test_csr_builder_reuse () =
  let csr = Csr.create () in
  (* two fills of different shapes through the same buffers *)
  Csr.load_adjacency csr ~n_right:4 [| [| 3; 3; 0 |]; [| 2 |] |];
  Alcotest.check (Alcotest.array (Alcotest.array Alcotest.int)) "first fill"
    [| [| 0; 3 |]; [| 2 |] |]
    (Csr.to_adjacency csr);
  Csr.load_adjacency csr ~right_cap:[| 5; 6 |] ~n_right:2 [| [| 1 |]; [| 0; 1 |]; [||] |];
  Alcotest.check (Alcotest.array (Alcotest.array Alcotest.int)) "second fill"
    [| [| 1 |]; [| 0; 1 |]; [||] |]
    (Csr.to_adjacency csr);
  checki "caps follow the refill" 6 (Csr.right_cap csr 1);
  (* incremental add_edge after a finalize reuses the pending list *)
  Csr.add_edge csr ~left:2 ~right:0;
  checki "edge count grows" 4 (Csr.n_edges csr);
  checkb "new edge visible" true (Csr.mem csr ~left:2 ~right:0)

let outcome_triple (o : Bipartite.outcome) =
  (o.Bipartite.matched, Array.to_list o.Bipartite.assignment, Array.to_list o.Bipartite.right_load)

let test_bipartite_reset_reuse () =
  let b = Bipartite.create ~n_left:2 ~n_right:2 ~right_cap:[| 1; 1 |] in
  Bipartite.add_edge b ~left:0 ~right:0;
  Bipartite.add_edge b ~left:1 ~right:0;
  checki "first shape matched" 1 (Bipartite.solve b).Bipartite.matched;
  (* rewind to a different shape, reusing every buffer *)
  Bipartite.reset b ~n_left:3 ~n_right:2 ~right_cap:[| 2; 1 |];
  checki "edges dropped by reset" 0 (Bipartite.degree b 0);
  Bipartite.add_edge b ~left:0 ~right:0;
  Bipartite.add_edge b ~left:1 ~right:0;
  Bipartite.add_edge b ~left:2 ~right:1;
  let o = Bipartite.solve b in
  checki "second shape matched" 3 o.Bipartite.matched;
  checki "right load follows the new caps" 2 o.Bipartite.right_load.(0);
  Alcotest.check_raises "reset validates caps"
    (Invalid_argument "Bipartite.reset: right_cap length mismatch") (fun () ->
      Bipartite.reset b ~n_left:1 ~n_right:3 ~right_cap:[| 1 |])

let test_network_clear_reuse () =
  (* arc_hint pre-sizes; clear drops arcs but keeps nodes and capacity *)
  let net = Flow_network.create ~arc_hint:8 4 in
  let a = Flow_network.add_edge net ~src:0 ~dst:1 ~cap:5 in
  let _ = Flow_network.add_edge net ~src:1 ~dst:3 ~cap:2 in
  Flow_network.push net a 1;
  Flow_network.clear net;
  checki "arcs dropped" 0 (Flow_network.arc_count net);
  checki "nodes kept" 4 (Flow_network.node_count net);
  let b = Flow_network.add_edge net ~src:0 ~dst:3 ~cap:7 in
  checki "rebuild starts clean" 0 (Flow_network.flow net b);
  checki "rebuild max flow" 7 (Dinic.max_flow net ~src:0 ~sink:3);
  Alcotest.check_raises "negative hint"
    (Invalid_argument "Flow_network.create: negative arc hint") (fun () ->
      ignore (Flow_network.create ~arc_hint:(-1) 2))

let test_delta_rebuild_freezes () =
  let b = Bipartite.create ~n_left:2 ~n_right:2 ~right_cap:[| 1; 1 |] in
  Bipartite.add_edge b ~left:0 ~right:0;
  Bipartite.add_edge b ~left:1 ~right:1;
  (* keep row 0, rewrite row 1 with duplicates the rebuild must dedup *)
  Bipartite.delta_rebuild b ~n_left:2 ~right_cap:[| 1; 1 |]
    ~src_of:(fun l -> if l = 0 then 0 else -1)
    ~fill:(fun _ emit ->
      emit 1;
      emit 0;
      emit 1);
  checkb "delta view" true
    (Csr.to_adjacency (Bipartite.csr b) = [| [| 0 |]; [| 0; 1 |] |]);
  checki "delta solve" 2 (Bipartite.solve b).Bipartite.matched;
  Alcotest.check_raises "frozen after rebuild"
    (Invalid_argument "Csr.add_edge: instance is frozen after rebuild_rows (reset it first)")
    (fun () -> Bipartite.add_edge b ~left:0 ~right:1);
  (* reset thaws the instance for ordinary incremental building *)
  Bipartite.reset b ~n_left:1 ~n_right:2 ~right_cap:[| 1; 1 |];
  Bipartite.add_edge b ~left:0 ~right:1;
  checki "reset thaws" 1 (Bipartite.solve b).Bipartite.matched

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let qcheck_cases =
  let open QCheck in
  let instance_gen =
    Gen.(
      let* seed = int_range 0 1_000_000 in
      let* n_left = int_range 1 10 in
      let* n_right = int_range 1 8 in
      return (seed, n_left, n_right))
  in
  let arb = make instance_gen in
  [
    Test.make ~name:"three matchers agree on random instances" ~count:150 arb
      (fun (seed, n_left, n_right) ->
        let g = Prng.create ~seed () in
        let adj, right_cap = random_bipartite g ~n_left ~n_right ~max_cap:3 ~edge_prob:0.5 in
        let b = Bipartite.create ~n_left ~n_right ~right_cap in
        Array.iteri
          (fun l rs -> Array.iter (fun r -> Bipartite.add_edge b ~left:l ~right:r) rs)
          adj;
        let d = (Reference.solve `Dinic b).Bipartite.matched in
        let p = (Reference.solve `Push_relabel b).Bipartite.matched in
        let h = (Bipartite.solve b).Bipartite.matched in
        d = p && p = h);
    Test.make ~name:"assignment respects adjacency and capacity" ~count:150 arb
      (fun (seed, n_left, n_right) ->
        let g = Prng.create ~seed () in
        let adj, right_cap = random_bipartite g ~n_left ~n_right ~max_cap:3 ~edge_prob:0.5 in
        let b = Bipartite.create ~n_left ~n_right ~right_cap in
        Array.iteri
          (fun l rs -> Array.iter (fun r -> Bipartite.add_edge b ~left:l ~right:r) rs)
          adj;
        let o = Bipartite.solve b in
        let load = Array.make n_right 0 in
        let ok = ref true in
        Array.iteri
          (fun l r ->
            if r >= 0 then begin
              if not (Array.mem r adj.(l)) then ok := false;
              load.(r) <- load.(r) + 1
            end)
          o.Bipartite.assignment;
        Array.iteri (fun r c -> if c > right_cap.(r) then ok := false) load;
        !ok);
    Test.make ~name:"hall violator certificate is always valid" ~count:150 arb
      (fun (seed, n_left, n_right) ->
        let g = Prng.create ~seed () in
        let adj, right_cap = random_bipartite g ~n_left ~n_right ~max_cap:2 ~edge_prob:0.4 in
        let b = Bipartite.create ~n_left ~n_right ~right_cap in
        Array.iteri
          (fun l rs -> Array.iter (fun r -> Bipartite.add_edge b ~left:l ~right:r) rs)
          adj;
        match Bipartite.hall_violator b with
        | None -> Bipartite.is_feasible b
        | Some v ->
            (* certificate must be a true violation and must cover all
               neighbours of X *)
            let module S = Set.Make (Int) in
            let servers = S.of_list v.Bipartite.servers in
            let neighbours_covered =
              List.for_all
                (fun l -> Array.for_all (fun r -> S.mem r servers) adj.(l))
                v.Bipartite.requests
            in
            let slots = List.fold_left (fun a r -> a + right_cap.(r)) 0 v.Bipartite.servers in
            (not (Bipartite.is_feasible b))
            && neighbours_covered
            && slots = v.Bipartite.server_slots
            && slots < List.length v.Bipartite.requests);
    Test.make ~name:"hall violator equals the flow-cut reference" ~count:300 arb
      (fun (seed, n_left, n_right) ->
        let g = Prng.create ~seed () in
        let b = certificate_instance g ~n_left ~n_right in
        let reference = Vod_check.Certificate.reference_violator b in
        (* one dirty arena across every search, as in the engine *)
        let arena = Arena.create () in
        let from matching = Bipartite.hall_violator ~arena ?matching b = reference in
        from None
        && List.for_all (fun solve -> from (Some (solve b))) all_solvers
        && from (Some (Bipartite.solve_greedy ~rounds:1 g b)));
    Test.make ~name:"CSR builder round-trips arbitrary adjacencies" ~count:200 arb
      (fun (seed, n_left, n_right) ->
        let g = Prng.create ~seed () in
        let adj, right_cap =
          random_bipartite g ~n_left ~n_right ~max_cap:3 ~edge_prob:0.5
        in
        (* inject duplicates and keep some rows empty *)
        let adj =
          Array.map
            (fun row ->
              if Array.length row > 0 && Prng.bool g then
                Array.append row [| row.(Prng.int g (Array.length row)) |]
              else row)
            adj
        in
        let csr = Csr.of_adjacency ~right_cap ~n_right adj in
        Csr.to_adjacency csr = normalise adj
        && Csr.n_edges csr = Array.fold_left (fun a r -> a + Array.length r) 0 (normalise adj));
    Test.make ~name:"dirty-arena solves are deterministic and optimal" ~count:100 arb
      (fun (seed, n_left, n_right) ->
        let g = Prng.create ~seed () in
        let adj, right_cap =
          random_bipartite g ~n_left ~n_right ~max_cap:3 ~edge_prob:0.5
        in
        let b = Bipartite.create ~n_left ~n_right ~right_cap in
        Array.iteri
          (fun l rs -> Array.iter (fun r -> Bipartite.add_edge b ~left:l ~right:r) rs)
          adj;
        let arena = Arena.create () in
        (* dirty the arena on a different shape first *)
        let noise = Bipartite.create ~n_left:5 ~n_right:2 ~right_cap:[| 1; 2 |] in
        Bipartite.add_edge noise ~left:0 ~right:1;
        ignore (Bipartite.solve ~arena noise);
        (* the same instance twice through the dirty arena: the core must
           initialise everything it reads, so the outcomes are identical
           and as large as every reference's *)
        let o1 = Bipartite.solve ~arena b in
        let o2 = Bipartite.solve ~arena b in
        outcome_triple o1 = outcome_triple o2
        && List.for_all
             (fun algorithm ->
               (Reference.solve algorithm b).Bipartite.matched = o1.Bipartite.matched)
             [ `Slots; `Dinic; `Push_relabel ]);
    Test.make ~name:"delta rebuilds track scratch builds under churn" ~count:60 arb
      (fun (seed, n_left, n_right) ->
        let g = Prng.create ~seed () in
        let random_row () =
          (* raw neighbour list, duplicates allowed: the rebuild dedups *)
          let picks = ref [] in
          for r = 0 to n_right - 1 do
            if Prng.float g 1.0 < 0.4 then begin
              picks := r :: !picks;
              if Prng.float g 1.0 < 0.2 then picks := r :: !picks
            end
          done;
          Array.of_list !picks
        in
        let right_cap = Array.init n_right (fun _ -> Prng.int g 3) in
        let rows = ref (Array.init n_left (fun _ -> random_row ())) in
        let load bip =
          Array.iteri
            (fun l rs -> Array.iter (fun r -> Bipartite.add_edge bip ~left:l ~right:r) rs)
            !rows
        in
        let delta = Bipartite.create ~n_left ~n_right ~right_cap in
        load delta;
        let scratch = Bipartite.create ~n_left ~n_right ~right_cap in
        load scratch;
        let ok = ref true in
        for _ = 1 to 5 do
          (* churn: drop some rows, rewrite some survivors, append a few *)
          let survivors =
            Array.to_list (Array.mapi (fun i row -> (i, row)) !rows)
            |> List.filter (fun _ -> Prng.float g 1.0 < 0.8)
          in
          let next =
            List.map
              (fun (src, row) ->
                if Prng.float g 1.0 < 0.3 then (-1, random_row ()) else (src, row))
              survivors
            @ List.init (Prng.int g 3) (fun _ -> (-1, random_row ()))
          in
          let src = Array.of_list (List.map fst next) in
          rows := Array.of_list (List.map snd next);
          let n_left' = Array.length !rows in
          Bipartite.delta_rebuild delta ~n_left:n_left' ~right_cap
            ~src_of:(fun l -> src.(l))
            ~fill:(fun l emit -> Array.iter emit !rows.(l));
          Bipartite.reset scratch ~n_left:n_left' ~n_right ~right_cap;
          load scratch;
          if
            Csr.to_adjacency (Bipartite.csr delta)
            <> Csr.to_adjacency (Bipartite.csr scratch)
            || outcome_triple (Bipartite.solve delta)
               <> outcome_triple (Bipartite.solve scratch)
          then ok := false
        done;
        !ok);
    Test.make ~name:"max flow is invariant under solver choice" ~count:100
      (make
         Gen.(
           let* seed = int_range 0 1_000_000 in
           let* n = int_range 2 14 in
           return (seed, n)))
      (fun (seed, n) ->
        let build s = random_network (Prng.create ~seed:s ()) n (3 * n) 8 in
        let a = build seed and b = build seed in
        Dinic.max_flow a ~src:0 ~sink:(n - 1) = Push_relabel.max_flow b ~src:0 ~sink:(n - 1));
  ]

let suites =
  [
    ( "graph.network",
      [
        Alcotest.test_case "construction" `Quick test_network_construction;
        Alcotest.test_case "push and reset" `Quick test_network_push_and_reset;
        Alcotest.test_case "invalid args" `Quick test_network_invalid;
      ] );
    ( "graph.maxflow",
      [
        Alcotest.test_case "dinic CLRS instance" `Quick test_dinic_clrs;
        Alcotest.test_case "push-relabel CLRS instance" `Quick test_push_relabel_clrs;
        Alcotest.test_case "disconnected" `Quick test_dinic_disconnected;
        Alcotest.test_case "parallel edges" `Quick test_dinic_parallel_edges;
        Alcotest.test_case "flow limit" `Quick test_dinic_limit;
        Alcotest.test_case "bottleneck chain" `Quick test_dinic_bottleneck_chain;
        Alcotest.test_case "invalid args" `Quick test_dinic_invalid;
        Alcotest.test_case "min-cut reachability" `Quick test_mincut_reachability;
        Alcotest.test_case "solvers agree on random nets" `Quick test_solvers_agree_random;
      ] );
    ( "graph.hopcroft_karp",
      [
        Alcotest.test_case "perfect matching" `Quick test_hk_perfect_matching;
        Alcotest.test_case "capacitated right" `Quick test_hk_capacitated;
        Alcotest.test_case "saturated right" `Quick test_hk_saturated;
        Alcotest.test_case "empty" `Quick test_hk_empty;
        Alcotest.test_case "isolated left" `Quick test_hk_isolated_left;
        Alcotest.test_case "invalid" `Quick test_hk_invalid;
      ] );
    ( "graph.bipartite",
      [
        Alcotest.test_case "feasible, all algorithms" `Quick test_bipartite_feasible_all_algorithms;
        Alcotest.test_case "duplicate edges ignored" `Quick test_bipartite_duplicate_edges_ignored;
        Alcotest.test_case "infeasible + violator" `Quick test_bipartite_infeasible;
        Alcotest.test_case "feasible has no violator" `Quick test_bipartite_feasible_no_violator;
        Alcotest.test_case "violator localised" `Quick test_bipartite_violator_is_localised;
        Alcotest.test_case "zero-capacity boxes" `Quick test_bipartite_zero_capacity_boxes;
        Alcotest.test_case "empty instance" `Quick test_bipartite_empty;
        Alcotest.test_case "violator from non-maximum matching" `Quick
          test_violator_from_non_maximum_matching;
        Alcotest.test_case "matches brute force" `Quick test_matching_vs_bruteforce;
      ] );
    ( "graph.expander",
      [
        Alcotest.test_case "identity graph" `Quick test_expander_perfect_matching_graph;
        Alcotest.test_case "star graph" `Quick test_expander_star;
        Alcotest.test_case "slot weighting" `Quick test_expander_slot_weighting;
        Alcotest.test_case "sampled upper-bounds exact" `Quick test_expander_sampled_upper_bounds_exact;
        Alcotest.test_case "rejects large instances" `Quick test_expander_rejects_large;
        Alcotest.test_case "Lemma 1: Hall iff expansion" `Quick test_hall_iff_expansion;
      ] );
    ( "graph.csr",
      [
        Alcotest.test_case "round-trip basics" `Quick test_csr_roundtrip_basic;
        Alcotest.test_case "builder reuse" `Quick test_csr_builder_reuse;
        Alcotest.test_case "bipartite reset reuse" `Quick test_bipartite_reset_reuse;
        Alcotest.test_case "network clear + arc_hint" `Quick test_network_clear_reuse;
        Alcotest.test_case "delta rebuild freezes" `Quick test_delta_rebuild_freezes;
      ] );
    ("graph.properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
  ]
