(* Scratch-vs-incremental matching benchmark.

   Synthesises round sequences that mimic the engine's per-round
   instance delta — a small fraction of requests departs and is
   replaced by fresh arrivals each round, capacities drift slightly —
   and times three paths over the identical instance sequence:

     scratch      Bipartite.solve (Dinic CSR core) into a shared arena
     incremental  warm-start repair (Bipartite.solve_incremental)
     csr_hk       the bare Hopcroft–Karp CSR core over a shared arena,
                  no outcome materialisation — the zero-allocation path

   Besides ns/round each record carries alloc/round, the
   [allocated_bytes] delta per round of the timed region: the
   csr_hk row is the one the zero-allocation acceptance watches (~0
   bytes once the arena has grown).  Emits both a human table and (via
   {!emit_json}) the machine-readable [BENCH_matching.json] record set
   that `bench/compare.exe` diffs against the committed baseline in
   CI. *)

open Vod

type record = {
  name : string;
  n : int;
  rounds : int;
  ns_per_round : float;
  matched_per_round : float;
  alloc_per_round : float; (* bytes *)
}

type scenario = { label : string; churn : float }

let scenarios = [ { label = "low-churn"; churn = 0.02 }; { label = "high-churn"; churn = 0.40 } ]
let sizes = [ 256; 1024; 4096; 16384 ]

(* One identity-stable synthetic round sequence: request l keeps its row
   (and hence its warm seat) unless churned, in which case it models a
   departure plus a fresh arrival.  Returns the instances plus the
   per-round churn sets (the lefts whose warm seat must be dropped). *)
let make_sequence ~seed ~n_left ~rounds ~churn =
  let g = Prng.create ~seed () in
  let n_right = max 1 (n_left / 4) in
  let degree = 8 in
  let fresh_row () = Array.init degree (fun _ -> Prng.int g n_right) in
  let right_cap = Array.init n_right (fun _ -> 2 + Prng.int g 7) in
  let adj = Array.init n_left (fun _ -> fresh_row ()) in
  let instances = ref [] in
  for _round = 1 to rounds do
    let churned = ref [] in
    for l = 0 to n_left - 1 do
      if Prng.float g 1.0 < churn then begin
        adj.(l) <- fresh_row ();
        churned := l :: !churned
      end
    done;
    (* capacity drift: a couple of boxes gain or lose one upload slot *)
    for _ = 1 to max 1 (n_right / 128) do
      let r = Prng.int g n_right in
      right_cap.(r) <- max 1 (right_cap.(r) + (if Prng.bool g then 1 else -1))
    done;
    let inst = Bipartite.create ~n_left ~n_right ~right_cap in
    Array.iteri
      (fun l row -> Array.iter (fun r -> Bipartite.add_edge inst ~left:l ~right:r) row)
      adj;
    (* force CSR finalize and the memoised dedup now so no timed solver
       pays for either *)
    ignore (Bipartite.csr inst);
    ignore (Bipartite.adjacency inst);
    instances := (inst, !churned) :: !instances
  done;
  List.rev !instances

let now_ns () = Unix.gettimeofday () *. 1e9

(* Bytes allocated so far.  [Gc.allocated_bytes] misses what the minor
   heap took since its last collection (up to its whole size, which
   would swamp a few-round record); [Gc.minor_words] is exact, and the
   quick_stat terms add the direct major-heap allocations. *)
let allocated_bytes () =
  let s = Gc.quick_stat () in
  let words = Gc.minor_words () +. s.major_words -. s.promoted_words in
  words *. float_of_int (Sys.word_size / 8)

(* Every timed path reuses one arena per call, like the engine does;
   each timer returns (elapsed ns, total matched, allocated bytes). *)

let time_scratch seq ~arena =
  let matched = ref 0 in
  let b0 = allocated_bytes () in
  let t0 = now_ns () in
  List.iter
    (fun (inst, _) ->
      let o = Bipartite.solve ~arena inst in
      matched := !matched + o.Bipartite.matched)
    seq;
  let ns = now_ns () -. t0 in
  (ns, !matched, allocated_bytes () -. b0)

let time_incremental seq ~arena ~n_left =
  let st = Bipartite.Incremental.create () in
  let warm = ref (Array.make n_left (-1)) in
  let matched = ref 0 in
  let b0 = allocated_bytes () in
  let t0 = now_ns () in
  List.iter
    (fun (inst, churned) ->
      (* departures/arrivals lose their seat; survivors keep theirs *)
      List.iter (fun l -> !warm.(l) <- -1) churned;
      let o = Bipartite.solve_incremental st ~arena ~warm_start:!warm inst in
      warm := o.Bipartite.assignment;
      matched := !matched + o.Bipartite.matched)
    seq;
  let ns = now_ns () -. t0 in
  (ns, !matched, allocated_bytes () -. b0)

(* The bare CSR core: no outcome arrays, results stay in the arena.
   This is the ~0 bytes/round row. *)
let time_csr_hk seq ~arena =
  let matched = ref 0 in
  let b0 = allocated_bytes () in
  let t0 = now_ns () in
  List.iter
    (fun (inst, _) ->
      matched := !matched + Hopcroft_karp.solve_csr ~arena (Bipartite.csr inst))
    seq;
  let ns = now_ns () -. t0 in
  (ns, !matched, allocated_bytes () -. b0)

let run () =
  let records = ref [] in
  let arena = Arena.create () in
  List.iter
    (fun { label; churn } ->
      List.iter
        (fun n_left ->
          (* Small sizes need more rounds: the timed region must stay
             well above scheduler-jitter scale or the compare gate sees
             phantom regressions. *)
          let rounds =
            if n_left >= 16384 then 12 else if n_left >= 4096 then 32 else 96
          in
          let seq = make_sequence ~seed:(0xbe2c + n_left) ~n_left ~rounds ~churn in
          (* warm all paths once (allocator, code, arena growth) before
             timing *)
          ignore (time_scratch [ List.hd seq ] ~arena);
          ignore (time_incremental [ List.hd seq ] ~arena ~n_left);
          ignore (time_csr_hk [ List.hd seq ] ~arena);
          (* best-of-5: scheduler hiccups only ever add time, so the
             minimum is the stable estimate the regression gate needs;
             allocation is deterministic, so any run's delta serves *)
          let best_of f =
            let best = ref infinity and matched = ref 0 and bytes = ref 0.0 in
            for _ = 1 to 5 do
              let ns, m, b = f () in
              if ns < !best then best := ns;
              matched := m;
              bytes := b
            done;
            (!best, !matched, !bytes)
          in
          let scratch_ns, scratch_matched, scratch_b =
            best_of (fun () -> time_scratch seq ~arena)
          in
          let inc_ns, inc_matched, inc_b =
            best_of (fun () -> time_incremental seq ~arena ~n_left)
          in
          let hk_ns, hk_matched, hk_b = best_of (fun () -> time_csr_hk seq ~arena) in
          if scratch_matched <> inc_matched || scratch_matched <> hk_matched then
            failwith
              (Printf.sprintf
                 "bench_matching: solvers disagree at n=%d %s (scratch %d, \
                  incremental %d, csr_hk %d)"
                 n_left label scratch_matched inc_matched hk_matched);
          let r = float_of_int rounds in
          let mk name ns matched bytes =
            {
              name;
              n = n_left;
              rounds;
              ns_per_round = ns /. r;
              matched_per_round = float_of_int matched /. r;
              alloc_per_round = bytes /. r;
            }
          in
          records :=
            mk (Printf.sprintf "matching/csr_hk/%s" label) hk_ns hk_matched hk_b
            :: mk (Printf.sprintf "matching/incremental/%s" label) inc_ns inc_matched
                 inc_b
            :: mk (Printf.sprintf "matching/scratch/%s" label) scratch_ns
                 scratch_matched scratch_b
            :: !records)
        sizes)
    scenarios;
  List.rev !records

(* ------------------------------------------------------------------ *)
(* Hall certificate on failing rounds                                  *)
(* ------------------------------------------------------------------ *)

(* Below the threshold every round fails.  The instances give 0.75
   upload slots per request (u = 0.75), unevenly, as a catalog does:
   blocks of 128 requests of degree 8 over 32 boxes, rich blocks (4-6
   slots per box) alternating with poor ones (0-2 slots), so each round
   has a certificate covering the poor blocks while the rich ones are
   served in full.  The timed row is what the engine's account phase
   runs on a failing round: [Bipartite.hall_violator] searching from
   the round's own maximum matching (solved outside the timed region),
   in a shared arena.  [matched_per_round] carries |X|, the
   certificate's request count, so a changed certificate shows as drift
   in the compare gate.  With [~reference] the flow-cut extractor the
   search replaced ([Check.Certificate.reference_violator], two Dinic
   max flows over explicit networks) is timed on the same instances as
   the before row, and the two certificates must be equal. *)
let certificate_sizes = [ 4096; 16384 ]

let below_threshold_rounds ~seed ~n_left ~rounds =
  let g = Prng.create ~seed () in
  let n_right = n_left / 4 in
  let rich r = r / 32 mod 2 = 0 in
  List.init rounds (fun _ ->
      let right_cap =
        Array.init n_right (fun r -> (if rich r then 4 else 0) + Prng.int g 3)
      in
      let inst = Bipartite.create ~n_left ~n_right ~right_cap in
      for l = 0 to n_left - 1 do
        for _ = 1 to 8 do
          Bipartite.add_edge inst ~left:l ~right:((l / 128 * 32) + Prng.int g 32)
        done
      done;
      ignore (Bipartite.adjacency inst);
      (inst, Bipartite.solve ~algorithm:Bipartite.Hopcroft_karp_matching inst))

let time_certificates rounds ~extract =
  let x = ref 0 in
  let b0 = allocated_bytes () in
  let t0 = now_ns () in
  List.iter
    (fun (inst, matching) ->
      match extract inst matching with
      | Some v -> x := !x + List.length v.Bipartite.requests
      | None -> failwith "bench_matching: a below-threshold round has no certificate")
    rounds;
  let ns = now_ns () -. t0 in
  (ns, !x, allocated_bytes () -. b0)

let run_certificate ?(reference = false) sizes =
  let arena = Arena.create () in
  List.concat_map
    (fun n_left ->
      let rounds = if n_left >= 16384 then 4 else 8 in
      let seq = below_threshold_rounds ~seed:(0xce27 + n_left) ~n_left ~rounds in
      let best_of reps extract =
        ignore (time_certificates [ List.hd seq ] ~extract);
        let best = ref infinity and x = ref 0 and bytes = ref 0.0 in
        for _ = 1 to reps do
          let ns, n, b = time_certificates seq ~extract in
          if ns < !best then best := ns;
          x := n;
          bytes := b
        done;
        let r = float_of_int rounds in
        (!best /. r, float_of_int !x /. r, !bytes /. r)
      in
      let mk name (ns_per_round, matched_per_round, alloc_per_round) =
        { name; n = n_left; rounds; ns_per_round; matched_per_round; alloc_per_round }
      in
      let search inst matching = Bipartite.hall_violator ~arena ~matching inst in
      let after = mk "certificate/hall_violator" (best_of 5 search) in
      if not reference then [ after ]
      else begin
        List.iter
          (fun (inst, matching) ->
            if search inst matching <> Check.Certificate.reference_violator inst then
              failwith
                (Printf.sprintf
                   "bench_matching: certificate differs from the reference at n=%d"
                   n_left))
          seq;
        let flow_cut inst _ = Check.Certificate.reference_violator inst in
        [ after; mk "certificate/reference_violator" (best_of 2 flow_cut) ]
      end)
    sizes

(* The pinned points of the CI kernel smoke: the bare CSR Hopcroft-Karp
   core at n=16384 low churn and the Hall certificate search at
   n=16384, each checked against an absolute ns/round ceiling
   (compare.exe --ceiling) so a kernel regression fails fast without
   waiting for the full bench leg. *)
let run_smoke () =
  let arena = Arena.create () in
  let n_left = 16384 and rounds = 12 in
  let seq = make_sequence ~seed:(0xbe2c + n_left) ~n_left ~rounds ~churn:0.02 in
  ignore (time_csr_hk [ List.hd seq ] ~arena);
  let best = ref infinity and matched = ref 0 and bytes = ref 0.0 in
  for _ = 1 to 5 do
    let ns, m, b = time_csr_hk seq ~arena in
    if ns < !best then best := ns;
    matched := m;
    bytes := b
  done;
  let r = float_of_int rounds in
  {
    name = "matching/csr_hk/low-churn";
    n = n_left;
    rounds;
    ns_per_round = !best /. r;
    matched_per_round = float_of_int !matched /. r;
    alloc_per_round = !bytes /. r;
  }
  :: run_certificate [ 16384 ]

(* ------------------------------------------------------------------ *)
(* Component-sharded solving at swarm scale                            *)
(* ------------------------------------------------------------------ *)

(* Swarm-structured instances: the catalog decomposes the fleet into
   independent swarms, so a round's bipartite instance is a disjoint
   union of blocks — exactly the shape the component sharder exploits.
   [block_lefts] requests share [block_rights] boxes; churn rewrites a
   row inside its own block, so the component structure is stable and a
   delta rebuild touches only the dirty rows.  This is the regime of
   the large-n acceptance points (n = 262144 and n = 1e6). *)
let block_lefts = 128
let block_rights = 32
let swarm_degree = 8
let swarm_churn = 0.05
let swarm_n_right n_left = (n_left + block_lefts - 1) / block_lefts * block_rights

let swarm_refill g rows l =
  let base = l / block_lefts * block_rights in
  for i = 0 to swarm_degree - 1 do
    rows.((l * swarm_degree) + i) <- base + Prng.int g block_rights
  done

type swarm_pass = { ns : float; matched : int; bytes : float }

(* One pass: build the instance once, then [rounds] churn steps, each a
   delta-CSR rebuild of the dirty rows followed by [solve].  The timed
   region covers rebuild + solve — the full per-round cost the engine
   pays — but not the initial construction or the solver warm-up. *)
let run_swarm_pass ~seed ~n_left ~rounds ~solve =
  let g = Prng.create ~seed () in
  let n_right = swarm_n_right n_left in
  let right_cap = Array.init n_right (fun _ -> 2 + Prng.int g 7) in
  let rows = Array.make (n_left * swarm_degree) 0 in
  for l = 0 to n_left - 1 do
    swarm_refill g rows l
  done;
  let fill l emit =
    for i = 0 to swarm_degree - 1 do
      emit rows.((l * swarm_degree) + i)
    done
  in
  let inst = Bipartite.create ~n_left ~n_right ~right_cap in
  for l = 0 to n_left - 1 do
    for i = 0 to swarm_degree - 1 do
      Bipartite.add_edge inst ~left:l ~right:rows.((l * swarm_degree) + i)
    done
  done;
  ignore (Bipartite.csr inst);
  ignore (solve inst);
  let dirty = Array.make n_left false in
  let matched = ref 0 in
  let b0 = allocated_bytes () in
  let t0 = now_ns () in
  for _round = 1 to rounds do
    Array.fill dirty 0 n_left false;
    for _ = 1 to max 1 (int_of_float (float_of_int n_left *. swarm_churn)) do
      let l = Prng.int g n_left in
      dirty.(l) <- true;
      swarm_refill g rows l
    done;
    Bipartite.delta_rebuild inst ~n_left ~right_cap
      ~src_of:(fun l -> if dirty.(l) then -1 else l)
      ~fill;
    matched := !matched + solve inst
  done;
  let ns = now_ns () -. t0 in
  { ns; matched = !matched; bytes = allocated_bytes () -. b0 }

(* The sharded path carries its warm seating across rounds, like the
   sharded engine does; stale seats re-validate inside the solver. *)
let sharded_solve ~n_left () =
  let sh = Shard.create () in
  let jobs = max 1 (Par.default_jobs ()) in
  let warm = Array.make (max n_left 1) (-1) in
  fun inst ->
    let size = Shard.solve ~jobs ~warm_start:warm sh (Bipartite.csr inst) in
    Array.blit (Shard.assignment sh) 0 warm 0 n_left;
    size

let hk_solve ~arena inst = Hopcroft_karp.solve_csr ~arena (Bipartite.csr inst)
let scale_sizes = [ 262_144; 1_000_000 ]

let run_sharded () =
  let arena = Arena.create () in
  List.concat_map
    (fun n_left ->
      let rounds = if n_left >= 1_000_000 then 3 else 6 in
      let reps = if n_left >= 1_000_000 then 2 else 3 in
      let best f =
        let p = ref (f ()) in
        for _ = 2 to reps do
          let q = f () in
          if q.ns < !p.ns then p := q
        done;
        !p
      in
      let seed = 0x5a2d + n_left in
      let sharded =
        best (fun () ->
            run_swarm_pass ~seed ~n_left ~rounds ~solve:(sharded_solve ~n_left ()))
      in
      let hk =
        best (fun () -> run_swarm_pass ~seed ~n_left ~rounds ~solve:(hk_solve ~arena))
      in
      if sharded.matched <> hk.matched then
        failwith
          (Printf.sprintf
             "bench_matching: sharded disagrees with csr_hk at n=%d (%d vs %d)"
             n_left sharded.matched hk.matched);
      let mk name p =
        {
          name;
          n = n_left;
          rounds;
          ns_per_round = p.ns /. float_of_int rounds;
          matched_per_round = float_of_int p.matched /. float_of_int rounds;
          alloc_per_round = p.bytes /. float_of_int rounds;
        }
      in
      [ mk "matching/sharded/swarms" sharded; mk "matching/csr_hk/swarms" hk ])
    scale_sizes

(* Catalog-scaling sweep: the per-request admission cost must stay flat
   as n grows — Theorem 1's linear-in-n scalability — across six orders
   of magnitude.  Printed only; the small sizes are too jittery for the
   regression gate, which watches the large JSON points instead. *)
let sweep_sizes = [ 10; 100; 1000; 10_000; 100_000; 1_000_000 ]

let print_scaling_sweep () =
  let tbl =
    Table.create
      ~columns:
        [
          ("n", Table.Right);
          ("rounds", Table.Right);
          ("ns/round", Table.Right);
          ("ns/round/n", Table.Right);
          ("matched/round", Table.Right);
        ]
  in
  List.iter
    (fun n_left ->
      let rounds =
        if n_left <= 100 then 64
        else if n_left <= 10_000 then 16
        else if n_left <= 100_000 then 8
        else 3
      in
      let p =
        run_swarm_pass ~seed:(0x51ee + n_left) ~n_left ~rounds
          ~solve:(sharded_solve ~n_left ())
      in
      let per_round = p.ns /. float_of_int rounds in
      Table.add_row tbl
        [
          string_of_int n_left;
          string_of_int rounds;
          Printf.sprintf "%.0f" per_round;
          Printf.sprintf "%.2f" (per_round /. float_of_int n_left);
          Printf.sprintf "%.1f" (float_of_int p.matched /. float_of_int rounds);
        ])
    sweep_sizes;
  Table.print
    ~title:"Sharded matching: catalog scaling (admission cost per request, Theorem 1)"
    tbl

let print_table records =
  let tbl =
    Table.create
      ~columns:
        [
          ("benchmark", Table.Left);
          ("n", Table.Right);
          ("rounds", Table.Right);
          ("ns/round", Table.Right);
          ("matched/round", Table.Right);
          ("alloc B/round", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row tbl
        [
          r.name;
          string_of_int r.n;
          string_of_int r.rounds;
          Printf.sprintf "%.0f" r.ns_per_round;
          Printf.sprintf "%.1f" r.matched_per_round;
          Printf.sprintf "%.0f" r.alloc_per_round;
        ])
    records;
  Table.print ~title:"Connection matching: scratch vs warm-start incremental" tbl;
  (* headline: the ratio the acceptance gate watches *)
  let find name n = List.find_opt (fun r -> r.name = name && r.n = n) records in
  match
    (find "matching/scratch/low-churn" 4096, find "matching/incremental/low-churn" 4096)
  with
  | Some s, Some i when i.ns_per_round > 0.0 ->
      Printf.printf "low-churn n=4096 speed-up (scratch / incremental): %.1fx\n"
        (s.ns_per_round /. i.ns_per_round)
  | _ -> ()

let emit_json records ~path =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"schema\": \"vod-bench-matching/1\",\n  \"records\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": \"%s\", \"n\": %d, \"rounds\": %d, \"ns_per_round\": %.3f, \
            \"matched_per_round\": %.3f, \"alloc_per_round\": %.1f}%s\n"
           r.name r.n r.rounds r.ns_per_round r.matched_per_round r.alloc_per_round
           (if i = List.length records - 1 then "" else ",")))
    records;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents buf));
  Printf.printf "matching bench records written to %s\n" path
