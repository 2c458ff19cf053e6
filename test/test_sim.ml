(* Tests for vod_sim: request lifecycle, preloading strategy, playback
   caches, matching failures and heterogeneous relaying. *)

open Vod_util
open Vod_model
module Engine = Vod_sim.Engine
module Metrics = Vod_sim.Metrics

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* A comfortable homogeneous test system: n boxes, u=2, d=4, c=2, k=2. *)
let build_system ?(n = 8) ?(u = 2.0) ?(d = 4.0) ?(c = 2) ?(mu = 2.0) ?(t = 10) ?(k = 2)
    ?(seed = 11) ?m () =
  let fleet = Box.Fleet.homogeneous ~n ~u ~d in
  let params = Params.make ~n ~c ~mu ~duration:t in
  let m = match m with Some m -> m | None -> Vod_alloc.Schemes.max_catalog ~fleet ~c ~k in
  let catalog = Catalog.create ~m ~c in
  let g = Prng.create ~seed () in
  let alloc = Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k in
  (params, fleet, alloc)

let test_create_validation () =
  let params, fleet, alloc = build_system () in
  let wrong_params = Params.make ~n:9 ~c:2 ~mu:2.0 ~duration:10 in
  Alcotest.check_raises "fleet mismatch"
    (Invalid_argument "Engine.create: fleet size <> params.n") (fun () ->
      ignore (Engine.create ~params:wrong_params ~fleet ~alloc ()));
  let sim = Engine.create ~params ~fleet ~alloc () in
  checki "time starts at 0" 0 (Engine.now sim)

let test_single_demand_lifecycle () =
  let params, fleet, alloc = build_system () in
  let sim = Engine.create ~params ~fleet ~alloc () in
  checkb "idle initially" true (Engine.is_idle sim 0);
  Engine.demand sim ~box:0 ~video:0;
  (* round 1: only the preload request is active *)
  let r1 = Engine.step sim in
  checki "round 1: one request" 1 r1.Engine.active_requests;
  checki "round 1: served" 1 r1.Engine.served;
  checki "round 1 unserved" 0 r1.Engine.unserved;
  checkb "box busy now" false (Engine.is_idle sim 0);
  (* round 2: preload + c-1 = 1 postponed *)
  let r2 = Engine.step sim in
  checki "round 2: two requests" 2 r2.Engine.active_requests;
  checki "round 2 unserved" 0 r2.Engine.unserved;
  (* drain: all requests finish after T service rounds each *)
  let rec drain i last =
    if i = 0 then last else drain (i - 1) (Engine.step sim)
  in
  let last = drain 14 r2 in
  checki "all drained" 0 last.Engine.active_requests;
  checkb "box idle again" true (Engine.is_idle sim 0)

let test_demand_on_busy_box_rejected () =
  let params, fleet, alloc = build_system () in
  let sim = Engine.create ~params ~fleet ~alloc () in
  Engine.demand sim ~box:0 ~video:0;
  Alcotest.check_raises "double demand" (Invalid_argument "Engine.demand: box is busy")
    (fun () -> Engine.demand sim ~box:0 ~video:1);
  ignore (Engine.step sim);
  Alcotest.check_raises "busy after step" (Invalid_argument "Engine.demand: box is busy")
    (fun () -> Engine.demand sim ~box:0 ~video:1)

let test_demand_validation () =
  let params, fleet, alloc = build_system () in
  let sim = Engine.create ~params ~fleet ~alloc () in
  Alcotest.check_raises "bad video" (Invalid_argument "Engine.demand: video out of range")
    (fun () -> Engine.demand sim ~box:0 ~video:10_000);
  Alcotest.check_raises "bad box" (Invalid_argument "Engine.demand: box out of range")
    (fun () -> Engine.demand sim ~box:(-1) ~video:0)

let test_swarm_tracking () =
  let params, fleet, alloc = build_system () in
  let sim = Engine.create ~params ~fleet ~alloc () in
  checki "empty swarm" 0 (Engine.swarm_size sim 0);
  Engine.demand sim ~box:0 ~video:0;
  ignore (Engine.step sim);
  checki "one member" 1 (Engine.swarm_size sim 0);
  Engine.demand sim ~box:1 ~video:0;
  ignore (Engine.step sim);
  checki "two members" 2 (Engine.swarm_size sim 0);
  (* push time beyond the window: members age out *)
  for _ = 1 to 12 do
    ignore (Engine.step sim)
  done;
  checki "swarm aged out" 0 (Engine.swarm_size sim 0)

let test_preload_counter_balances_stripes () =
  (* successive viewers of the same video must preload different
     stripes (round-robin), which the engine tracks per video *)
  let params, fleet, alloc = build_system ~n:8 ~c:2 () in
  let sim = Engine.create ~params ~fleet ~alloc () in
  (* two boxes enter the same swarm in consecutive rounds *)
  Engine.demand sim ~box:0 ~video:0;
  ignore (Engine.step sim);
  Engine.demand sim ~box:1 ~video:0;
  let r = Engine.step sim in
  (* no failure; both preloads plus box 0's postponed are in flight *)
  checki "requests in flight" 3 r.Engine.active_requests;
  checki "no unserved" 0 r.Engine.unserved

let test_cache_serving () =
  (* k=1, u=1 (2 slots at c=2): the lone allocation holder can serve
     box A's two stripes but not a second viewer; the later viewer must
     be fed from A's playback cache. *)
  let params, fleet, alloc = build_system ~n:6 ~u:1.0 ~d:4.0 ~c:2 ~k:1 ~m:4 () in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  (* pick a video and a demanding box that does not store it *)
  let video = 0 in
  let holder = (Allocation.boxes_of_stripe alloc 0).(0) in
  let all = List.init 6 Fun.id in
  let viewers = List.filter (fun b -> b <> holder) all in
  let a = List.nth viewers 0 and b = List.nth viewers 1 in
  Engine.demand sim ~box:a ~video;
  ignore (Engine.step sim);
  ignore (Engine.step sim);
  Engine.demand sim ~box:b ~video;
  let reports = List.init 8 (fun _ -> Engine.step sim) in
  let m = Metrics.summarise reports in
  checki "no unserved" 0 m.Metrics.total_unserved;
  checkb "cache used" true (m.Metrics.cache_share > 0.0)

let test_defeated_raises () =
  (* u = 0.5 -> 1 slot per box at c=2; k=1; demand two videos whose
     stripes live on the same holder: capacity 1 < demand *)
  let params, fleet, _ = build_system ~n:4 ~u:0.5 ~d:4.0 ~c:2 ~k:1 ~m:2 () in
  (* hand-build a pathological allocation: all four stripes on box 0 *)
  let catalog = Catalog.create ~m:2 ~c:2 in
  let alloc =
    Allocation.of_replica_lists ~catalog ~n_boxes:4 [| [| 0 |]; [| 0 |]; [| 0 |]; [| 0 |] |]
  in
  let sim = Engine.create ~params ~fleet ~alloc () in
  Engine.demand sim ~box:1 ~video:0;
  Engine.demand sim ~box:2 ~video:1;
  (* both preloads hit box 0 which has a single slot *)
  checkb "defeated" true
    (try
       ignore (Engine.step sim);
       false
     with Engine.Defeated r -> r.Engine.unserved > 0)

let test_continue_policy_records_violator () =
  let params, fleet, _ = build_system ~n:4 ~u:0.5 ~d:4.0 ~c:2 ~k:1 ~m:2 () in
  let catalog = Catalog.create ~m:2 ~c:2 in
  let alloc =
    Allocation.of_replica_lists ~catalog ~n_boxes:4 [| [| 0 |]; [| 0 |]; [| 0 |]; [| 0 |] |]
  in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  Engine.demand sim ~box:1 ~video:0;
  Engine.demand sim ~box:2 ~video:1;
  let r = Engine.step sim in
  checkb "some unserved" true (r.Engine.unserved > 0);
  (match Engine.last_violator sim with
  | None -> Alcotest.fail "expected a violator certificate"
  | Some v ->
      checkb "certificate violates Hall" true
        (v.Vod_graph.Bipartite.server_slots < List.length v.Vod_graph.Bipartite.requests));
  (* the engine keeps running *)
  let r2 = Engine.step sim in
  checkb "still running" true (r2.Engine.time = 2)

let test_greedy_shortfall_has_no_violator () =
  (* one proposal round at u=2: greedy leaves requests unmatched on
     rounds a maximum matching serves in full, and such a shortfall is
     no Hall obstruction *)
  let params, fleet, alloc = build_system ~n:32 () in
  let sim =
    Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue
      ~scheduler:(Engine.Greedy_proposals 1) ()
  in
  let g = Prng.create ~seed:4 () in
  let gen = Vod_workload.Generators.uniform_arrivals g ~rate:4.0 in
  let shortfalls = ref 0 in
  for round = 1 to 40 do
    List.iter
      (fun (box, video) -> ignore (Engine.try_demand sim ~box ~video))
      (gen sim round);
    let r = Engine.step sim in
    let feasible =
      match Engine.last_instance sim with
      | Some inst -> Vod_graph.Bipartite.is_feasible inst
      | None -> true
    in
    if r.Engine.unserved > 0 && feasible then begin
      incr shortfalls;
      checkb "no certificate for a greedy shortfall" true
        (Engine.last_violator sim = None)
    end
  done;
  checkb "greedy fell short on a feasible round" true (!shortfalls > 0)

let test_determinism () =
  let run_once () =
    let params, fleet, alloc = build_system () in
    let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
    let g = Prng.create ~seed:3 () in
    let gen = Vod_workload.Generators.uniform_arrivals g ~rate:1.0 in
    Engine.run sim ~rounds:30 ~demands_for:gen
    |> List.map (fun r -> (r.Engine.active_requests, r.Engine.served, r.Engine.unserved))
  in
  checkb "bit-identical reruns" true (run_once () = run_once ())

let test_run_with_zipf_workload () =
  let params, fleet, alloc = build_system ~n:16 () in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  let g = Prng.create ~seed:5 () in
  let gen = Vod_workload.Generators.zipf_arrivals g ~rate:2.0 ~s:0.9 in
  let reports = Engine.run sim ~rounds:50 ~demands_for:gen in
  let m = Metrics.summarise reports in
  checki "rounds" 50 m.Metrics.rounds;
  checkb "demand flowed" true (m.Metrics.total_demands > 20);
  checki "nothing unserved at u=2" 0 m.Metrics.total_unserved

let test_flash_crowd_respects_mu () =
  let params, fleet, alloc = build_system ~n:32 ~mu:1.3 () in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  let g = Prng.create ~seed:6 () in
  let gen = Vod_workload.Generators.flash_crowd g ~video:0 () in
  let reports = Engine.run sim ~rounds:12 ~demands_for:gen in
  (* growth must never exceed the mu bound *)
  let previous = ref 0 in
  List.iter
    (fun r ->
      let size = !previous + r.Engine.new_demands in
      let bound =
        int_of_float (ceil (float_of_int (max !previous 1) *. 1.3)) in
      checkb "swarm growth bounded" true (size <= bound || r.Engine.new_demands = 0);
      previous := size)
    reports;
  let m = Metrics.summarise reports in
  checki "flash crowd served" 0 m.Metrics.total_unserved;
  checkb "caches carry the crowd" true (m.Metrics.cache_share > 0.2)

let test_relay_lifecycle () =
  (* 2 rich (u=3) + 2 poor (u=0.5) boxes; poor demands go through their
     relay on the doubled time scale *)
  let n = 4 in
  let fleet = Box.Fleet.two_class ~n ~rich_fraction:0.5 ~u_rich:3.0 ~u_poor:0.5 ~d:4.0 in
  let params = Params.make ~n ~c:2 ~mu:1.0 ~duration:10 in
  let m = 4 in
  let catalog = Catalog.create ~m ~c:2 in
  let g = Prng.create ~seed:7 () in
  let alloc = Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k:2 in
  match Vod_analysis.Theorem2.compensate fleet ~u_star:1.25 with
  | None -> Alcotest.fail "fleet should be compensable"
  | Some comp ->
      let sim = Engine.create ~params ~fleet ~alloc ~compensation:comp ~policy:Engine.Continue () in
      (* relays reduce rich matching capacity *)
      let rich = List.hd (Box.Fleet.rich_boxes fleet ~threshold:1.25) in
      checkb "rich capacity reduced by reservation" true
        (Engine.upload_slots_of_box sim rich < Params.upload_slots params 3.0);
      let poor = List.hd (Box.Fleet.poor_boxes fleet ~threshold:1.25) in
      Engine.demand sim ~box:poor ~video:0;
      let reports = List.init 16 (fun _ -> Engine.step sim) in
      let metrics = Metrics.summarise reports in
      checki "poor box fully served via relay" 0 metrics.Metrics.total_unserved;
      checkb "requests flowed" true (metrics.Metrics.total_served > 0);
      checkb "poor box idle at the end" true (Engine.is_idle sim poor)

let test_poor_box_plain_requests_allowed () =
  (* below-threshold boxes without relays issue plain requests — the
     regime of the paper's negative result *)
  let n = 4 in
  let fleet = Box.Fleet.two_class ~n ~rich_fraction:0.5 ~u_rich:3.0 ~u_poor:0.5 ~d:4.0 in
  let params = Params.make ~n ~c:2 ~mu:1.0 ~duration:10 in
  let catalog = Catalog.create ~m:4 ~c:2 in
  let g = Prng.create ~seed:7 () in
  let alloc = Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k:2 in
  let sim = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  let poor = List.hd (Box.Fleet.poor_boxes fleet ~threshold:1.0) in
  Engine.demand sim ~box:poor ~video:0;
  let r = Engine.step sim in
  checki "request issued" 1 r.Engine.active_requests

(* The delta-CSR build is the engine's one build path.  A twin engine
   whose instance is invalidated before every step ([set_alloc] with its
   own allocation) always takes the scratch build; under the same
   demands, cancels and online churn both must build the same instance
   and report the same round.  Run above the threshold and below it, so
   stalled rounds, which dirty their stripes, are covered too.  Returns
   the number of failing rounds and of delta builds the run made. *)
let delta_build_lockstep ~u ~seed =
  let mk () =
    let params, fleet, alloc = build_system ~n:12 ~m:4 ~u () in
    Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue ()
  in
  let delta = mk () and twin = mk () in
  let both f = List.iter f [ delta; twin ] in
  let delta_builds =
    Vod_obs.Registry.counter Vod_obs.Registry.default "engine.delta_builds"
  in
  let builds0 = Vod_obs.Registry.counter_value delta_builds in
  let view e =
    Option.map
      (fun b -> Vod_graph.Csr.to_adjacency (Vod_graph.Bipartite.csr b))
      (Engine.last_instance e)
  in
  let g = Prng.create ~seed () in
  let failing = ref 0 in
  for _ = 1 to 40 do
    for _ = 1 to 1 + Prng.int g 3 do
      let box = Prng.int g 12 and video = Prng.int g 4 in
      if Engine.is_idle delta box then both (fun e -> Engine.demand e ~box ~video)
    done;
    if Prng.int g 5 = 0 then begin
      let box = Prng.int g 12 in
      both (fun e -> Engine.cancel e box)
    end;
    if Prng.int g 7 = 0 then begin
      let box = Prng.int g 12 in
      let online = not (Engine.is_online delta box) in
      both (fun e -> Engine.set_online e box online)
    end;
    Engine.set_alloc twin (Engine.alloc twin);
    let rd = Engine.step delta and rt = Engine.step twin in
    checkb "delta-rebuilt instance equals the scratch build" true
      (view delta = view twin);
    checki "served in lockstep" rt.Engine.served rd.Engine.served;
    checki "unserved in lockstep" rt.Engine.unserved rd.Engine.unserved;
    checki "active in lockstep" rt.Engine.active_requests rd.Engine.active_requests;
    if rd.Engine.unserved > 0 then incr failing
  done;
  (!failing, Vod_obs.Registry.counter_value delta_builds - builds0)

let test_delta_build_lockstep_with_scratch () =
  let failing_above, builds = delta_build_lockstep ~u:2.0 ~seed:21 in
  checkb "delta builds ran above the threshold" true (builds > 0);
  let failing_below, builds = delta_build_lockstep ~u:0.75 ~seed:22 in
  checkb "delta builds ran below the threshold" true (builds > 0);
  checkb "more rounds fail below the threshold" true (failing_below > failing_above)

let test_metrics_summarise_empty () =
  let m = Metrics.summarise [] in
  checki "rounds" 0 m.Metrics.rounds;
  checkb "all served vacuously" true (Metrics.all_served m)

let suites =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "create validation" `Quick test_create_validation;
        Alcotest.test_case "single demand lifecycle" `Quick test_single_demand_lifecycle;
        Alcotest.test_case "busy box rejected" `Quick test_demand_on_busy_box_rejected;
        Alcotest.test_case "demand validation" `Quick test_demand_validation;
        Alcotest.test_case "swarm tracking" `Quick test_swarm_tracking;
        Alcotest.test_case "preload counter" `Quick test_preload_counter_balances_stripes;
        Alcotest.test_case "cache serving" `Quick test_cache_serving;
        Alcotest.test_case "defeated raises" `Quick test_defeated_raises;
        Alcotest.test_case "continue policy + violator" `Quick test_continue_policy_records_violator;
        Alcotest.test_case "greedy shortfall, no violator" `Quick
          test_greedy_shortfall_has_no_violator;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "zipf workload" `Quick test_run_with_zipf_workload;
        Alcotest.test_case "flash crowd" `Quick test_flash_crowd_respects_mu;
      ] );
    ( "sim.relay",
      [
        Alcotest.test_case "relay lifecycle" `Quick test_relay_lifecycle;
        Alcotest.test_case "poor box plain requests" `Quick test_poor_box_plain_requests_allowed;
      ] );
    ( "sim.delta_build",
      [
        Alcotest.test_case "lockstep with scratch" `Quick
          test_delta_build_lockstep_with_scratch;
      ] );
    ( "sim.metrics",
      [ Alcotest.test_case "empty summary" `Quick test_metrics_summarise_empty ] );
  ]
