(* Tests for the fault-injection subsystem: plans, scenario files, the
   engine's fault hooks, the bandwidth-aware repair controller and the
   deterministic chaos runner. *)

open Vod_util
open Vod_model
module Engine = Vod_sim.Engine
module Plan = Vod_fault.Plan
module Scenario = Vod_fault.Scenario
module Mend = Vod_fault.Mend
module Chaos = Vod_fault.Chaos

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let build_system ~n ~u ~d ~c ~k ~m ~seed () =
  let params = Params.make ~n ~c ~mu:1.2 ~duration:10 in
  let fleet = Box.Fleet.homogeneous ~n ~u ~d in
  let catalog = Catalog.create ~m ~c in
  let g = Prng.create ~seed () in
  let alloc = Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k in
  (params, fleet, alloc)

let engine_of ~params ~fleet ~alloc = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue ()

(* ------------------------------------------------------------------ *)
(* Plan                                                                *)
(* ------------------------------------------------------------------ *)

let test_plan_validation () =
  let bad spec msg =
    match Plan.compile ~seed:1 ~n:4 spec with
    | Ok _ -> Alcotest.failf "compiled despite %s" msg
    | Error _ -> ()
  in
  bad [ (0, Plan.Crash 0) ] "round 0";
  bad [ (1, Plan.Crash 4) ] "box out of range";
  bad [ (1, Plan.Degrade (0, 1.5)) ] "factor > 1";
  bad [ (1, Plan.Flaky (-0.1)) ] "negative probability";
  bad [ (1, Plan.Group_crash 0) ] "group event without topology";
  bad [ (1, Plan.Flash_crowd (0, 0)) ] "zero viewers";
  match Plan.compile ~seed:1 ~n:4 [ (3, Plan.Crash 2); (1, Plan.Flaky 0.5) ] with
  | Error m -> Alcotest.fail m
  | Ok p ->
      checki "horizon" 3 (Plan.horizon p);
      checki "last disruption" 3 (Plan.last_disruption p);
      checki "events at 3" 1 (List.length (Plan.events_at p 3));
      checki "events at 2" 0 (List.length (Plan.events_at p 2))

let test_plan_group_expansion () =
  let topology = Topology.uniform_groups ~n:8 ~groups:4 in
  match
    Plan.compile ~topology ~seed:1 ~n:8
      [ (5, Plan.Group_crash 1); (9, Plan.Group_rejoin 1) ]
  with
  | Error m -> Alcotest.fail m
  | Ok p ->
      (* uniform grouping: group 1 = boxes {1, 5}, ascending *)
      checkb "crash expansion" true (Plan.events_at p 5 = [ Plan.Crash 1; Plan.Crash 5 ]);
      checkb "rejoin expansion" true (Plan.events_at p 9 = [ Plan.Rejoin 1; Plan.Rejoin 5 ])

let test_link_fault_determinism () =
  let plan spec_seed = Result.get_ok (Plan.compile ~seed:spec_seed ~n:8 []) in
  let p = plan 7 in
  (* pure in its arguments *)
  for time = 1 to 20 do
    for owner = 0 to 7 do
      checkb "same args, same verdict" true
        (Plan.link_fault p ~prob:0.3 ~time ~owner ~server:3
        = Plan.link_fault p ~prob:0.3 ~time ~owner ~server:3)
    done
  done;
  (* degenerate probabilities *)
  checkb "prob 0 never fires" false (Plan.link_fault p ~prob:0.0 ~time:5 ~owner:2 ~server:3);
  checkb "prob 1 always fires" true (Plan.link_fault p ~prob:1.0 ~time:5 ~owner:2 ~server:3);
  (* frequency tracks the probability, and different seeds give
     different (but internally deterministic) draws *)
  let count p prob =
    let hits = ref 0 in
    for time = 1 to 50 do
      for owner = 0 to 7 do
        for server = 0 to 7 do
          if Plan.link_fault p ~prob ~time ~owner ~server then incr hits
        done
      done
    done;
    !hits
  in
  let total = 50 * 8 * 8 in
  let hits = count p 0.2 in
  checkb "frequency near prob" true
    (abs (hits - (total / 5)) < total / 10);
  checkb "seed matters" true (count (plan 8) 0.2 <> hits)

(* ------------------------------------------------------------------ *)
(* Scenario                                                            *)
(* ------------------------------------------------------------------ *)

let scenario_text =
  {|# comment line
n 16
u 1.5
d 4
c 2
k 3
m 10
rounds 50
seed 9
rate 0.5
groups 4
target_k 2
budget 3
transfer_rounds 2
backoff 1 8
at 5 crash 1 3   # trailing comment
at 10 flaky 0.1
at 12 degrade 2 0.5
at 20 group-rejoin 0
at 30 flash 0 4
|}

let test_scenario_parse () =
  match Scenario.parse ~name:"inline" scenario_text with
  | Error m -> Alcotest.fail m
  | Ok s ->
      checki "n" 16 s.Scenario.n;
      checkb "u" true (s.Scenario.u = 1.5);
      checki "m" 10 (Option.get s.Scenario.m);
      checki "groups" 4 (Option.get s.Scenario.groups);
      checki "target_k" 2 s.Scenario.target_k;
      checki "budget" 3 s.Scenario.budget;
      checki "backoff cap" 8 s.Scenario.backoff_cap;
      checki "events" 6 (List.length s.Scenario.events);
      checkb "multi-box crash" true
        (List.mem (5, Plan.Crash 1) s.Scenario.events
        && List.mem (5, Plan.Crash 3) s.Scenario.events)

let test_scenario_errors () =
  (* line numbers in errors *)
  (match Scenario.parse ~name:"bad" "n 4\nbogus 3\n" with
  | Ok _ -> Alcotest.fail "parsed unknown directive"
  | Error m -> checkb (Printf.sprintf "line number in %s" m) true (String.length m > 0 && m.[4] = '2'));
  (match Scenario.parse ~name:"bad" "at 5 crash\n" with
  | Ok _ -> Alcotest.fail "parsed event with no box"
  | Error _ -> ());
  (match Scenario.parse ~name:"bad" "target_k 0\n" with
  | Ok _ -> Alcotest.fail "parsed target_k 0"
  | Error _ -> ());
  match Scenario.parse ~name:"bad" "backoff 8 2\n" with
  | Ok _ -> Alcotest.fail "parsed inverted backoff"
  | Error _ -> ()

let test_scenario_roundtrip () =
  let s = Result.get_ok (Scenario.parse ~name:"inline" scenario_text) in
  let s' = Result.get_ok (Scenario.parse ~name:"inline" (Scenario.to_text s)) in
  checks "to_text round-trips" (Scenario.to_text s) (Scenario.to_text s')

(* ------------------------------------------------------------------ *)
(* Engine fault hooks                                                  *)
(* ------------------------------------------------------------------ *)

(* Satellite regression: a pending demand on a box that crashes before
   the next step must be dropped silently, and generators feeding
   demands for offline boxes through [Engine.run] must be skipped. *)
let test_offline_demand_skipped () =
  let params, fleet, alloc = build_system ~n:8 ~u:2.0 ~d:4.0 ~c:2 ~k:3 ~m:8 ~seed:3 () in
  let e = engine_of ~params ~fleet ~alloc in
  Engine.demand e ~box:1 ~video:0;
  Engine.set_online e 1 false;
  let r = Engine.step e in
  checki "crashed pending demand dropped" 0 r.Engine.new_demands;
  checki "no requests" 0 r.Engine.active_requests;
  (* stateless generator keeps naming the offline box: skipped, no raise *)
  let reports = Engine.run e ~rounds:3 ~demands_for:(fun _ _ -> [ (1, 0); (2, 1) ]) in
  checki "online box admitted" 1 (List.hd reports).Engine.new_demands;
  Engine.set_online e 1 true;
  Engine.demand e ~box:1 ~video:0;
  let r = Engine.step e in
  checki "rejoined box admits demands" 1 r.Engine.new_demands

let test_upload_degradation () =
  let params, fleet, alloc = build_system ~n:8 ~u:2.0 ~d:4.0 ~c:2 ~k:3 ~m:8 ~seed:3 () in
  let e = engine_of ~params ~fleet ~alloc in
  checki "nominal slots" 4 (Engine.upload_slots_of_box e 0);
  Engine.set_upload_factor e ~box:0 ~factor:0.5;
  checkb "factor readable" true (Engine.upload_factor e 0 = 0.5);
  checki "degraded slots" 2 (Engine.upload_slots_of_box e 0);
  Engine.set_upload_factor e ~box:0 ~factor:0.0;
  checki "fully degraded" 0 (Engine.upload_slots_of_box e 0);
  Engine.set_upload_factor e ~box:0 ~factor:1.0;
  checki "restored slots" 4 (Engine.upload_slots_of_box e 0);
  Alcotest.check_raises "factor out of range"
    (Invalid_argument "Engine.set_upload_factor: factor outside [0, 1]") (fun () ->
      Engine.set_upload_factor e ~box:0 ~factor:1.5)

let test_link_faults_stall_requests () =
  let run_with faults =
    let params, fleet, alloc = build_system ~n:8 ~u:2.0 ~d:4.0 ~c:2 ~k:3 ~m:8 ~seed:3 () in
    let e = engine_of ~params ~fleet ~alloc in
    (match faults with
    | None -> ()
    | Some f -> Engine.set_link_faults e (Some f));
    Engine.demand e ~box:0 ~video:1;
    Engine.demand e ~box:3 ~video:2;
    (Engine.step e, Engine.step e)
  in
  let _, clean = run_with None in
  let _, all_faulty = run_with (Some (fun ~time:_ ~owner:_ ~server:_ -> true)) in
  let _, none_faulty = run_with (Some (fun ~time:_ ~owner:_ ~server:_ -> false)) in
  checkb "clean round serves" true (clean.Engine.served > 0);
  checki "always-faulty serves nothing" 0 all_faulty.Engine.served;
  checki "faulted = active" all_faulty.Engine.active_requests all_faulty.Engine.faulted;
  checki "faulted counted as unserved" all_faulty.Engine.active_requests
    all_faulty.Engine.unserved;
  checks "never-faulty is bit-identical to no predicate"
    (Format.asprintf "%a" Engine.pp_report clean)
    (Format.asprintf "%a" Engine.pp_report none_faulty)

(* A hand-built allocation where box 0 is the only holder of both
   stripes, so concurrent repairs compete for its upload slots. *)
let sole_holder_system ~u =
  let n = 4 and c = 1 in
  let params = Params.make ~n ~c ~mu:1.2 ~duration:10 in
  let fleet = Box.Fleet.homogeneous ~n ~u ~d:4.0 in
  let catalog = Catalog.create ~m:2 ~c in
  let alloc = Allocation.of_replica_lists ~catalog ~n_boxes:n [| [| 0 |]; [| 0 |] |] in
  (params, fleet, alloc)

(* Acceptance criterion: repair transfers consume real matching slots —
   a saturated donor serves strictly fewer repairs per round. *)
let test_repair_slot_contention () =
  let serve_round u =
    let params, fleet, alloc = sole_holder_system ~u in
    let e = engine_of ~params ~fleet ~alloc in
    Engine.inject_repair e ~stripe:0 ~dest:1 ~rounds:3;
    Engine.inject_repair e ~stripe:1 ~dest:2 ~rounds:3;
    Engine.step e
  in
  let saturated = serve_round 1.0 in
  let roomy = serve_round 2.0 in
  checki "both transfers active (saturated)" 2 saturated.Engine.repair_active;
  checki "one upload slot, one repair served" 1 saturated.Engine.repair_served;
  checki "two upload slots serve both" 2 roomy.Engine.repair_served;
  checkb "saturated round serves strictly fewer repairs" true
    (saturated.Engine.repair_served < roomy.Engine.repair_served)

let test_repair_lifecycle () =
  let params, fleet, alloc = sole_holder_system ~u:2.0 in
  let e = engine_of ~params ~fleet ~alloc in
  Engine.inject_repair e ~stripe:0 ~dest:1 ~rounds:2;
  Engine.inject_repair e ~stripe:1 ~dest:2 ~rounds:2;
  checki "scheduled transfers counted" 2 (Engine.repair_in_flight e);
  ignore (Engine.step e);
  checki "nothing completed after one round" 0
    (List.length (Engine.drain_completed_repairs e));
  ignore (Engine.step e);
  checkb "both completed after two rounds" true
    (List.sort compare (Engine.drain_completed_repairs e) = [ (0, 1); (1, 2) ]);
  checki "drain clears the buffer" 0 (List.length (Engine.drain_completed_repairs e));
  ignore (Engine.step e);
  checki "completed transfers retire" 0 (Engine.repair_in_flight e);
  (* install the replica and verify the new holder can serve *)
  let catalog = Allocation.catalog alloc in
  Engine.set_alloc e
    (Allocation.of_replica_lists ~catalog ~n_boxes:4 [| [| 0; 1 |]; [| 0; 2 |] |]);
  checkb "installed replica visible" true
    (Allocation.possesses (Engine.alloc e) ~box:1 ~stripe:0)

let test_repair_dies_with_dest () =
  let params, fleet, alloc = sole_holder_system ~u:2.0 in
  let e = engine_of ~params ~fleet ~alloc in
  Engine.inject_repair e ~stripe:0 ~dest:1 ~rounds:3;
  ignore (Engine.step e);
  Engine.set_online e 1 false;
  checki "transfer died with its destination" 0 (Engine.repair_in_flight e);
  ignore (Engine.step e);
  checki "nothing to drain" 0 (List.length (Engine.drain_completed_repairs e));
  (* abort withdraws a live transfer *)
  Engine.inject_repair e ~stripe:1 ~dest:2 ~rounds:3;
  checkb "abort finds the transfer" true (Engine.abort_repair e ~stripe:1 ~dest:2);
  checkb "second abort finds nothing" false (Engine.abort_repair e ~stripe:1 ~dest:2);
  checki "aborted transfer gone" 0 (Engine.repair_in_flight e)

(* ------------------------------------------------------------------ *)
(* Mend                                                                *)
(* ------------------------------------------------------------------ *)

let drive_until_quiesced ?(max_rounds = 300) mend e =
  let rounds = ref 0 in
  while (not (Mend.quiesced mend e)) && !rounds < max_rounds do
    incr rounds;
    Mend.tick mend e;
    ignore (Engine.step e);
    ignore (Mend.collect mend e)
  done;
  !rounds

let alive_count alloc alive s =
  Array.fold_left
    (fun acc b -> if alive.(b) then acc + 1 else acc)
    0
    (Allocation.boxes_of_stripe alloc s)

let test_mend_heals_crash () =
  let params, fleet, alloc = build_system ~n:16 ~u:2.0 ~d:4.0 ~c:2 ~k:3 ~m:16 ~seed:5 () in
  let e = engine_of ~params ~fleet ~alloc in
  Engine.set_online e 2 false;
  Engine.set_online e 9 false;
  let cfg = Mend.config ~target_k:3 ~budget:4 ~transfer_rounds:2 () in
  let mend = Mend.create ~seed:11 cfg in
  let budget_ok = ref true in
  let rounds = ref 0 in
  while (not (Mend.quiesced mend e)) && !rounds < 300 do
    incr rounds;
    Mend.tick mend e;
    if Engine.repair_in_flight e > 4 then budget_ok := false;
    ignore (Engine.step e);
    ignore (Mend.collect mend e)
  done;
  checkb "quiesced" true (Mend.quiesced mend e);
  checkb "budget respected every round" true !budget_ok;
  let final = Engine.alloc e in
  let alive = Array.init 16 (Engine.is_online e) in
  let total = Catalog.total_stripes (Allocation.catalog alloc) in
  for s = 0 to total - 1 do
    checkb
      (Printf.sprintf "stripe %d back at target" s)
      true
      (alive_count final alive s >= 3)
  done;
  let st = Mend.stats mend in
  checkb "transfers ran" true (st.Mend.started > 0);
  checki "all started transfers completed" st.Mend.started st.Mend.completed;
  checki "every completion installed" st.Mend.completed st.Mend.installed

let test_mend_unrepairable_classification () =
  (* both stripes live only on box 0: crash it and nothing can repair *)
  let params, fleet, alloc = sole_holder_system ~u:2.0 in
  let e = engine_of ~params ~fleet ~alloc in
  Engine.set_online e 0 false;
  let mend = Mend.create (Mend.config ~target_k:1 ~transfer_rounds:2 ()) in
  let rounds = drive_until_quiesced mend e in
  checkb "quiesced quickly" true (rounds < 10);
  let repairable, unrepairable = Mend.pending mend e in
  checki "nothing repairable" 0 (List.length repairable);
  checkb "dead stripes classified unrepairable" true (unrepairable = [ 0; 1 ]);
  checki "no transfers were started" 0 (Mend.stats mend).Mend.started;
  (* the holder rejoins: stripes are whole again, nothing under *)
  Engine.set_online e 0 true;
  let repairable, unrepairable = Mend.pending mend e in
  checki "healed by rejoin (repairable)" 0 (List.length repairable);
  checki "healed by rejoin (unrepairable)" 0 (List.length unrepairable)

(* ------------------------------------------------------------------ *)
(* Chaos                                                               *)
(* ------------------------------------------------------------------ *)

let quiet_scenario_text =
  {|n 32
u 2.0
d 4
c 2
k 3
m 20
mu 1.2
duration 10
rounds 40
seed 11
rate 1.5
target_k 2
|}

let crashy_scenario_text =
  quiet_scenario_text
  ^ {|transfer_rounds 2
at 5 crash 3 7
at 8 flaky 0.02
at 12 flaky 0
at 25 rejoin 3
|}

(* Satellite lockstep test: a chaos run whose fault plan is empty is
   bit-identical to a plain engine run fed the same workload. *)
let test_chaos_empty_plan_lockstep () =
  let s = Result.get_ok (Scenario.parse ~name:"quiet" quiet_scenario_text) in
  let outcome = Result.get_ok (Chaos.run s) in
  checki "no transfers in a fault-free run" 0 outcome.Chaos.stats.Mend.started;
  (* plain run: same construction, no fault layer at all *)
  let params = Params.make ~n:32 ~c:2 ~mu:1.2 ~duration:10 in
  let fleet = Box.Fleet.homogeneous ~n:32 ~u:2.0 ~d:4.0 in
  let catalog = Catalog.create ~m:20 ~c:2 in
  let g = Prng.create ~seed:11 () in
  let alloc = Vod_alloc.Schemes.random_permutation g ~fleet ~catalog ~k:3 in
  let e = Engine.create ~params ~fleet ~alloc ~policy:Engine.Continue () in
  let wg = Prng.create ~seed:(11 + 7) () in
  let gen = Vod_workload.Generators.uniform_arrivals wg ~rate:1.5 in
  let plain = Engine.run e ~rounds:40 ~demands_for:gen in
  checki "same round count" (List.length plain) (List.length outcome.Chaos.reports);
  List.iter2
    (fun p c ->
      checks
        (Printf.sprintf "round %d bit-identical" p.Engine.time)
        (Format.asprintf "%a" Engine.pp_report p)
        (Format.asprintf "%a" Engine.pp_report c))
    plain outcome.Chaos.reports

let test_chaos_deterministic_jsonl () =
  let s = Result.get_ok (Scenario.parse ~name:"crashy" crashy_scenario_text) in
  let o1 = Result.get_ok (Chaos.run s) in
  let o2 = Result.get_ok (Chaos.run s) in
  checks "same run, same bytes" o1.Chaos.jsonl o2.Chaos.jsonl;
  let many jobs =
    Result.get_ok (Chaos.run_many ~jobs ~replications:3 s)
    |> List.map (fun o -> o.Chaos.jsonl)
    |> String.concat ""
  in
  checks "same run, same slo bytes" o1.Chaos.slo_jsonl o2.Chaos.slo_jsonl;
  checks "jobs=1 and jobs=2 byte-identical" (many 1) (many 2);
  let many_slo jobs =
    Result.get_ok (Chaos.run_many ~jobs ~replications:3 s)
    |> List.map (fun o -> o.Chaos.slo_jsonl)
    |> String.concat ""
  in
  checks "slo stream jobs-invariant" (many_slo 1) (many_slo 2);
  (* replications genuinely differ (independent seeds) *)
  match Result.get_ok (Chaos.run_many ~jobs:2 ~replications:2 s) with
  | [ a; b ] ->
      checkb "replications independent" true (a.Chaos.jsonl <> b.Chaos.jsonl);
      checki "rep seeds spaced" (s.Scenario.seed + 1000) b.Chaos.seed
  | _ -> Alcotest.fail "expected 2 outcomes"

(* Byte-pin of the vod-chaos/1 and vod-slo/1 streams over scenarios that
   exercise every bring-up path: faults and flash crowds
   (crash_rejoin), KPI budgets compiled to SLOs (crash_heal), Theorem 2
   compensation (rich_poor_balanced) and helper seeding and marking
   (helpers_churn).  Regenerate with, for each scenario in order,
     dune exec bin/vodctl.exe -- chaos SCN --slo-out slo.jsonl
   appending its stdout and then slo.jsonl to test/chaos_golden.jsonl. *)
let chaos_golden_scenarios =
  [
    "../examples/crash_rejoin.scn";
    "../examples/battery/crash_heal.scn";
    "../examples/battery/rich_poor_balanced.scn";
    "../examples/battery/helpers_churn.scn";
  ]

let test_chaos_golden () =
  let streams =
    List.map
      (fun path ->
        match Scenario.load ~path with
        | Error m -> Alcotest.fail m
        | Ok s ->
            let o = Result.get_ok (Chaos.run s) in
            o.Chaos.jsonl ^ o.Chaos.slo_jsonl)
      chaos_golden_scenarios
  in
  let golden = In_channel.with_open_text "chaos_golden.jsonl" In_channel.input_all in
  checks "vod-chaos/1 + vod-slo/1 match the golden pin" golden (String.concat "" streams)

let test_chaos_recovers () =
  let s = Result.get_ok (Scenario.parse ~name:"crashy" crashy_scenario_text) in
  let o = Result.get_ok (Chaos.run s) in
  checkb "verdict ok" true (Chaos.verdict_ok o);
  checkb "recovered" true o.Chaos.recovered;
  checki "nothing unrepairable" 0 o.Chaos.unrepairable;
  checkb "repair transfers ran" true (o.Chaos.stats.Mend.started > 0);
  checkb "link faults fired" true (o.Chaos.total_faulted > 0);
  checki "two boxes down at the trough" 30 o.Chaos.min_online;
  checkb "full replication reached" true (o.Chaos.time_to_full_replication >= 0)

(* KPI budgets compile into burn-rate SLOs; the verdict stream and the
   per-round tick are deterministic functions of the scenario. *)
let test_chaos_slo_compilation () =
  let module Slo = Vod_obs.Slo in
  let text =
    crashy_scenario_text
    ^ {|kpi max-rejection 0.05
kpi max-startup-p95 3
kpi max-sourcing-share 0.98
kpi max-time-to-repair 20
|}
  in
  let s = Result.get_ok (Scenario.parse ~name:"budgeted" text) in
  let ticks = ref 0 and evaluators = ref 0 in
  let o =
    Result.get_ok
      (Chaos.run
         ~on_round:(fun tick ->
           incr ticks;
           evaluators := List.length tick.Chaos.t_slos)
         s)
  in
  checki "tick per round" s.Scenario.rounds !ticks;
  checki "three budgets compile to slos" 3 !evaluators;
  (* time-to-repair stays a terminal KPI, never an SLO *)
  checkb "summary order rejection, startup, sourcing" true
    (List.map (fun su -> su.Slo.su_name) o.Chaos.slo
    = [ "rejection"; "startup"; "sourcing" ]);
  (match o.Chaos.slo with
  | rej :: _ -> checks "stream ends ok" "ok" (Slo.state_name rej.Slo.su_final)
  | [] -> Alcotest.fail "expected slo summaries");
  (* the stream carries a meta line naming the schema *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match String.split_on_char '\n' o.Chaos.slo_jsonl with
  | meta :: _ ->
      checkb "meta line" true
        (String.length meta > 15
        && String.sub meta 0 15 = {|{"type":"meta",|}
        && contains meta {|"version":"vod-slo/1"|})
  | [] -> Alcotest.fail "empty slo stream");
  (* a budget-free scenario produces no evaluators but still a stream *)
  let quiet = Result.get_ok (Scenario.parse ~name:"quiet" quiet_scenario_text) in
  let oq = Result.get_ok (Chaos.run quiet) in
  checkb "no budgets, no summaries" true (oq.Chaos.slo = [])

let test_chaos_rejects_bad_scenarios () =
  let quiet = Result.get_ok (Scenario.parse ~name:"quiet" quiet_scenario_text) in
  checkb "negative rounds is an error" true (Result.is_error (Chaos.run ~rounds:(-1) quiet));
  checkb "negative rounds is an error in run_many" true
    (Result.is_error (Chaos.run_many ~rounds:(-3) ~replications:2 quiet));
  checkb "zero replications is an error" true
    (Result.is_error (Chaos.run_many ~replications:0 quiet));
  checkb "zero rounds is a run" true (Result.is_ok (Chaos.run ~rounds:0 quiet));
  let s = Result.get_ok (Scenario.parse ~name:"bad" (quiet_scenario_text ^ "at 5 crash 99\n")) in
  (match Chaos.run s with
  | Ok _ -> Alcotest.fail "ran with an out-of-range crash"
  | Error _ -> ());
  let s = Result.get_ok (Scenario.parse ~name:"bad" (quiet_scenario_text ^ "at 5 flash 20 4\n")) in
  match Chaos.run s with
  | Ok _ -> Alcotest.fail "ran with a flash video outside the catalog"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Chaos-mode repair oracle                                            *)
(* ------------------------------------------------------------------ *)

let test_chaos_repair_agreement () =
  let params, fleet, alloc = build_system ~n:16 ~u:2.0 ~d:4.0 ~c:2 ~k:3 ~m:16 ~seed:5 () in
  match
    Vod_check.Oracle.chaos_repair_agreement ~params ~fleet ~alloc ~crashed:[ 2; 9 ]
      ~target_k:3 ~seed:5 ()
  with
  | Error m -> Alcotest.fail m
  | Ok o ->
      checkb "engine repaired something" true (o.Vod_check.Oracle.engine_installed > 0);
      checki "nothing unrepairable" 0 o.Vod_check.Oracle.oracle_unrepairable;
      checkb "quiesced in bounded time" true (o.Vod_check.Oracle.rounds_to_quiesce < 500)

(* ------------------------------------------------------------------ *)
(* qcheck: convergence under arbitrary crash/rejoin plans              *)
(* ------------------------------------------------------------------ *)

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~name:"mend: quiesces and restores every repairable stripe" ~count:15
      (triple (int_range 0 1_000_000) (int_range 0 5) (int_range 1 3))
      (fun (seed, n_crashed, target_k) ->
        let n = 12 in
        let params, fleet, alloc =
          build_system ~n ~u:2.0 ~d:4.0 ~c:2 ~k:3 ~m:10 ~seed ()
        in
        let e = engine_of ~params ~fleet ~alloc in
        let g = Prng.create ~seed:(seed + 1) () in
        let crashed = Sample.choose_distinct g ~n ~k:n_crashed in
        Array.iter (fun b -> Engine.set_online e b false) crashed;
        (* a random prefix of the crashed boxes rejoins mid-run *)
        let rejoin_count = if n_crashed = 0 then 0 else Prng.int g (n_crashed + 1) in
        let mend =
          Mend.create ~seed:(seed + 2)
            (Mend.config ~target_k ~budget:8 ~transfer_rounds:2 ())
        in
        let rounds = ref 0 in
        while (not (Mend.quiesced mend e)) && !rounds < 400 do
          incr rounds;
          if !rounds = 10 then
            Array.iter
              (fun b -> Engine.set_online e b true)
              (Array.sub crashed 0 rejoin_count);
          Mend.tick mend e;
          ignore (Engine.step e);
          ignore (Mend.collect mend e)
        done;
        if not (Mend.quiesced mend e) then
          Test.fail_report "controller did not quiesce within 400 rounds";
        let _, unrepairable = Mend.pending mend e in
        let final = Engine.alloc e in
        let alive = Array.init n (Engine.is_online e) in
        let total = Catalog.total_stripes (Allocation.catalog alloc) in
        let ok = ref true in
        for s = 0 to total - 1 do
          let reached = alive_count final alive s >= target_k in
          let counted = List.mem s unrepairable in
          if not (reached || counted) then ok := false
        done;
        !ok);
  ]

let suites =
  [
    ( "fault.plan",
      [
        Alcotest.test_case "validation" `Quick test_plan_validation;
        Alcotest.test_case "group expansion" `Quick test_plan_group_expansion;
        Alcotest.test_case "link-fault determinism" `Quick test_link_fault_determinism;
      ] );
    ( "fault.scenario",
      [
        Alcotest.test_case "parse" `Quick test_scenario_parse;
        Alcotest.test_case "errors" `Quick test_scenario_errors;
        Alcotest.test_case "round-trip" `Quick test_scenario_roundtrip;
      ] );
    ( "fault.engine",
      [
        Alcotest.test_case "offline demands skipped" `Quick test_offline_demand_skipped;
        Alcotest.test_case "upload degradation" `Quick test_upload_degradation;
        Alcotest.test_case "link faults stall requests" `Quick
          test_link_faults_stall_requests;
        Alcotest.test_case "repair slot contention" `Quick test_repair_slot_contention;
        Alcotest.test_case "repair lifecycle" `Quick test_repair_lifecycle;
        Alcotest.test_case "repair dies with dest" `Quick test_repair_dies_with_dest;
      ] );
    ( "fault.mend",
      [
        Alcotest.test_case "heals a crash" `Quick test_mend_heals_crash;
        Alcotest.test_case "unrepairable classification" `Quick
          test_mend_unrepairable_classification;
      ] );
    ( "fault.chaos",
      [
        Alcotest.test_case "empty plan lockstep" `Quick test_chaos_empty_plan_lockstep;
        Alcotest.test_case "deterministic jsonl" `Quick test_chaos_deterministic_jsonl;
        Alcotest.test_case "golden pin" `Quick test_chaos_golden;
        Alcotest.test_case "recovers" `Quick test_chaos_recovers;
        Alcotest.test_case "kpi budgets compile to slos" `Quick
          test_chaos_slo_compilation;
        Alcotest.test_case "rejects bad scenarios" `Quick test_chaos_rejects_bad_scenarios;
        Alcotest.test_case "repair oracle agreement" `Quick test_chaos_repair_agreement;
      ] );
    ("fault.properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
  ]
