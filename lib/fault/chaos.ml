open Vod_util
open Vod_model
open Vod_analysis
module Json = Vod_json
module Engine = Vod_sim.Engine
module Registry = Vod_obs.Registry
module Slo = Vod_obs.Slo
module Telemetry = Vod_sim.Telemetry

let obs_crashes = Registry.counter Registry.default "fault.crashes"
let obs_rejoins = Registry.counter Registry.default "fault.rejoins"
let obs_degradations = Registry.counter Registry.default "fault.degradations"
let obs_flash_demands = Registry.counter Registry.default "fault.flash_demands"

(* Demands the engine would not take — historically skipped with no
   trace; Engine.try_demand classifies them so churn-time load loss is
   visible in the registry. *)
let obs_demands_queued = Registry.counter Registry.default "fault.demands_queued"
let obs_demands_rejected = Registry.counter Registry.default "fault.demands_rejected"

let count_admit = function
  | Engine.Admitted -> ()
  | Engine.Queued -> Registry.incr obs_demands_queued
  | Engine.Rejected _ -> Registry.incr obs_demands_rejected

type alloc_scheme = Permutation | Round_robin

type engine_config = {
  label : string;
  scheduler : Engine.scheduler;
  scheme : alloc_scheme;
}

let default_config =
  { label = "scratch"; scheduler = Engine.Arbitrary; scheme = Permutation }

let config_of_name = function
  | "scratch" -> Ok default_config
  | "sticky" -> Ok { label = "sticky"; scheduler = Engine.Sticky; scheme = Permutation }
  | "prefer-cache" ->
      Ok { label = "prefer-cache"; scheduler = Engine.Prefer_cache; scheme = Permutation }
  | "balance-load" ->
      Ok { label = "balance-load"; scheduler = Engine.Balance_load; scheme = Permutation }
  | "round-robin" ->
      Ok { label = "round-robin"; scheduler = Engine.Arbitrary; scheme = Round_robin }
  | name -> Error (Printf.sprintf "unknown engine config '%s'" name)

type outcome = {
  scenario : Scenario.t;
  seed : int;
  reports : Engine.round_report list;
  stats : Mend.stats;
  recovered : bool;
  unrepairable : int;
  full_replication_round : int;
  time_to_full_replication : int;
  min_online : int;
  total_unserved : int;
  total_faulted : int;
  startup_delays : int array;
  jsonl : string;
  slo : Slo.summary list;
  slo_jsonl : string;
}

type tick = {
  t_report : Engine.round_report;
  t_under : int;
  t_unrepairable : int;
  t_in_flight : int;
  t_installs : int;
  t_slos : Slo.t list;
}

(* Static validation shared by [boot] and [replicate], so worker domains
   never have to report errors.  The catalog is sized against the
   {e base} fleet only: helper storage is pure surplus, so a scenario's
   catalog does not silently grow when a fleet is added. *)
let prepare (s : Scenario.t) =
  let base =
    match s.population with
    | Scenario.Homogeneous -> Box.Fleet.homogeneous ~n:s.n ~u:s.u ~d:s.d
    | Scenario.Rich_poor { rich_fraction; u_rich; u_poor; _ } ->
        Box.Fleet.two_class ~n:s.n ~rich_fraction ~u_rich ~u_poor ~d:s.d
  in
  let m =
    match s.m with Some m -> m | None -> Vod_alloc.Schemes.max_catalog ~fleet:base ~c:s.c ~k:s.k
  in
  let slots = Array.fold_left (fun acc b -> acc + Box.storage_slots ~c:s.c b) 0 base in
  if s.k * m * s.c > slots then
    Error
      (Printf.sprintf "catalog does not fit: k*m*c = %d replicas > %d storage slots"
         (s.k * m * s.c) slots)
  else
    let fleet = Helpers.extend_fleet base s.helpers in
    let n_total = Array.length fleet in
    let helpers = Helpers.ranges ~base_n:s.n s.helpers in
    let topology =
      Option.map (fun groups -> Topology.uniform_groups ~n:n_total ~groups) s.groups
    in
    match Plan.compile ?topology ~helpers ~seed:s.seed ~n:n_total s.events with
    | Error _ as err -> err
    | Ok _ ->
        let bad_flash =
          List.find_opt
            (fun (_, ev) -> match ev with Plan.Flash_crowd (v, _) -> v >= m | _ -> false)
            s.events
        in
        (match bad_flash with
        | Some (round, Plan.Flash_crowd (v, _)) ->
            Error (Printf.sprintf "round %d: flash-crowd video %d outside catalog [0, %d)" round v m)
        | _ -> Ok (base, fleet, m, topology, helpers))

let validate s = Result.map (fun _ -> ()) (prepare s)

(* ------------------------------------------------------------------ *)
(* Bring-up and fault application, shared with Vod_serve               *)
(* ------------------------------------------------------------------ *)

type system = {
  engine : Engine.t;
  plan : Plan.t;
  mend : Mend.t;
  crowd_rng : Prng.t;
  helper_ranges : (int * int) array;
  n_total : int;
  m : int;
  seed : int;
  rounds : int;
  mutable flaky : float;
}

(* [prepare] plus the run's effective round count, which must be >= 0. *)
let prepare_run ?rounds (s : Scenario.t) =
  let rounds = Option.value rounds ~default:s.rounds in
  if rounds < 0 then Error (Printf.sprintf "rounds must be >= 0 (got %d)" rounds)
  else Result.map (fun built -> (rounds, built)) (prepare s)

let boot ?rounds ?seed ~config (s : Scenario.t) =
  match prepare_run ?rounds s with
  | Error _ as err -> err
  | Ok (rounds, (base, fleet, m, topology, helper_ranges)) ->
      let n_total = Array.length fleet in
      let seed = Option.value seed ~default:s.seed in
      let params = Params.make ~n:n_total ~c:s.c ~mu:s.mu ~duration:s.duration in
      let catalog = Catalog.create ~m ~c:s.c in
      let alloc_rng = Prng.create ~seed () in
      (* allocation over the base fleet, then deterministic helper
         seeding on top — the base replica lists are untouched *)
      let base_alloc =
        match config.scheme with
        | Permutation ->
            Vod_alloc.Schemes.random_permutation alloc_rng ~fleet:base ~catalog ~k:s.k
        | Round_robin -> Vod_alloc.Schemes.round_robin ~fleet:base ~catalog ~k:s.k
      in
      let alloc =
        if s.helpers = [] then base_alloc else Helpers.seed_allocation ~fleet ~c:s.c base_alloc
      in
      (* Theorem 2 relays are assigned over the base fleet only (helpers
         may be offline); when the population is not compensable the run
         proceeds uncompensated — the paper's negative-result regime. *)
      let compensation =
        match s.population with
        | Scenario.Homogeneous -> None
        | Scenario.Rich_poor { u_star; _ } ->
            Option.map (Helpers.extend_compensation ~n:n_total) (Theorem2.compensate base ~u_star)
      in
      (* the plan hashes its own seed; workload, controller and crowd
         draws get independent streams derived from the run seed *)
      let plan =
        match Plan.compile ?topology ~helpers:helper_ranges ~seed ~n:n_total s.events with
        | Ok p -> p
        | Error msg -> invalid_arg msg (* unreachable: validated by prepare *)
      in
      let engine =
        Engine.create ~params ~fleet ~alloc ?compensation ~policy:Engine.Continue
          ~scheduler:config.scheduler ?topology ()
      in
      Array.iter
        (fun (start, count) ->
          for b = start to start + count - 1 do
            Engine.set_helper engine b true;
            Engine.set_online engine b false
          done)
        helper_ranges;
      let sys =
        {
          engine;
          plan;
          mend = Mend.create ~seed:(seed + 101) (Mend.of_scenario s);
          crowd_rng = Prng.create ~seed:(seed + 13) ();
          helper_ranges;
          n_total;
          m;
          seed;
          rounds;
          flaky = 0.0;
        }
      in
      Engine.set_link_faults engine
        (Some
           (fun ~time ~owner ~server -> Plan.link_fault plan ~prob:sys.flaky ~time ~owner ~server));
      Ok sys

let apply_events sys ~time ~flash =
  let engine = sys.engine in
  List.iter
    (function
      | Plan.Crash b ->
          if Engine.is_online engine b then begin
            Engine.set_online engine b false;
            Registry.incr obs_crashes
          end
      | Plan.Rejoin b ->
          if not (Engine.is_online engine b) then begin
            Engine.set_online engine b true;
            Registry.incr obs_rejoins
          end
      | Plan.Degrade (b, f) ->
          Engine.set_upload_factor engine ~box:b ~factor:f;
          Registry.incr obs_degradations
      | Plan.Restore b -> Engine.set_upload_factor engine ~box:b ~factor:1.0
      | Plan.Flaky p -> sys.flaky <- p
      | Plan.Flash_crowd (video, viewers) -> flash ~video ~viewers
      | Plan.Group_crash _ | Plan.Group_rejoin _ | Plan.Group_degrade _ | Plan.Group_restore _
      | Plan.Helper_join _ | Plan.Helper_leave _ ->
          (* Plan.compile expanded these *)
          assert false)
    (Plan.events_at sys.plan time)

(* ------------------------------------------------------------------ *)
(* KPI budgets as SLOs                                                 *)
(* ------------------------------------------------------------------ *)

(* A scenario's rate-style KPI budgets compile to burn-rate SLOs over
   the default 100/1000-round windows:

   - [max-rejection r]      -> "rejection": bad = unserved,
                               total = served + unserved, target r;
   - [max-startup-p95 L]    -> "startup": bad = new startups slower
                               than L rounds, total = new startups,
                               target 0.05 (the p95 tail budget);
   - [max-sourcing-share s] -> "sourcing": bad = connections served
                               from static replicas, total = served,
                               target s.

   [max-time-to-repair] and [require-recovery] are terminal conditions
   on the whole run, not per-round rates, so they stay KPI-only.  A
   budget of 0 (or an out-of-range one) has no meaningful burn rate —
   any bad event is an instant breach — and is likewise left to the
   end-of-run KPI check. *)

let budget_slo name target metric =
  if target > 0.0 && target <= 1.0 then [ (Slo.spec ~name ~target (), metric) ] else []

let compiled_slos (s : Scenario.t) =
  let kpi = s.Scenario.kpi in
  let budget field f = match field with Some v -> f v | None -> [] in
  budget kpi.Scenario.max_rejection (fun r -> budget_slo "rejection" r Telemetry.rejection)
  @ budget kpi.Scenario.max_startup_p95 (fun l ->
        budget_slo "startup" 0.05 (Telemetry.startup_tail ~limit:l))
  @ budget kpi.Scenario.max_sourcing_share (fun sh ->
        budget_slo "sourcing" sh Telemetry.sourcing)

let run ?rounds ?seed ?(config = default_config) ?on_round (s : Scenario.t) =
  match boot ?rounds ?seed ~config s with
  | Error _ as err -> err
  | Ok sys ->
      let { engine; plan; mend; n_total; m; seed; rounds; _ } = sys in
      let workload =
        if s.rate > 0.0 then
          Vod_workload.Generators.uniform_arrivals (Prng.create ~seed:(seed + 7) ()) ~rate:s.rate
        else Vod_workload.Generators.nothing
      in
      let buf = Buffer.create (rounds * 96) in
      let line fmt = Printf.ksprintf (fun str -> Buffer.add_string buf (str ^ "\n")) fmt in
      line
        {|{"type":"meta","version":"vod-chaos/1","scenario":"%s","config":"%s","seed":%d,"rounds":%d,"n":%d,"m":%d,"c":%d,"k":%d,"target_k":%d,"budget":%d,"transfer_rounds":%d}|}
        (Json.escape s.name) (Json.escape config.label) seed rounds n_total m s.c s.k s.target_k
        s.budget s.transfer_rounds;
      (* The vod-slo/1 stream shares the chaos determinism contract: it
         is built from engine reports only, with round-indexed windows
         and fixed-point floats, so it is byte-identical at any --jobs. *)
      let slo =
        Slo.stream ~scenario:s.name ~config:config.label ~seed ~rounds (compiled_slos s)
      in
      let reports = ref [] in
      let full_replication_round = ref (-1) in
      let min_online = ref n_total in
      let total_unserved = ref 0 and total_faulted = ref 0 in
      let flash ~video ~viewers =
        let idle = Array.of_list (Engine.idle_boxes engine) in
        Sample.shuffle sys.crowd_rng idle;
        for i = 0 to min viewers (Array.length idle) - 1 do
          match Engine.try_demand engine ~box:idle.(i) ~video with
          | Engine.Admitted -> Registry.incr obs_flash_demands
          | admit -> count_admit admit
        done
      in
      for _ = 1 to rounds do
        let time = Engine.now engine + 1 in
        apply_events sys ~time ~flash;
        List.iter
          (fun (box, video) -> count_admit (Engine.try_demand engine ~box ~video))
          (workload engine time);
        Mend.tick mend engine;
        let report = Engine.step engine in
        let installs = Mend.collect mend engine in
        let repairable, unrepairable = Mend.pending mend engine in
        reports := report :: !reports;
        let online = n_total - report.Engine.offline_boxes in
        if online < !min_online then min_online := online;
        total_unserved := !total_unserved + report.Engine.unserved;
        total_faulted := !total_faulted + report.Engine.faulted;
        if
          !full_replication_round < 0
          && time >= Plan.last_disruption plan
          && repairable = [] && unrepairable = []
        then full_replication_round := time;
        line
          {|{"type":"round","t":%d,"demands":%d,"active":%d,"served":%d,"unserved":%d,"faulted":%d,"offline":%d,"repair_active":%d,"repair_served":%d,"under":%d,"unrepairable":%d,"in_flight":%d,"installs":%d}|}
          report.Engine.time report.Engine.new_demands report.Engine.active_requests
          report.Engine.served report.Engine.unserved report.Engine.faulted
          report.Engine.offline_boxes report.Engine.repair_active report.Engine.repair_served
          (List.length repairable + List.length unrepairable)
          (List.length unrepairable)
          (Engine.repair_in_flight engine)
          installs;
        Slo.stream_round slo ~round:report.Engine.time engine report;
        match on_round with
        | None -> ()
        | Some f ->
            f
              {
                t_report = report;
                t_under = List.length repairable + List.length unrepairable;
                t_unrepairable = List.length unrepairable;
                t_in_flight = Engine.repair_in_flight engine;
                t_installs = installs;
                t_slos = Slo.stream_evaluators slo;
              }
      done;
      let stats = Mend.stats mend in
      let _, unrepairable_left = Mend.pending mend engine in
      let unrepairable = List.length unrepairable_left in
      (* Quiescing is not enough: the controller also quiesces when a
         stripe is permanently lost (no alive donor).  Recovery means
         full target replication was actually restored. *)
      let recovered = Mend.quiesced mend engine && unrepairable = 0 in
      let ttf =
        if !full_replication_round < 0 then -1
        else !full_replication_round - Plan.last_disruption plan
      in
      line
        {|{"type":"verdict","recovered":%b,"full_replication_round":%d,"time_to_full_replication":%d,"transfers_started":%d,"transfers_completed":%d,"transfers_aborted":%d,"retries":%d,"replicas_installed":%d,"unrepairable":%d,"total_unserved":%d,"total_faulted":%d,"min_online":%d,"rounds":%d}|}
        recovered !full_replication_round ttf stats.Mend.started stats.Mend.completed
        stats.Mend.aborted stats.Mend.retries stats.Mend.installed unrepairable !total_unserved
        !total_faulted !min_online rounds;
      let slo_summaries, slo_jsonl = Slo.stream_finish slo in
      Ok
        {
          scenario = s;
          seed;
          reports = List.rev !reports;
          stats;
          recovered;
          unrepairable;
          full_replication_round = !full_replication_round;
          time_to_full_replication = ttf;
          min_online = !min_online;
          total_unserved = !total_unserved;
          total_faulted = !total_faulted;
          startup_delays = Engine.startup_delays engine;
          jsonl = Buffer.contents buf;
          slo = slo_summaries;
          slo_jsonl;
        }

let replication_seed (s : Scenario.t) i = s.seed + (1000 * i)

(* Validates once up front so worker domains never have to report
   errors: [run] can then only fail on what [validate] rejects. *)
let replicate ~jobs ~rounds ~replications (s : Scenario.t) run =
  if replications < 1 then Error "replications must be >= 1"
  else
    match prepare_run ?rounds s with
    | Error _ as err -> err
    | Ok _ ->
        let outcome i =
          match run i with
          | Ok o -> o
          | Error msg -> failwith msg (* unreachable: validated above *)
        in
        Ok (Array.to_list (Vod_par.Par.map ?jobs ~f:outcome replications))

let run_many ?rounds ?jobs ?config ~replications (s : Scenario.t) =
  replicate ~jobs ~rounds ~replications s (fun i ->
      run ?rounds ~seed:(replication_seed s i) ?config s)

let verdict_ok o = o.recovered
