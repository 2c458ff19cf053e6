(** Chaos runs: execute a {!Scenario} — build the system, compile its
    fault {!Plan}, drive the engine round by round applying events and
    background load while {!Mend} self-heals — and emit a deterministic
    JSONL verdict stream.

    {b Determinism contract:} the JSONL output — the [vod-chaos/1]
    round stream {e and} the [vod-slo/1] verdict stream — is a pure
    function of [(scenario, rounds, seed)].  Both are assembled only
    from engine reports and controller state (never from the shared
    metrics registry or wall time); every number is an integer, a
    verbatim scenario field, or a fixed-point [%.4f] float derived
    from integer sums over round-indexed windows; and replications get
    independent seeded streams combined in replication order — so two
    runs of the same scenario, at any [--jobs] value, are
    byte-identical. *)

type alloc_scheme = Permutation | Round_robin

type engine_config = {
  label : string;  (** Appears as ["config"] in the meta line and the scorecard. *)
  scheduler : Vod_sim.Engine.scheduler;
  scheme : alloc_scheme;  (** Static allocation scheme for the base fleet. *)
}
(** One engine/allocation column of a battery matrix. *)

val default_config : engine_config
(** ["scratch"]: a cold maximum-matching solve every round, arbitrary
    scheduler, random permutation allocation — the engine's defaults. *)

val config_of_name : string -> (engine_config, string) result
(** Named configs: [scratch], [sticky], [prefer-cache], [balance-load],
    [round-robin]. *)

(** {1 The running system}

    One bring-up for both scenario runners, this one and the service
    layer ({!Vod_serve}). *)

type system = {
  engine : Vod_sim.Engine.t;
  plan : Plan.t;
  mend : Mend.t;  (** Seeded at [seed + 101]. *)
  crowd_rng : Vod_util.Prng.t;  (** Flash-crowd draws, seeded at [seed + 13]. *)
  helper_ranges : (int * int) array;  (** [(first box, count)] per helper fleet. *)
  n_total : int;  (** Base boxes plus helper boxes. *)
  m : int;  (** Catalog size. *)
  seed : int;  (** The run seed; runners derive their own streams from it. *)
  rounds : int;
  mutable flaky : float;  (** Link-fault probability, set by [flaky] events. *)
}

type outcome = {
  scenario : Scenario.t;
  seed : int;  (** The seed this replication actually ran with. *)
  reports : Vod_sim.Engine.round_report list;
  stats : Mend.stats;
  recovered : bool;
      (** The controller quiesced with nothing left to repair {e and} no
          stripe was permanently lost: full target replication holds. *)
  unrepairable : int;  (** Stripes beyond repair at the end. *)
  full_replication_round : int;
      (** First round at/after the last disruptive event with every
          stripe back at [target_k] alive replicas; -1 if never. *)
  time_to_full_replication : int;
      (** Rounds from the last disruptive event to full replication;
          -1 if never reached. *)
  min_online : int;  (** Fewest online boxes over the run (helpers included). *)
  total_unserved : int;
  total_faulted : int;
  startup_delays : int array;
      (** Realised start-up delays of every admitted demand, in rounds
          ({!Vod_sim.Engine.startup_delays}) — the scorecard's
          startup-latency sample. *)
  jsonl : string;  (** One meta line, one line per round, one verdict. *)
  slo : Vod_obs.Slo.summary list;
      (** Burn summaries of the SLOs compiled from the scenario's KPI
          budgets (see below); empty when no budget compiles. *)
  slo_jsonl : string;
      (** The [vod-slo/1] stream: meta line (with the compiled specs),
          a verdict line for the first round and for every round whose
          state changed, then one [slo-summary] line per spec. *)
}

type tick = {
  t_report : Vod_sim.Engine.round_report;
  t_under : int;  (** Under-replicated stripes after the round. *)
  t_unrepairable : int;
  t_in_flight : int;  (** Repair transfers currently running. *)
  t_installs : int;  (** Replicas installed this round. *)
  t_slos : Vod_obs.Slo.t list;  (** Live evaluators, spec order. *)
}
(** What a [?on_round] observer sees after each round — the
    [vodctl top] dashboard feed. *)

val validate : Scenario.t -> (unit, string) result
(** Static validation without running: plan compilation (including
    helper ranges and topology), catalog fit against the {e base}
    fleet, flash-crowd videos inside the catalog. *)

val prepare :
  Scenario.t ->
  ( Vod_model.Box.t array
    * Vod_model.Box.t array
    * int
    * Vod_model.Topology.t option
    * (int * int) array,
    string )
  result
(** The validated system build behind {!validate}: [(base fleet, full
    fleet with helper boxes appended, catalog size, topology, helper
    ranges)]. *)

val boot :
  ?rounds:int -> ?seed:int -> config:engine_config -> Scenario.t -> (system, string) result
(** Build the system a scenario describes ([rounds]/[seed] override the
    scenario's): [config]'s allocation over the base fleet, helper
    seeding, Theorem 2 compensation for a compensable rich/poor
    population, the compiled fault plan, the engine (helpers marked and
    offline), the repair controller, the crowd PRNG and the link-fault
    predicate reading [flaky].  [Error] on an invalid scenario (see
    {!validate}) or [rounds < 0]. *)

val apply_events :
  system -> time:int -> flash:(video:int -> viewers:int -> unit) -> unit
(** Apply the plan's events at [time]: crashes, rejoins, degradations,
    restores and link-fault changes act on the engine (and count in the
    [fault.*] registry counters); a flash crowd is handed to [flash],
    since each runner admits crowds its own way. *)

val budget_slo : string -> float -> 'm -> (Vod_obs.Slo.spec * 'm) list
(** [budget_slo name target metric] is the burn-rate SLO [name] at
    [target] on the default 100/1000-round windows, paired with its
    per-round metric — or nothing when [target] is outside (0, 1]: a
    budget of 0 has no meaningful burn rate and stays an end-of-run KPI
    check.  The compilation rule of both runners' SLO sets. *)

val run :
  ?rounds:int ->
  ?seed:int ->
  ?config:engine_config ->
  ?on_round:(tick -> unit) ->
  Scenario.t ->
  (outcome, string) result
(** Run one replication ([rounds]/[seed] override the scenario's;
    [config] defaults to {!default_config}).

    The scenario's rate-style KPI budgets compile to burn-rate SLOs on
    the default 100/1000-round windows: [max-rejection r] to
    ["rejection"] (bad = unserved, total = served + unserved, target
    [r]); [max-startup-p95 L] to ["startup"] (bad = new startups
    slower than [L] rounds, total = new startups, target 0.05 — the
    p95 tail budget); [max-sourcing-share s] to ["sourcing"] (bad =
    connections sourced from static replicas, total = served, target
    [s]).  [max-time-to-repair] and [require-recovery] are terminal
    conditions, not per-round rates, and stay KPI-only, as do budgets
    outside (0, 1].

    [on_round] observes each completed round (report, repair backlog,
    live SLO evaluators).  It must not mutate the engine or scenario:
    the callback exists for dashboards and progress meters, and the
    determinism contract assumes the run is a closed system.  The scenario's helper
    fleets are appended after the [n] base boxes, seeded with replicas
    and set offline as helpers before round 1; a rich/poor population
    builds the Theorem 2 two-class base fleet and compensates it at
    [u_star] when feasible (uncompensated otherwise).  [Error] on an
    invalid scenario: plan compilation failure, flash-crowd video
    outside the catalog, or replicas that do not fit the base fleet's
    storage. *)

val run_many :
  ?rounds:int ->
  ?jobs:int ->
  ?config:engine_config ->
  replications:int ->
  Scenario.t ->
  (outcome list, string) result
(** [replications] independent runs (see {!replication_seed}) through
    {!replicate}. *)

val replication_seed : Scenario.t -> int -> int
(** Replication [i] runs at seed [scenario.seed + 1000 * i]. *)

val replicate :
  jobs:int option ->
  rounds:int option ->
  replications:int ->
  Scenario.t ->
  (int -> ('a, string) result) ->
  ('a list, string) result
(** [replicate ~jobs ~rounds ~replications s run] runs [run i] for every
    replication [i] over [jobs] workers with {!Vod_par.Par.map}; results
    are in replication order regardless of scheduling.  It validates
    the scenario, [replications >= 1] and the effective round count
    ([rounds], else the scenario's) [>= 0] once up front, so [Error] is
    returned, not raised from workers. *)

val verdict_ok : outcome -> bool
(** The run's pass criterion: full target replication was restored
    ([recovered]). *)
