(** Streaming telemetry bridge: {!Engine.round_report}s into
    {!Vod_obs.Timeseries} rings and {!Vod_obs.Slo} evaluators.

    One {!t} per engine run.  {!attach} installs it as the engine's
    round sink, after which every {!Engine.step} pushes the canonical
    per-round series (demands, active, served, unserved, cache hits,
    rewired, busy/offline/faulted boxes, repair activity) and feeds
    each bound SLO its per-round [(bad, total)] pair.  The sink is
    observation-only: it reads the report and the startup-delay vector
    and never mutates the engine, so telemetry cannot perturb a run.

    The round clock is the report stream itself — deterministic at any
    [--jobs] — and each evaluator belongs to exactly one engine, so no
    cross-domain sharing arises. *)

module Obs = Vod_obs

type t

val series_names : string list
(** The canonical series, in creation (= display) order. *)

val sample : Engine.round_report -> string -> int
(** The report field a canonical series samples (for consumers feeding
    a {!Vod_obs.Timeseries} by hand, e.g. the chaos dashboard).
    @raise Invalid_argument on an unknown series name. *)

val create :
  ?capacity:int ->
  ?windows:int list ->
  ?slos:(Obs.Slo.spec * (Engine.t -> Engine.round_report -> int * int)) list ->
  unit ->
  t
(** Defaults: capacity 1024, windows [[100; 1000]], no SLOs.  Each SLO
    pairs a spec with its metric — a function from the engine and the
    round's report to that round's [(bad, total)]. *)

val observe : t -> Engine.t -> Engine.round_report -> unit
(** Feed one round by hand (when not using {!attach}). *)

val attach : t -> Engine.t -> unit
(** Install as the engine's round sink ({!Engine.set_round_sink}). *)

val timeseries : t -> Obs.Timeseries.t
val series : t -> string -> Obs.Timeseries.series
val slos : t -> Obs.Slo.t list
(** Evaluators in spec order. *)

val rounds : t -> int

(** {1 Stock metrics} *)

val rejection : Engine.t -> Engine.round_report -> int * int
(** [(unserved, served + unserved)]. *)

val sourcing : Engine.t -> Engine.round_report -> int * int
(** [(served - served_from_cache, served)] — connections that consumed
    sourcing (non-cache) capacity. *)

val startup_tail : limit:float -> Engine.t -> Engine.round_report -> int * int
(** Stateful cursor over {!Engine.startup_delays}: per round,
    [(startups slower than limit, new startups)].  Create one per
    engine run. *)

val default_slos : unit -> (Obs.Slo.spec * (Engine.t -> Engine.round_report -> int * int)) list
(** Rejection <= 5% and startup delays over 3 rounds <= 5%, both on the
    default 100/1000-round windows — the [vodctl top] simulate-mode
    panel. *)
