(** The round-based Video-on-Demand simulator.

    This implements the paper's model verbatim (Section 1.1):

    - time is discrete; one round = connection set-up time;
    - when a box demands video [v] in interval [t-1, t) it issues one
      {e preloading} request at [t] for stripe number
      [counter(v) mod c] (a per-video round-robin counter balances
      preload stripes), then [c-1] {e postponed} requests at [t+1];
      start-up delay is hence 3 rounds;
    - each stripe request is served for [T] consecutive rounds (one
      position per round);
    - at every round the engine builds the bipartite graph linking each
      request to the boxes possessing the data it needs next round —
      the boxes storing the stripe per the static allocation, plus the
      boxes whose own request for the same stripe was issued earlier
      and within the playback-cache window [t - T <= t_j < t_i]
      (Section 2.2) — and computes a connection matching by maximum
      flow, box [b] having [floor (u_b * c)] upload slots;
    - a round {e fails} when the matching cannot serve every request;
      matched requests progress, unmatched ones stall, and a Hall
      violator certificate can be extracted.

    Heterogeneous relaying (Section 4, Theorem 2) is supported by
    passing a compensation: each poor box routes its preload and tail
    postponed requests through its rich relay on the doubled time
    scale; statically reserved relay upload is excluded from the
    matching capacity. *)

open Vod_model

type kind =
  | Preload
  | Postponed
  | Relayed_preload
  | Relayed_postponed
  | Repair_transfer
      (** A re-replication copy scheduled by the maintenance controller
          ({!Vod_fault.Mend}): it competes for donor upload slots in the
          connection matching like any stripe request, but its owner is
          the {e destination} box of the new replica, it never makes
          that box busy, and it stays out of the swarm, cache-window and
          start-up accounting. *)

type request = {
  stripe : int;
  owner : int;  (** The box that will play (or, for repairs, store) the data. *)
  requester : int;  (** The box issuing the request ([owner] or its relay). *)
  issued_at : int;
  kind : kind;
  target : int;
      (** Rounds of service needed to complete: the video duration [T]
          for user requests, the configured transfer length for repair
          transfers. *)
  mutable progress : int;  (** Positions downloaded so far, 0..[target]. *)
  mutable last_server : int;  (** Box that served last round, or -1. *)
}

type failure_policy =
  | Fail_fast  (** Raise {!Defeated} on the first imperfect matching. *)
  | Continue  (** Record the failure; unmatched requests stall. *)

type scheduler =
  | Arbitrary
      (** Any maximum matching: capacitated CSR Hopcroft–Karp
          ({!Vod_graph.Bipartite.solve}'s default). *)
  | Prefer_cache
      (** Among maximum matchings, minimise the number of connections
          served from static replicas (min-cost flow with cost 1 on
          allocation edges): keeps sourcing capacity free for
          newcomers. *)
  | Sticky
      (** Among maximum matchings, minimise connection churn: keeping
          last round's server costs 0, rewiring costs 1.  One round is
          by definition the connection set-up time, so rewirings are
          the system's real overhead. *)
  | Greedy_proposals of int
      (** Decentralised scheduling: the given number of parallel
          proposal/acceptance negotiation rounds instead of a global
          max-flow — what boxes can actually compute without a
          coordinator.  Not guaranteed maximum, so some requests may
          stall even in feasible systems; the gap is the price of
          decentralisation (experiment E15). *)
  | Prefer_local
      (** Among maximum matchings, minimise cross-group traffic using
          the topology supplied at {!create}. *)
  | Balance_load
      (** Among maximum matchings, minimise the total historical load of
          the chosen servers — a long-run forwarding-load balancer. *)

type round_report = {
  time : int;
  new_demands : int;
  active_requests : int;  (** Active viewer requests (repairs counted apart). *)
  served : int;  (** Viewer requests that made progress this round. *)
  unserved : int;  (** Viewer requests that stalled (unmatched or faulted). *)
  served_from_cache : int;
      (** Connections whose server holds the data only in its playback
          cache — the "swarming" share; the rest is "sourcing" from the
          static allocation. *)
  rewired : int;
      (** Served requests whose server differs from the previous
          round's — each costs a connection set-up. *)
  cross_group : int;
      (** Served connections crossing topology groups (0 when no
          topology was supplied). *)
  busy_boxes : int;
  offline_boxes : int;  (** Boxes offline (crashed) during the round. *)
  faulted : int;
      (** Matched connections dropped by a transient link fault
          ({!set_link_faults}) — the slot was consumed but no data
          arrived, so the request stalled.  [unserved - faulted] (when
          non-negative) is the stall count attributable to matching
          infeasibility rather than to injected faults. *)
  repair_active : int;  (** Repair transfers in the round's matching. *)
  repair_served : int;
      (** Repair transfers that made progress this round — each consumed
          one donor upload slot that viewer requests could otherwise
          have used. *)
}

exception Defeated of round_report

val report_fields : (string * (round_report -> int)) list
(** The report's scalar fields, in canonical order, each with an
    accessor — the single source of truth from which {!Trace.to_csv}
    derives its header and rows and {!pp_report} its output.  Adding a
    field to {!round_report} only requires extending this list. *)

val pp_report : Format.formatter -> round_report -> unit
(** Renders a report as [{time=3; new_demands=2; ...}] following
    {!report_fields}. *)

type t

val create :
  params:Params.t ->
  fleet:Box.t array ->
  alloc:Allocation.t ->
  ?compensation:Vod_analysis.Theorem2.compensation ->
  ?policy:failure_policy ->
  ?preloading:bool ->
  ?scheduler:scheduler ->
  ?topology:Topology.t ->
  unit ->
  t
(** [preloading] (default true) enables the paper's preloading strategy
    (staggered requests + per-video stripe counter); disabling it makes
    every box request all [c] stripes at once — the naive strategy the
    paper's Lemma 2 analysis rules out, kept as an ablation.
    A [topology] enables cross-group traffic accounting and the
    [Prefer_local] scheduler.

    Each round's instance is rebuilt {e incrementally}: rows untouched
    by churn are blitted from the previous round's CSR view
    ({!Vod_graph.Bipartite.delta_rebuild}) and only dirty rows are
    re-emitted, so build cost follows the delta, not [n].  A global
    invalidation ({!set_alloc}, an online flip) or a round where more
    than half the rows are dirty falls back to a scratch build; both
    builds produce the same instance.
    @raise Invalid_argument when fleet size, allocation, topology and
    params disagree, or [Prefer_local] is chosen without a topology. *)

val params : t -> Params.t
val fleet : t -> Box.t array
val alloc : t -> Allocation.t
val now : t -> int

val is_idle : t -> int -> bool
(** True when the box has no video in progress and may accept a demand. *)

val idle_boxes : t -> int list
(** Idle online boxes that may be drafted as viewers.  Helper boxes
    ({!set_helper}) are excluded — they are upload-only peers — so the
    demand generators built on this list never target them. *)

(** {2 Helper boxes (plug-and-play spare upload)}

    A {e helper} is a box that contributes upload (and whatever replicas
    the allocation seeds onto it) but never watches anything — the
    plug-and-play helpers of peer-assisted VoD deployments.  Marking a
    box as a helper only gates demand admission: {!demand} rejects it,
    {!idle_boxes} skips it and {!run} drops generator demands on it
    silently.  Everything else (matching capacity, churn via
    {!set_online}, degradation, repairs towards it) treats a helper like
    any other box, so a helper's departure is {e exactly} the crash of a
    zero-demand box. *)

val set_helper : t -> int -> bool -> unit
(** Mark (or unmark) a box as a helper.
    @raise Invalid_argument on out-of-range box. *)

val is_helper : t -> int -> bool
(** @raise Invalid_argument on out-of-range box. *)

val swarm_size : t -> int -> int
(** Boxes that entered the swarm of a video within the last [T] rounds. *)

val active_request_count : t -> int
val upload_slots_of_box : t -> int -> int
(** Matching capacity after relay reservations. *)

val is_online : t -> int -> bool

val cancel : t -> int -> unit
(** The user stops watching: the box's in-flight and scheduled requests
    are dropped and it becomes idle; what it already cached keeps
    serving the swarm within the window.
    @raise Invalid_argument on out-of-range box. *)

val set_online : t -> int -> bool -> unit
(** Churn injection.  Taking a box offline drops its in-flight and
    scheduled requests and its still-pending demands (the viewer is
    gone), removes its upload slots and replicas from the matching, and
    hides its cache; bringing it back restores its static replicas and
    upload.  Repair transfers towards the box die with it — the partial
    copy is lost.
    @raise Invalid_argument on out-of-range box. *)

(** {2 Fault injection and self-healing hooks}

    The handles the deterministic fault layer ([vod_fault]) drives.
    None of them is consulted on the plain path: with no degradation,
    no link-fault predicate and no injected repairs the engine is
    bit-identical to one created before these hooks existed. *)

val set_alloc : t -> Vod_model.Allocation.t -> unit
(** Replace the static allocation — the maintenance controller installs
    repaired replicas this way.  The catalog shape (videos, stripes per
    video) and box count must match; stripe ids stay meaningful across
    the swap, so in-flight requests are unaffected.  The next {!step}
    rebuilds its instance from scratch.
    @raise Invalid_argument on a shape mismatch. *)

val set_upload_factor : t -> box:int -> factor:float -> unit
(** Degrade (or restore) a box's upload: its matching capacity becomes
    [floor ((u_b * factor - reserved) * c)], clamped at 0.  [factor]
    must lie in [0, 1]; 1 restores the nominal capacity.
    @raise Invalid_argument on out-of-range box or factor. *)

val upload_factor : t -> int -> float
(** The box's current degradation factor (1 when undegraded). *)

val set_link_faults : t -> (time:int -> owner:int -> server:int -> bool) option -> unit
(** Install (or clear) the transient-connection-failure predicate.
    After the matching, every matched connection consults it; [true]
    drops the connection {e after} it consumed the server's upload slot:
    the request stalls and is counted in {!round_report.faulted}.  The
    predicate must be a pure function of its arguments for runs to be
    reproducible (the fault layer derives it from a seed by hashing, so
    evaluation order never matters). *)

val inject_repair : t -> stripe:int -> dest:int -> rounds:int -> unit
(** Schedule a {!Repair_transfer}: from the next round on, box [dest]
    requests [stripe] from the boxes possessing it until it has been
    served [rounds] times, then the completion is reported through
    {!drain_completed_repairs}.  The transfer consumes real donor
    upload slots in every round it is served.
    @raise Invalid_argument on out-of-range arguments or an offline
    [dest]. *)

val abort_repair : t -> stripe:int -> dest:int -> bool
(** Withdraw an in-flight repair transfer (maintenance gives up, e.g.
    after repeated donor saturation); [false] when no such transfer was
    active or scheduled. *)

val drain_completed_repairs : t -> (int * int) list
(** [(stripe, dest)] pairs of repair transfers completed since the last
    drain, in completion order; draining clears the buffer.  The caller
    (the maintenance controller) is responsible for installing the
    replica via {!set_alloc}. *)

val repair_in_flight : t -> int
(** Repair transfers currently active or scheduled. *)

val last_loads : t -> int array
(** Upload slots used per box in the most recent round's matching. *)

val cumulative_loads : t -> int array
(** Total stripe-rounds served by each box since creation — the
    forwarding-load balance the paper's introduction worries about,
    measurable with {!Vod_util.Stats.jain_fairness}. *)

val startup_delays : t -> int array
(** Realised start-up delay of every demand whose [c] stripes have all
    begun streaming, in rounds since its first request.  Under the
    homogeneous preloading strategy with no stalls this is 1 (preload
    at [t], postponed at [t+1]); the paper's constant "3 round"
    start-up counts two more protocol rounds on top.  Relayed demands
    take 3 (the doubled time scale).  Stalls lengthen it. *)

val startup_count : t -> int
(** Number of realised start-up delays so far — an O(1) cursor into
    {!startup_delays} that lets a per-round consumer (the SLO
    evaluator) read only the delays new since the previous round. *)

val startup_delay : t -> int -> int
(** [startup_delay t i] is the [i]-th realised delay, [0 <= i <
    startup_count t], without the O(n) copy of {!startup_delays}. *)

val set_round_sink : t -> (round_report -> unit) option -> unit
(** Install (or clear) the per-round telemetry flush hook.  The sink
    runs at the end of every {!step}, after the report is assembled and
    before a [Fail_fast] defeat raises — so it sees every round,
    including the losing one.  The sink must only observe: it runs
    inside the round and anything it mutates in the engine would break
    the determinism contract. *)

val demand : t -> box:int -> video:int -> unit
(** Register that the user of [box] demands [video] in the interval
    before the next {!step}.  A poor box with a relay in the supplied
    compensation follows the Theorem 2 request strategy; otherwise the
    box issues plain requests (as in the paper's negative-result
    scenario, where boxes below the threshold have no relays).
    @raise Invalid_argument when the box is busy, a helper, or the video
    is out of range. *)

type reject_reason =
  | Offline  (** The box is offline; a rejoin may make it admissible. *)
  | Helper  (** Upload-only box: never takes demands. *)
  | Out_of_range  (** Box or video id outside the system. *)

type admit =
  | Admitted  (** Registered: the demand enters the next {!step}. *)
  | Queued
      (** The box is valid but cannot start now (busy with a video, or a
          demand for it is already pending) — the caller may hold the
          demand and retry. *)
  | Rejected of reject_reason

val try_demand : t -> box:int -> video:int -> admit
(** Total-function twin of {!demand} for service loops: classify the
    demand instead of raising or silently dropping it.  [Admitted] has
    registered the demand exactly as {!demand} would; the other
    verdicts leave the engine untouched. *)

val awaiting_first : t -> int -> int
(** Stripes of the box's current demand that have not yet begun
    streaming; [0] once start-up completed (or when the box has no
    demand).  The session-accounting hook of the service layer:
    admission is complete exactly when this returns to 0.
    @raise Invalid_argument on out-of-range box. *)

val step : t -> round_report
(** Advance one round: activate scheduled requests, expire finished
    ones, run the connection matching, progress the served requests.
    @raise Defeated (with the report) under [Fail_fast] when some
    request cannot be served. *)

val last_violator : t -> Vod_graph.Bipartite.violator option
(** Hall certificate of the most recent failed round, if any. *)

val last_instance : t -> Vod_graph.Bipartite.t option
(** The bipartite connection-matching instance built by the most recent
    {!step} ([None] before the first round).  Exposed so the
    verification subsystem ([vod_check]) can audit the engine's
    matchings and Hall certificates against the very instance the
    scheduler solved.  The engine reuses one instance across rounds
    (resetting it in place), so the returned value is only meaningful
    until the next {!step}. *)

val video_request_stats : t -> (int * int * int * int) list
(** For each video with active requests, [(video, i, i1, servers)]:
    the request count, the number of distinct stripes requested, and
    the number of online boxes possessing data some request needs —
    the quantities of Lemma 2, measurable on a live trace. *)

val run :
  t -> rounds:int -> demands_for:(t -> int -> (int * int) list) -> round_report list
(** [run t ~rounds ~demands_for] drives [rounds] steps; before each it
    feeds the demands returned by [demands_for t time] (pairs of
    [box, video]) through {!try_demand} — demands on busy, offline and
    helper boxes are classified and dropped rather than raising, so
    stateless generators compose with churn plans.
    Reports are in round order. *)
