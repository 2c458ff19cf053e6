(** Bipartite b-matching instances — the "connection matching" of the
    paper (Section 2.2).  Left vertices are stripe requests (each needs
    exactly one server), right vertices are boxes with an integral number
    of upload slots; an edge means the box possesses the data the request
    needs next round.

    Lemma 1 (min-cut max-flow / generalised Hall): a full matching exists
    iff every request subset [X] satisfies [slots(B(X)) >= |X|].  When no
    full matching exists, {!hall_violator} extracts a violating set as
    an explicit infeasibility certificate: the requests and boxes
    reachable from the unmatched requests along alternating paths of a
    maximum matching (König's construction) — the same set as the
    source side of the minimal minimum cut. *)

type t

val create : n_left:int -> n_right:int -> right_cap:int array -> t
(** @raise Invalid_argument on negative sizes or capacities, or when
    [right_cap] has length other than [n_right]. *)

val reset : t -> n_left:int -> n_right:int -> right_cap:int array -> unit
(** Rewind to an empty instance of the given (possibly different) shape,
    reusing every backing buffer — the engine's per-round rebuild path;
    once buffers reach their high-water mark a reset + refill allocates
    nothing.  Same validation as {!create}. *)

val delta_rebuild :
  t ->
  n_left:int ->
  right_cap:int array ->
  src_of:(int -> int) ->
  fill:(int -> (int -> unit) -> unit) ->
  unit
(** Rebuild the instance for the next round from the current one,
    copying unchanged rows and re-emitting only dirty ones — the
    engine's churn-proportional alternative to {!reset} + {!add_edge}.
    [src_of l] names the current row new row [l] copies verbatim, or
    [-1] for a row refilled by [fill l emit]; the number of rights is
    unchanged and their capacities are set from [right_cap].  See
    {!Csr.rebuild_rows} for cost and the frozen-instance caveat
    ({!add_edge} raises until the next {!reset}).
    @raise Invalid_argument as {!reset}, or as {!Csr.rebuild_rows}. *)

val add_edge : t -> left:int -> right:int -> unit
(** Declares that box [right] can serve request [left].  Duplicate edges
    are tolerated (they do not change the instance).
    @raise Invalid_argument on out-of-range endpoints. *)

val n_left : t -> int
val n_right : t -> int
val right_cap : t -> int array

val csr : t -> Csr.t
(** The instance's flat CSR representation, finalized (borrowed: owned
    by the instance, invalidated by {!reset}; mutating it directly is
    not allowed).  This is what the CSR solver cores traverse; exposed
    so harnesses can call e.g. [Hopcroft_karp.solve_csr] without an
    adjacency materialisation. *)

val adjacency : t -> int array array
(** Left-to-right adjacency, sorted per row with duplicates removed
    (memoised; allocated on first use — the min-cost, greedy and
    reference-solver view). *)

val degree : t -> int -> int
(** Number of distinct boxes able to serve a request. *)

type outcome = {
  matched : int;  (** Number of requests served. *)
  assignment : int array;  (** request -> serving box, or -1. *)
  right_load : int array;  (** Slots used per box. *)
}

val solve : ?arena:Arena.t -> t -> outcome
(** Maximum matching by the capacitated CSR Hopcroft–Karp core
    ({!Hopcroft_karp.solve_csr}), the engine's one exact path (Lemma 1:
    any maximum matching serves the round); vod_check keeps independent
    reference solvers to diff it against.  Pass [arena] (one per engine
    / harness / parallel task — arenas are not domain-safe) to reuse the
    scratch buffers across calls, otherwise a fresh arena is allocated.
    The returned [outcome] arrays are freshly allocated and owned by the
    caller either way. *)

val solve_min_cost : t -> edge_cost:(left:int -> right:int -> int) -> outcome
(** Maximum matching of minimum total edge cost (successive shortest
    paths).  The matching size always equals {!solve}'s; among all
    maximum matchings the one minimising the sum of [edge_cost] over
    used request-to-box connections is returned.  Used by the engine's
    cache-preferring scheduler. *)

val solve_greedy :
  ?until_stable:bool ->
  ?warm_start:int array ->
  rounds:int ->
  Vod_util.Prng.t ->
  t ->
  outcome
(** Distributed-flavoured matching by parallel proposal rounds: each
    unmatched request proposes to a uniformly random adjacent box with
    spare capacity; boxes accept proposals up to capacity (random
    subset when oversubscribed); accepted connections persist.  After
    [rounds] rounds (or, with [until_stable], once no proposal can be
    made) the partial matching is returned.  When stable the matching
    is {e maximal}, hence at least half the optimum; with few rounds it
    models what boxes can negotiate without any global view.
    [warm_start] pre-seats requests on their previous servers (entries
    are box ids or -1; invalid or over-capacity seats are ignored) —
    persistent connections, as a deployed system would keep. *)

val is_feasible : t -> bool
(** True iff every request can be served simultaneously ({!solve}). *)

type violator = {
  requests : int list;  (** The set X of requests. *)
  servers : int list;  (** B(X): every box adjacent to X. *)
  server_slots : int;  (** Total upload slots of B(X), < |X|. *)
}

val hall_violator : ?arena:Arena.t -> ?matching:outcome -> t -> violator option
(** [None] when the instance is feasible; otherwise a certificate set
    [X] with [slots(B(X)) < |X|]: [X] is every request reachable from an
    unmatched request along alternating paths of a maximum matching
    (request -> any adjacent box -> the requests seated on it), and
    [servers] the boxes reached, all of them full.  This is the source
    side of the minimal minimum cut of the flow network of Lemma 1, the
    same set under every maximum matching, so the certificate does not
    depend on which solver produced the matching.  Both lists ascend.

    [matching] (typically the round's own outcome) is the matching to
    search from; it must be a matching of [t], as every solver's
    outcome is, and is not revalidated.  When it is not maximum — a
    reached box still has a free seat, e.g. after {!solve_greedy} — it
    is discarded and a Hopcroft–Karp solve replaces it; without
    [matching] that solve runs directly.  [arena] as in {!val:solve}:
    the search (per-box seated-request lists, the worklist and the
    reached set) runs in arena scratch and only the result lists are
    allocated.
    @raise Invalid_argument when [matching] has the wrong length. *)
