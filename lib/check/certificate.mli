(** Machine-checkable certificates for the per-round connection
    matching (Lemma 1 of the paper).

    A solver's answer is never trusted directly: a returned matching is
    replayed against the instance (possession, per-box capacity,
    one-server-per-request, consistent bookkeeping), and a claimed Hall
    violator is replayed as a cut witness (the server set covers every
    neighbour of the request set and its slot total is strictly below
    the demand).  Together the two certify optimality on both sides of
    LP duality: a matching of size [n_left - deficiency] next to a
    violator of that deficiency proves the matching maximum and the
    violator a worst obstruction (König). *)

val check_matching :
  Instance.t -> Vod_graph.Bipartite.outcome -> (unit, string) result
(** Valid feasible assignment: array lengths match the instance; every
    served request is assigned an in-range box that actually possesses
    its data (an instance edge); no box exceeds its slot capacity;
    [right_load] equals the recomputed per-box load; [matched] equals
    the number of assigned requests. *)

val check_violator :
  Instance.t -> Vod_graph.Bipartite.violator -> (unit, string) result
(** Genuine obstruction: the request set X is non-empty, duplicate-free
    and in range; the server list is duplicate-free, in range and
    contains {e every} box adjacent to some request of X (otherwise the
    cut leaks); [server_slots] equals the recomputed slot total of the
    server list; and demand strictly exceeds cut capacity,
    [server_slots < |X|]. *)

val deficiency : Vod_graph.Bipartite.violator -> int
(** [|X| - server_slots]: how many requests of X must stall. *)

val check_optimal_pair :
  Instance.t ->
  Vod_graph.Bipartite.outcome ->
  Vod_graph.Bipartite.violator ->
  (unit, string) result
(** Both certificates individually valid {e and} tight against each
    other: [matched = n_left - deficiency], which proves the matching
    maximum and the violator of maximum deficiency simultaneously. *)

val reference_violator : Vod_graph.Bipartite.t -> Vod_graph.Bipartite.violator option
(** The flow-cut Hall certificate, computed independently of
    {!Vod_graph.Bipartite.hall_violator}: two Dinic max flows over
    {!Reference.network} (the second with unbounded request-to-box
    arcs) and the residual reachability of the minimal minimum cut.
    Slow and allocation-heavy; the oracle panel requires the production
    certificate to equal it exactly. *)
