(** Dinic's maximum-flow algorithm: BFS level graph + blocking flows with
    the current-arc optimisation, over an explicit {!Flow_network}.  On
    the unit-capacity bipartite networks of connection matching this
    runs in O(E sqrt(V)), like Hopcroft–Karp; it is one of the
    independent references the oracle panel diffs the production
    matching core against ({!Reference}). *)

val max_flow : ?limit:int -> Flow_network.t -> src:int -> sink:int -> int
(** Computes a maximum flow destructively on the network and returns its
    value.  [limit] caps the amount of flow pushed (default unbounded) —
    useful for early-exit feasibility checks.
    @raise Invalid_argument if [src = sink] or either is out of range. *)
