(** Dinic's maximum-flow algorithm: BFS level graph + blocking flows with
    the current-arc optimisation.  On the unit-capacity bipartite networks
    produced by connection matching this runs in O(E sqrt(V)), matching
    Hopcroft–Karp. *)

val max_flow : ?limit:int -> Flow_network.t -> src:int -> sink:int -> int
(** Computes a maximum flow destructively on the network and returns its
    value.  [limit] caps the amount of flow pushed (default unbounded) —
    useful for early-exit feasibility checks.
    @raise Invalid_argument if [src = sink] or either is out of range. *)

val solve_csr : arena:Arena.t -> Csr.t -> int
(** Dinic specialised to the implicit bipartite matching network
    (src -> lefts cap 1 -> rights via the CSR edges cap 1 -> sink with
    cap [right_cap]); no [Flow_network] is materialised.  Returns the
    flow value (= matching size); the assignment and per-right loads are
    left in [Arena.assignment] / [Arena.right_load] (borrowed, valid
    until the arena's next solve).  All scratch lives in the arena, so
    steady-state calls allocate nothing.
    @raise Invalid_argument when the instance is too large to pack
    ([n_left] or the edge count at least [2^31]). *)
