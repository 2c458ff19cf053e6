(** Reference maximum-matching solvers: independent implementations the
    oracle panel diffs the production core ({!Vod_graph.Bipartite.solve},
    capacitated CSR Hopcroft–Karp) against.  They are written for
    clarity, not speed, allocate freely, and record nothing in
    [Vod_obs.Registry.default], so the [hk.*] counters count the
    production core alone. *)

type network = {
  net : Flow_network.t;
  sink : int;  (** The sink node; the source is node 0. *)
  middle : Flow_network.arc array array;
      (** The request -> box arcs, aligned with the sorted adjacency rows
          of {!Vod_graph.Bipartite.adjacency}. *)
}

val network : ?middle_cap:int -> Vod_graph.Bipartite.t -> network
(** The flow network of Lemma 1: source [0] -> request [request_node l]
    (cap 1) -> box [box_node bip r] (cap [middle_cap], default 1) ->
    sink (cap = the box's upload slots).  A maximum flow is a maximum
    matching; with unbounded [middle_cap] only source and sink arcs can
    be cut, which is how {!Certificate.reference_violator} reads a Hall
    certificate off the minimal minimum cut. *)

val request_node : int -> int
val box_node : Vod_graph.Bipartite.t -> int -> int

val solve :
  [ `Dinic | `Push_relabel | `Slots ] ->
  Vod_graph.Bipartite.t ->
  Vod_graph.Bipartite.outcome
(** A maximum matching: [`Dinic] and [`Push_relabel] run {!Dinic} and
    {!Push_relabel} max flows on {!network}; [`Slots] runs textbook
    Hopcroft–Karp over slot expansion (each box split into one unit
    slot per upload slot).  The returned arrays are fresh. *)
