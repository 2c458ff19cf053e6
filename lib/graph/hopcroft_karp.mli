(** Capacitated Hopcroft–Karp bipartite matching.

    Left vertices each need one unit (a stripe request); right vertices
    accept up to [right_cap.(j)] units (a box's stripe-upload slots).
    [solve_csr] is the engine's one matching core ({!Bipartite.solve}):
    a flat zero-allocation solver over [Csr.t] + [Arena.t] with
    per-right seat counters.  [solve] is a thin shim over it with the
    historical adjacency-row signature.  The independent references
    it is diffed against (flow-based and slot-expansion solvers, and
    experiment E9) live in vod_check. *)

type result = {
  size : int;  (** Number of matched left vertices. *)
  assignment : int array;  (** left -> matched right, or -1. *)
  right_load : int array;  (** Units used per right vertex. *)
}

val solve_csr : arena:Arena.t -> Csr.t -> int
(** Maximum matching over a finalized CSR instance.  Returns the
    matching size; the assignment (left -> right or -1) and per-right
    loads are left in [Arena.assignment] / [Arena.right_load] (borrowed,
    valid until the arena's next solve).  All scratch lives in the
    arena, so steady-state calls allocate nothing. *)

val solve :
  n_left:int ->
  n_right:int ->
  adj:int array array ->
  right_cap:int array ->
  unit ->
  result
(** {!solve_csr} over adjacency rows, with fresh result arrays.
    @raise Invalid_argument on negative capacities, adjacency out of
    range, or mismatched array lengths. *)
