(** Capacitated Hopcroft–Karp bipartite matching.

    Left vertices each need one unit (a stripe request); right vertices
    accept up to [right_cap.(j)] units (a box's stripe-upload slots).
    This is a direct combinatorial solver, independent of the flow-based
    path: [solve_csr] is the engine's matching core ({!Bipartite.solve}'s
    default), and the flow solvers are its cross-validation references
    (experiment E9).

    Two implementations coexist: [solve_csr], the flat zero-allocation
    core over [Csr.t] + [Arena.t] (per-right seat counters), and
    [solve_slots], the historical slot-expansion algorithm kept so the
    vod_check oracle panel can diff the two.  [solve] is a thin shim
    over the CSR core with the historical signature. *)

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

val solve_slots :
  n_left:int ->
  n_right:int ->
  adj:int array array ->
  right_cap:int array ->
  unit ->
  result
(** The legacy slot-expansion implementation of [solve] (rights expanded
    into unit slots).  Same contract and validation as [solve]; kept as
    an independent algorithm for differential checking. *)
