(** Reusable solver arena: every scratch buffer the matching core and
    the Hall search need, grown with amortised doubling and never
    shrunk.

    An arena is allocated once (per engine, per bench harness, per sweep
    task — arenas are NOT domain-safe, each parallel task owns its own)
    and passed to [Hopcroft_karp.solve_csr], [Bipartite.solve ~arena] or
    [Bipartite.hall_violator ~arena].  Once every slab has reached the
    high-water mark of the instances being solved, repeat solves
    allocate nothing.

    Slabs are deliberately exposed: the solvers live in this library and
    index the raw arrays on their hot paths.  Outside code should treat
    everything except [assignment] / [right_load] / [words] as private.

    Slab discipline: [ints slab n] returns the backing array grown to at
    least [n] cells.  Newly grown cells are zero but surviving cells
    keep whatever the previous solve left behind — a "dirty" arena —
    so every solver initialises the prefix it reads.  This is what makes
    solving the same instance twice through a dirty arena deterministic
    (property-tested in [test_graph]). *)

type slab = { mutable buf : int array }
type bitslab = { mutable bits : Vod_util.Bitset.t }

type t = {
  (* results of the last solve *)
  assignment : slab;  (** per left: matched right or -1 *)
  right_load : slab;  (** per right: seats taken *)
  (* shared scratch *)
  queue : slab;  (** BFS / FIFO worklist *)
  (* Hopcroft-Karp (seat-counter capacitated variant) *)
  hk_dist : slab;
  seat_start : slab;
      (** per right: first seat index (prefix sums); in
          [Bipartite.hall_violator], the head of its seated-left list *)
  seats : slab;
      (** occupied-seat registry: owning left per seat; in
          [Bipartite.hall_violator], per left the next left on its right *)
  (* word-parallel BFS scratch (Hopcroft-Karp; [visited_right] is also
     the Hall search's reached set) *)
  free_left : bitslab;  (** lefts still unmatched *)
  free_right : bitslab;  (** rights with a free seat *)
  frontier : bitslab;  (** rights reached by the layer being expanded *)
  visited_right : bitslab;  (** rights absorbed by earlier layers *)
}

val create : unit -> t
(** A fresh arena with every slab empty. *)

val ints : slab -> int -> int array
(** [ints slab n] grows [slab] to at least [n] cells (power-of-two
    doubling; newly grown cells are 0, surviving cells are dirty) and
    returns the backing array.  Borrowed: valid until the next growth. *)

val bits : bitslab -> int -> Vod_util.Bitset.t
(** [bits bitslab n] grows [bitslab] to capacity at least [n] (same
    power-of-two schedule as [ints], so bitslabs requested with equal
    [n] share a capacity and the word-sweep operations accept them
    together) and returns the bitset.  Dirty like [ints]: the solver
    must [clear] or [set_prefix] before reading.  Borrowed: valid until
    the next growth. *)

val assignment : t -> int array
(** Backing array of the last solve's assignment (borrowed; entries
    [0 .. n_left - 1] are meaningful). *)

val right_load : t -> int array
(** Backing array of the last solve's right loads (borrowed; entries
    [0 .. n_right - 1] are meaningful). *)

val words : t -> int
(** Total cells currently allocated across all slabs — a stabilising
    [words] across rounds is the zero-allocation steady state. *)
