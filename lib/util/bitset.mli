(** Fixed-capacity bitset over [0..capacity-1], packed into an int array
    (32 bits per word).  Used for possession sets, visited marks and the
    word-parallel BFS frontiers of the matching kernels: layer expansion
    ORs whole rows into a frontier bitset and the and-not / intersection
    sweeps below test 32 vertices per machine word.

    32 rather than the 63 an OCaml int could hold: bit positioning is
    then [i lsr word_shift] / [i land bit_mask] instead of a division
    by 63, and the positioning runs once per edge in the kernels'
    frontier builds while the word-at-a-time sweeps that pay for the
    lower density run once per word.

    The safe operations bounds-check; the [unsafe_*] variants skip both
    the bounds check and the array bounds check and are reserved for the
    solver hot loops, which guarantee their indices by construction. *)

type t

val bits_per_word : int
(** 32; equals [1 lsl word_shift]. *)

val word_shift : int
(** 5: bit [i] lives in word [i lsr word_shift]. *)

val bit_mask : int
(** 31: ... at position [i land bit_mask].  Kernels fusing bit updates
    into their inner loops should use the shift/mask pair — it is the
    reason the layout is 32 bits per word. *)

val create : int -> t
(** All bits clear.  @raise Invalid_argument on negative capacity. *)

val capacity : t -> int

val words : t -> int array
(** Borrowed backing array: word [w] holds bits
    [w * bits_per_word .. w * bits_per_word + 31].  Exposed so kernels
    can fuse bit updates into their innermost loops; bits at or above
    [capacity] must stay clear or every population-counting operation
    breaks. *)

val word_count : t -> int
(** Number of backing words, [ceil (capacity / 32)]. *)

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit

val unsafe_mem : t -> int -> bool
val unsafe_add : t -> int -> unit
val unsafe_remove : t -> int -> unit
(** No bounds checks: the index must be in [0, capacity). *)

val cardinal : t -> int
(** Population count, O(capacity/32 + population). *)

val is_empty : t -> bool
val clear : t -> unit

val set_prefix : t -> int -> unit
(** [set_prefix t n] makes the set exactly [{0, .., n-1}]: bits below
    [n] set, all others clear.  O(capacity/32).
    @raise Invalid_argument unless [0 <= n <= capacity]. *)

val next_set_bit : t -> int -> int
(** [next_set_bit t i] is the smallest set bit [>= i], or [-1] if none.
    Skips zero words in one compare each, so scanning a sparse set costs
    O(words + population).  Safe to call while clearing bits at or below
    the cursor (the idiom for draining a worklist in place). *)

val iter : (int -> unit) -> t -> unit
(** Ascending order; O(words + population) via [next_set_bit]-style
    word skipping.  The set must not be mutated during iteration. *)

val to_list : t -> int list
val copy : t -> t

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] sets [dst := dst ∪ src].
    @raise Invalid_argument on capacity mismatch. *)

val andnot_into : dst:t -> t -> unit
(** [andnot_into ~dst src] sets [dst := dst \ src].
    @raise Invalid_argument on capacity mismatch. *)

val intersects : t -> t -> bool
(** Whether the intersection is nonempty, without materialising it;
    stops at the first witnessing word.
    @raise Invalid_argument on capacity mismatch. *)

