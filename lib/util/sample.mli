(** Random sampling primitives built on {!Prng}. *)

val shuffle : Prng.t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : Prng.t -> int -> int array
(** [permutation g n] is a uniform random permutation of [0..n-1]. *)

val choose_distinct : Prng.t -> n:int -> k:int -> int array
(** [choose_distinct g ~n ~k] draws [k] pairwise-distinct values from
    [0..n-1], uniformly.  Uses a partial Fisher–Yates, O(n) space.
    @raise Invalid_argument if [k > n] or [k < 0]. *)

val weighted_index : Prng.t -> float array -> int
(** Draw an index with probability proportional to its (non-negative)
    weight.  Linear scan; use {!Categorical} for repeated draws.
    @raise Invalid_argument on an all-zero or empty weight vector. *)

(** Alias-method sampler for repeated categorical draws in O(1). *)
module Categorical : sig
  type t

  val create : float array -> t
  (** Preprocess weights (need not be normalised) in O(n).
      @raise Invalid_argument on empty or all-zero weights. *)

  val draw : Prng.t -> t -> int
  val size : t -> int
end

(** Zipf-distributed popularity over ranks [0..n-1]:
    P(rank i) proportional to 1/(i+1)^s. *)
module Zipf : sig
  type t

  val create : n:int -> s:float -> t
  val draw : Prng.t -> t -> int
  val pmf : t -> int -> float
end

val poisson : Prng.t -> float -> int
(** [poisson g lambda] draws from Poisson(lambda); inversion for small
    lambda, normal-tail safe rejection (PTRS) for large.  Each draw
    costs O(1) expected time whatever the size of [lambda]. *)

val exponential : Prng.t -> float -> float
(** [exponential g rate] draws from Exp(rate). *)
