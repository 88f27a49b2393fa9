(** Deterministic pseudo-random number generation.

    Every stochastic component of the repository (circuit generators, vector
    generation, placement perturbation, extraction noise) draws from this
    module so that experiments are exactly reproducible from a seed.  The
    generator is a splitmix64 core; [split] derives an independent stream,
    which lets subsystems consume randomness without perturbing each other. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of
    subsequent draws from [t]. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future stream). *)

val bits64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val gaussian : t -> mean:float -> sigma:float -> float
(** Normal deviate (Box-Muller). *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample : t -> int -> 'a array -> 'a array
(** [sample t k arr] draws [k] distinct elements (k <= length). *)
