(** The default cell library with all Vth / MT variants.

    Derivation rules from the low-Vth base characterization:
    - high-Vth: ~45% more intrinsic delay, ~35% weaker drive, 5% of the
      leakage (the 20:1 low/high leakage ratio the Dual-Vth literature
      assumes), same footprint;
    - MT (VGND style): low-Vth logic in series with the shared footer:
      small delay penalty, 12% area for the VGND port, standby leakage
      reduced to a residual (the footer itself is accounted per cluster);
    - MT (embedded style, conventional Selective-MT): the VGND variant plus
      a private footer sized for the cell's own peak current at the
      technology bounce limit, plus a private output holder — which is why
      conventional MT-cells are so much larger;
    - the MT-no-VGND variant is electrically the VGND variant but with no
      VGND port definition, used between replacement and switch insertion
      exactly as in the paper's flow. *)

type t

val default : ?tech:Tech.t -> unit -> t
(** Build the library for a technology ([Tech.default] if omitted). *)

val tech : t -> Tech.t

val find : t -> string -> Cell.t
(** Lookup by cell name. Raises [Not_found]. *)

val find_opt : t -> string -> Cell.t option

val variant : ?drive:int -> t -> Func.kind -> Vth.t -> Vth.mt_style -> Cell.t
(** The library cell implementing [kind] in the given flavour and drive
    strength (default X1; combinational kinds also come as X2 and X4).
    Raises [Not_found] for combinations the library does not provide
    (e.g. MT flip-flops: state-holding cells stay on the true rails). *)

val has_variant : ?drive:int -> t -> Func.kind -> Vth.t -> Vth.mt_style -> bool

val restyle : t -> Cell.t -> Vth.t -> Vth.mt_style -> Cell.t
(** Same logic function and drive strength, different flavour. Raises
    [Not_found]. *)

val resize : t -> Cell.t -> int -> Cell.t
(** Same logic function and flavour, different drive strength. Raises
    [Not_found] when that strength does not exist. *)

val drives : int list
(** Available drive strengths, ascending. *)

val switch : t -> width:float -> Cell.t
(** A sleep-switch (footer) cell of the given width, created on demand and
    cached; widths are quantized to 0.1.  Safe to call while other domains
    look cells up in the same library: the fixed catalogue is never
    written after {!default}, and switch cells are published atomically. *)

val holder : t -> Cell.t
(** The output-holder cell. *)

val retention_dff : t -> Cell.t
(** A state-retention flip-flop ("balloon" style): low-Vth master/slave for
    speed plus a high-Vth shadow latch that keeps the state through
    standby.  Slightly slower and ~30% larger than the plain flip-flop, but
    its standby leakage is two orders of magnitude below the low-Vth
    flip-flop's — the knob that attacks the sequential leakage floor the
    Selective-MT style cannot touch. *)

val is_retention : Cell.t -> bool

val mte_buffer : t -> Cell.t
(** Buffer used to build the MTE enable tree (high-Vth: it must not leak). *)

val clock_buffer : t -> Cell.t

val hold_buffer : t -> Cell.t
(** Delay buffer inserted by the hold-fixing ECO. *)

val cells : t -> Cell.t list
(** All cells currently in the library (sized switches included). *)

val comb_kinds : Func.kind list
(** The combinational kinds the generators may instantiate. *)
