(** Standard-cell descriptor: the timing / power / geometry view that the
    rest of the flow consumes.

    The delay model is the classic linear one ([intrinsic + drive * load]);
    loads are in fF, delays in ps, leakage in nW, currents in uA, area in
    um^2.  MT-cells additionally expose the current they draw through the
    virtual ground, which drives sleep-switch sizing. *)

type t = {
  name : string;
  kind : Func.kind;
  vth : Vth.t;  (** threshold flavour of the logic transistors *)
  style : Vth.mt_style;
  area : float;
  input_cap : float;  (** per logic input pin, fF *)
  intrinsic_delay : float;  (** ps (clk->q for flip-flops) *)
  drive_res : float;  (** ps per fF of load *)
  leak_standby : float;  (** nW drawn in standby (MTE asserted for MT) *)
  leak_active : float;  (** nW drawn in active mode *)
  avg_current : float;  (** average active current through ground, uA *)
  peak_current : float;  (** peak simultaneous-switching current, uA *)
  switch_width : float;  (** footer width; 0 unless [Sleep_switch]/embedded *)
  setup : float;  (** ps; 0 for combinational *)
  hold : float;  (** ps; 0 for combinational *)
  drive : int;  (** drive strength (1, 2, 4 = X1/X2/X4); 1 for non-logic *)
}

val delay : t -> load_ff:float -> float
(** Propagation delay into the given load, without bounce derating. *)

val bounce_derate : Tech.t -> bounce_v:float -> float
(** Multiplier [1 + k * bounce/vdd] applied to MT-cell delays when their
    virtual ground bounces by [bounce_v]. *)

val delay_with_bounce : Tech.t -> t -> load_ff:float -> bounce_v:float -> float
(** [delay] derated by bounce when the cell is an MT style; bounce is
    ignored for [Plain] cells. *)

val is_mt : t -> bool
val is_sequential : t -> bool

val pp : Format.formatter -> t -> unit
