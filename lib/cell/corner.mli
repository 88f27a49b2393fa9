(** Process / voltage / temperature corners.

    Sub-threshold leakage is the paper's whole subject, and it is fiercely
    PVT-dependent: exponential in temperature and threshold shift, roughly
    linear in supply.  This module scales the typical-corner library values
    so experiments can report leakage and timing across corners — the
    "leakage vs temperature" curves every MTCMOS evaluation shows.

    Model: leakage multiplies by [exp ((T - 25) / T0)] with T0 = 35C
    (about 2x per 25C, the usual rule of thumb), by a process factor
    (slow 0.5x, fast 2.5x — fast silicon has lower Vth), and by the supply
    ratio cubed (DIBL); delay multiplies by the inverse process speed and a
    mild temperature slope. *)

type process = Slow | Typical | Fast

type t = {
  process : process;
  temperature_c : float;
  vdd : float;
}

val typical : Tech.t -> t
(** TT, 25C, nominal supply. *)

val make : ?process:process -> ?temperature_c:float -> Tech.t -> t
(** Nominal supply ([tech.vdd]). *)

val leakage_factor : Tech.t -> t -> float
(** Multiplier on standby/active leakage (1.0 at [typical]). *)

val delay_factor : Tech.t -> t -> float
(** Multiplier on cell delays (1.0 at [typical]). *)

val pp : Format.formatter -> t -> unit
