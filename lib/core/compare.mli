(** Technique comparison normalized as the paper's Table 1.

    Each row runs the three flows on fresh copies of one circuit and
    normalizes area and standby leakage to the Dual-Vth result (= 100%). *)

type entry = {
  technique : Flow.technique;
  report : Flow.report;
  area_pct : float;
  leakage_pct : float;
}

type row = {
  circuit : string;
  entries : entry list;  (** Dual-Vth, Conventional-SMT, Improved-SMT *)
}

val table1_row :
  ?options:Flow.options -> ?jobs:int -> (unit -> Smt_netlist.Netlist.t) -> row
(** [jobs] (default 1) is passed straight to {!Flow.run_all}.
    @raise Flow.Flow_error when any of the three flows raised it: a row
    is complete or not built at all. *)

val improvement : row -> float * float
(** [(area_saving, leakage_saving)] of improved over conventional, as
    fractions (the paper's headline: about 0.20 and 0.40). *)

val render : row list -> string
(** ASCII rendition in the layout of the paper's Table 1. *)

val render_details : row list -> string
(** Extended table: raw values, MT fractions, switch/holder/buffer counts,
    timing status. *)
