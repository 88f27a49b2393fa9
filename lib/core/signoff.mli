(** Multi-corner sign-off summary.

    Checks the finished design across PVT corners: timing is evaluated by
    scaling the typical-corner data-path delays with the corner's delay
    factor (a first-order derate, standard for a quick corner sweep), and
    standby leakage by the corner's exponential leakage factor.  The worst
    corner for each metric is flagged — timing signs off at slow/cold,
    leakage at fast/hot, which is why both ends matter. *)

type entry = {
  corner : Smt_cell.Corner.t;
  wns_ps : float;
  timing_met : bool;
  standby_nw : float;
}

type summary = {
  entries : entry list;
  all_met : bool;
  worst_timing : entry;
  worst_leakage : entry;
}

val default_corners : Smt_cell.Tech.t -> Smt_cell.Corner.t list
(** SS/125C, TT/25C, FF/125C, SS/-40C — the classic four. *)

val run : ?corners:Smt_cell.Corner.t list -> clock_period:float -> Smt_sta.Sta.t -> summary
(** Derates a finished timing session, timed at [clock_period], and the
    standby leakage of its netlist to each corner.  Raises
    [Invalid_argument] on an empty corner list. *)

val render : summary -> string
