(** QoR attribution — the "why" behind a flow report's numbers — and the
    sign-off report's tables, each described once as a document and
    rendered as text ({!text}) or as JSON ({!json}).

    A {!Line} shows in the text only and a {!Field} in the JSON only.  A
    {!Table} is a {!Smt_util.Text_table} in the text and an array of row
    objects under its [name] in the JSON.  {!Items} is a JSON array with
    one object per item; the text shows the items' blocks in turn.

    Columns with a [header] make the text table, in column order; columns
    with a [key] make each JSON row, in column order.  A column with only
    a header (Occupancy, Margin V, Share) or only a key (slew_ps,
    cell_limit, bounce_limit_v) shows in one rendering.  A [Num] prints
    with its column's [fmt] in the text and as
    {!Smt_obs.Obs_json.num_exact} in the JSON, which reads back as the same
    double, so the text cell is the JSON value printed with [fmt].
    [text_rows] (a path's capture hop) follow the rows in the text only.  A
    table with no rows shows nothing in the text, not even its title.

    The explain reports read the {!Flow.artifacts} of the same
    [Flow.run_with_artifacts] call as the {!Flow.report}: its final
    post-route STA, so the worst path slack equals the report's [wns]
    exactly. *)

type cell = Str of string | Int of int | Num of float

type column = {
  header : string option;  (** text header; [None]: JSON only *)
  key : string option;  (** JSON key; [None]: text only *)
  fmt : (float -> string, unit, string) format;  (** text of a [Num] cell *)
}

type table = {
  name : string;  (** JSON key of the row array *)
  title : string option;  (** text line above the table *)
  columns : column list;
  rows : cell list list;  (** one cell per column *)
  text_rows : cell list list;
}

type block =
  | Line of string | Field of string * cell | Table of table | Items of string * block list list
type t = block list

val text : t -> string
(** Without a trailing newline. *)

val json : t -> string

(** {1 Explain reports} *)

val headline : Flow.report -> t
(** Circuit, technique, clock, WNS and standby leakage; the JSON carries
    the circuit and technique. *)

val paths : k:int -> Smt_sta.Sta.t -> t
(** The [k] worst setup paths of a timing session, arc by arc: instance,
    cell, Vth/style, cell and wire delay, arrival (and slew in the JSON).
    The first path's slack is the session's WNS, [wns_ps] in the JSON. *)

val leakage : Flow.report -> Flow.artifacts -> t
(** Standby leakage by threshold class, by cell function, and stage by
    stage over the flow's recorded stages. *)

val clusters : Flow.report -> Flow.artifacts -> t
(** Per sleep switch, descending by cluster leakage: occupancy against the
    EM cell limit, VGND length, bounce margin, member and footer
    leakage. *)

(** {1 Sign-off report} *)

val summary : Smt_sta.Sta.t -> t
(** Setup and hold MET/VIOLATED with WNS, TNS, endpoints, worst hold. *)

val contributors : Smt_power.Leakage.breakdown -> (string * string * float) list
(** The eight standby-leakage contributors as (label, JSON key, nW), read
    by {!power} and by [Report_json]'s [leakage] object. *)

val power : Smt_netlist.Netlist.t -> t
(** Standby leakage by contributor, with shares, leaving out contributors
    that leak nothing. *)

val area : Smt_netlist.Netlist.t -> t
(** Area by category, then the eight cell kinds with the most area. *)
