(** Waiver files for semantic findings.

    Line-oriented text, one waiver per line:

    {v
    # comment (blank lines ignored)
    <rule-id> <location-pattern> [expires=YYYY-MM-DD]
    useless-holder net:dp_out_*
    crowbar-risk * expires=2026-12-31
    v}

    The rule id must name a catalog rule exactly ([*] waives every
    rule).  The location pattern is a glob over the finding's
    ["net:<name>"] / ["inst:<name>"] location, where [*] matches any
    run of characters (including none).  Waivers silence findings — the
    lint exit code and the SARIF results mark them suppressed rather
    than dropping them, so a waiver is auditable.

    An [expires=] waiver is live through its expiry date and stops
    suppressing the day after; {!today} reads the [SMT_CLOCK]
    environment variable (epoch seconds, UTC) when set, so expiry is
    deterministic under test. *)

type entry = {
  w_rule : string;  (** rule id or ["*"] *)
  w_loc : string;  (** glob over the finding location *)
  w_expires : (int * int * int) option;  (** (year, month, day), inclusive *)
  w_line : int;  (** 1-based source line, for messages *)
}

type t = entry list

val parse : string -> (t, string) result
(** Parse waiver-file text.  Unknown rule ids, malformed lines, and
    malformed expiry dates are errors (a typo would otherwise silently
    waive nothing). *)

val load : string -> (t, string) result
(** [parse] on a file's contents; I/O problems come back as [Error]. *)

val glob_match : pattern:string -> string -> bool
(** [*]-glob matching, anchored at both ends. *)

val today : unit -> int * int * int
(** The UTC calendar date at {!Smt_obs.Ledger.clock}, so [SMT_CLOCK]
    pins expiry exactly as it pins every other timestamp. *)

val expired : today:int * int * int -> entry -> bool
(** Whether the entry's expiry date is strictly before [today]. *)

val matches : entry -> Rules.finding -> bool
(** Rule/location match only; expiry is [apply]'s business. *)

val apply :
  ?today:int * int * int ->
  t ->
  Rules.finding list ->
  Rules.finding list * (Rules.finding * entry) list
(** Split findings into (kept, waived-with-the-entry-that-matched);
    order is preserved on both sides, first matching entry wins.
    Entries expired relative to [today] (when given) match nothing. *)
