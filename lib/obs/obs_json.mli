(** Dependency-free JSON emission and parsing.

    The emitters build JSON as strings — the right weight for this
    library's append-only documents (traces, metric dumps, QoR snapshots).
    The parser is a small recursive-descent reader for the documents the
    emitters produce (and any other well-formed JSON): [Snapshot] uses it
    to load committed baselines, tests use it to validate exports.

    Emission conventions: [num] prints a compact [%.6g] (display
    precision) and maps non-finite floats to [null]; [num_exact] prints
    the shortest representation that round-trips the double, for values
    that must compare exactly after a file round-trip. *)

(** {1 Emission} *)

val escape : string -> string
(** Backslash-escape for inclusion inside a JSON string literal. *)

val str : string -> string
(** A quoted, escaped JSON string literal. *)

val num : float -> string
(** Compact display-precision number; [null] when not finite. *)

val num_exact : float -> string
(** Round-trip-exact number ([%.17g], shortened when lossless); [null]
    when not finite.  Use for values a later run must compare equal. *)

val boolean : bool -> string

val obj : (string * string) list -> string
(** [obj [(k, v); ...]] where each [v] is already-rendered JSON. *)

val arr : string list -> string
(** [arr items] where each item is already-rendered JSON. *)

val to_file : string -> string -> unit
(** [to_file path contents] writes the string atomically enough for this
    library's single-writer dumps (plain create/write/close). *)

val write_durable : string -> string -> unit
(** [write_durable path contents] replaces [path] whole: the contents go
    to a sibling [path.tmp.<pid>], are fsynced, and the temp file is
    renamed over [path].  After a crash at any point [path] holds either
    its previous contents or the complete new ones, never a prefix; the
    pid in the temp name keeps concurrent writers of one path from
    corrupting each other's staging file.  For the files a crash must
    not tear: campaign manifests and checkpoints, and the rewritten run
    ledger. *)

(** {1 Parsing} *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> (t, string) result
(** Parse a complete JSON document; trailing garbage is an error. *)

val parse_exn : string -> t
(** @raise Parse_error on malformed input. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on other constructors. *)

val to_num : t -> float option
(** [Num f] gives [f]; [Null] gives [nan] (the emitters' encoding of
    non-finite values); anything else gives [None]. *)

val to_str : t -> string option

val read_file : string -> (string, string) result
(** A whole file's contents; every I/O error (missing file, a directory,
    a failing read) comes back as [Error]. *)

val of_file : string -> (t, string) result
(** {!read_file} then {!parse}. *)
