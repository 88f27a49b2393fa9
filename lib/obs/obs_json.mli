(** Dependency-free JSON emission, parsing and decoding.

    The emitters build JSON as strings — the right weight for this
    library's append-only documents (traces, metric dumps, QoR snapshots).
    The parser is a small recursive-descent reader for the documents the
    emitters produce (and any other well-formed JSON).  {!Decode} turns a
    parsed document into a typed value; every reader of the repo's JSON
    records (snapshots, ledger lines, checkpoints, manifests, SARIF
    baselines, traces) is written with it, so each one rejects bad input
    with the same located error.

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

val to_str : t -> string option

val read_file : string -> (string, string) result
(** A whole file's contents; every I/O error (missing file, a directory,
    a failing read) comes back as an [Error] that names the path. *)

val of_file : string -> (t, string) result
(** {!read_file} then {!parse}. *)

(** {1 Decoding}

    A decoder reads one JSON value into an OCaml value.  Decoders nest
    the way the document does, and {!Decode.decode} runs one: a value of
    the wrong shape comes back as
    ["<source>: <path>: <problem>"], where the path starts at [$] and
    names every object key and array index on the way down, e.g.
    ["BENCH_x.json: $.workloads[3].counters.sta.analyses: not an integer"].
    A document that does not parse reads
    ["<source>: $: <parse error> at offset <n>"].

    The path is assembled only when a decode fails; a decode that
    succeeds costs the walk and nothing more. *)

module Decode : sig
  type json := t

  type 'a t = json -> 'a
  (** A decoder.  It reports a mismatch by raising an exception that
      only {!decode} (and the functions built on it) may catch: apply
      decoders to values only inside another decoder. *)

  val number : float t
  (** A number; [null] reads as [nan], the emitters' encoding of a
      non-finite float. *)

  val int : int t
  (** An integral number of magnitude below 2{^53}, where every integer
      has a double of its own.  [null], [1.5] and [1e30] are errors. *)

  val string : string t

  val schema : int -> int t
  (** [schema expected]: an {!int} that must equal [expected] (a record's
      [schema_version]). *)

  val list : 'a t -> 'a list t
  (** An array, every element decoded; an element's path is [[i]]. *)

  val first : 'a t -> 'a option t
  (** An array's first element decoded, [None] when the array is empty;
      the other elements are not read. *)

  val dict : 'a t -> (string * 'a) list t
  (** A string-keyed object, every value decoded, in document order. *)

  val field : string -> 'a t -> 'a t
  (** [field k d]: the object's member [k], decoded with [d]; an error
      when the value is not an object or has no [k]. *)

  val field_opt : string -> 'a t -> 'a option t
  (** Like {!field}, but an absent member is [None]. *)

  val fail : string -> 'a
  (** Reject the value being decoded, for checks the combinators above
      do not express (an unknown enum string, say). *)

  val decode : source:string -> 'a t -> json -> ('a, string) result
  (** Run a decoder; [source] (a file name, or what the document is)
      opens every error message. *)

  val decode_string : source:string -> 'a t -> string -> ('a, string) result
  (** {!parse}, then {!decode}. *)

  val decode_file : 'a t -> string -> ('a, string) result
  (** {!read_file}, then {!decode_string} with the path as source. *)
end
