(** Append-only JSONL run ledger: a durable record of what ran, with
    what inputs, and what QoR came out.

    Each completed [smt_flow run] / [bench-snapshot] / [lint] invocation
    appends one schema-versioned line carrying provenance (tool version,
    circuit, technique, guard, job count, an argv hash, and an injected
    timestamp) plus the run's payload: per-workload QoR fields, work
    counters, per-stage wall-clock, and — when profiling was on — the
    per-stage GC attribution.  The payload is a list of
    {!Snapshot.workload} records written with {!Snapshot.workload_json}
    (one record type, one codec), so everything {!Snapshot.compare} can
    gate on, {!Trend} can chart over time.

    {b Concurrency.}  Appends serialize on an advisory lock over a
    sibling [<path>.lock] file (created atomically, removed on release)
    and issue the line as a single [write] to an [O_APPEND] descriptor,
    so parallel workers (and separate processes) can share a ledger
    without interleaving partial lines.  A lock orphaned by a holder that
    died without releasing it (SIGKILL mid-append) does not block the
    ledger forever: contenders break locks older than 10 s with a logged
    warning.  That threshold sits four orders of magnitude above the
    longest plausible append (sub-millisecond), so false breaks are
    implausible.

    {b Robustness.}  [read] skips lines that do not parse — typically the
    truncated tail of a run that died mid-append — and reports how many
    it skipped; [gc] rewrites the file without them.  An unreadable path
    (missing, a directory) is an [Error], never an exception.

    {b Determinism.}  The caller injects the clock ([make ~time]); with a
    fixed time the id (a digest of the canonical payload) and the whole
    line are byte-reproducible, which is what the tests and the CI
    byte-compares rely on.  The CLI reads [SMT_CLOCK] (unix seconds) for
    the same purpose, via {!clock}. *)

val schema_version : int

type record = {
  r_version : int;
  r_id : string;  (** 12-hex digest of the canonical payload (sans id) *)
  r_time : float;  (** unix seconds, injected *)
  r_tool : string;  (** e.g. ["smt_flow 1.0.0"] *)
  r_kind : string;  (** ["run"] | ["bench"] | ["lint"] | ["campaign"] *)
  r_tag : string;  (** snapshot tag, or [""] *)
  r_circuit : string;  (** single-run circuit, or ["-"] for sweeps *)
  r_technique : string;
  r_guard : string;
  r_jobs : int;
  r_args_hash : string;  (** 12-hex digest of the invocation's argv *)
  r_workloads : Snapshot.workload list;
}

val default_path : unit -> string option
(** The [SMT_LEDGER] environment variable, if set. *)

val clock : unit -> float
(** [SMT_CLOCK] (unix seconds, for deterministic tests and CI) if set and
    parseable, else [Unix.gettimeofday ()]. *)

val make :
  ?time:float ->
  ?tool:string ->
  ?tag:string ->
  ?circuit:string ->
  ?technique:string ->
  ?guard:string ->
  ?jobs:int ->
  ?args:string list ->
  kind:string ->
  Snapshot.workload list ->
  record
(** Assemble a record; [time] defaults to {!clock}[ ()], the id and
    args-hash are computed here. *)

val to_json : record -> string
(** One canonical JSON line (no trailing newline). *)

val of_line : string -> (record, string) result
(** Decode one line.  Bad input is an [Error] that opens with
    ["ledger line"] and names the JSON location, e.g.
    ["ledger line: $.jobs: not an integer"]; the schema version and job
    count must be integers. *)

val append : string -> record -> unit
(** Lock-guarded single-write append of [to_json r ^ "\n"]. *)

type read_result = {
  records : record list;  (** file order *)
  skipped : string list;
      (** the located error of each malformed or truncated line
          tolerated, in file order, e.g. ["line 3: $.time: not a number"] *)
}

val read : string -> (read_result, string) result
val find : string -> string -> (record, string) result
(** [find path id] — the first record whose [r_id] matches. *)

val render_list : kind:string option -> read_result -> string
(** The [runs list] view: a table of the records (of [kind] only, when
    given; no table when none match), then
    ["(N malformed lines skipped)"] and each skipped line's located
    error, indented, when any were, then ["N records"].  Every line ends
    in a newline. *)

val render_show : record -> string
(** The [runs show] view: the provenance block, then per workload its
    QoR fields, counters and per-stage wall-clock, each stage with its
    GC attribution when the record carries one.  Every line ends in a
    newline. *)

type gc_result = { kept : int; dropped_malformed : int; dropped_old : int }

val gc : ?keep:int -> string -> (gc_result, string) result
(** Rewrite the ledger (under the append lock, through
    {!Obs_json.write_durable}, so a crash leaves the old or the new file
    whole): malformed lines are dropped; with [keep], only the newest
    [keep] records (by file order) survive. *)
