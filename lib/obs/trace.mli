(** Span-based tracing with Chrome [trace_event] export.

    Spans are recorded as complete ("ph":"X") events with microsecond
    wall-clock timestamps; the JSON produced by [to_json] loads directly in
    Perfetto / [about://tracing].  Recording is off by default and
    [with_span] is then a single branch around the wrapped thunk — flows
    built without [--trace] behave (and time) exactly as before.

    {b Domain safety.}  The on/off switch is global (atomic); the span
    stack and event buffer are per-domain, so workers record without
    contention.  A parallel driver wraps each job in {!collect} and
    replays the buffers on the caller with {!absorb}, giving one merged
    Chrome trace with [tid] = worker id (the caller's own events carry
    [tid = 1]). *)

type event = {
  ev_name : string;
  ev_ts_us : float;  (** absolute start, microseconds *)
  ev_dur_us : float;
  ev_depth : int;  (** nesting depth at the time the span opened (0 = root) *)
  ev_tid : int;  (** Chrome-trace thread id: 1 on the recording domain,
                     rewritten by {!absorb} for merged worker events *)
  ev_args : (string * string) list;
}

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

val main_tid : int
(** The tid events carry on the recording domain (1); absorbed worker
    events are retagged above it. *)

val clear : unit -> unit
(** Drop all recorded events (recording state unchanged). *)

val now_us : unit -> float
(** Wall clock in microseconds since library load, the timebase of every
    event. *)

val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk; when enabled, record a span covering it.  The span is
    recorded (flagged [error=raised]) even if the thunk raises. *)

val complete :
  ?args:(string * string) list -> name:string -> ts_us:float -> dur_us:float -> unit -> unit
(** Record an explicit span, for phases delimited by marks rather than by
    lexical scope (e.g. flow stages measured between snapshots).  No-op
    when disabled. *)

val instant : ?args:(string * string) list -> string -> unit
(** Record a zero-duration marker at the current time.  No-op when
    disabled. *)

val events : unit -> event list
(** Events recorded on the calling domain, in completion order. *)

val collect : (unit -> 'a) -> 'a * event list
(** [collect f] runs [f] with a fresh, empty event buffer and returns its
    result plus the events [f] recorded, in completion order.  The
    caller's own buffer is untouched and restored before returning (on
    exception too, discarding the scope's events with the re-raise). *)

val absorb : tid:int -> event list -> unit
(** Append events from a {!collect} scope to the calling domain's buffer,
    retagged with the worker's Chrome-trace thread id.  Absorbing job
    buffers in input order keeps the exported trace deterministic up to
    timestamps. *)

val to_json : unit -> string
(** Chrome [trace_event] JSON: [{"traceEvents":[...],...}]. *)

val write : string -> unit
(** Write [to_json ()] to a file. *)
