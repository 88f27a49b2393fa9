(** Folded-stacks ("flamegraph collapsed") export of Chrome-trace spans.

    The Chrome JSON {!Trace} writes has no explicit nesting, so stacks
    are rebuilt from time containment per [tid]: after sorting by (start
    ascending, duration descending), a span is a child of every span
    still covering its start time.  Each span then contributes its
    {e self} time — duration minus direct children — to the line for its
    full [root;...;leaf] path, in integer microseconds.

    Identical paths merge across tids, and lines sort lexicographically,
    so the folded output depends only on the span structure of the input
    trace, not on worker placement or hash order.  The result feeds
    [flamegraph.pl] / speedscope / inferno unchanged. *)

type span = { sp_name : string; sp_ts : float; sp_dur : float; sp_tid : int }

val fold : span list -> (string * float) list
(** [(stack_path, self_us)] per unique path, sorted by path. *)

val of_trace_json : Obs_json.t -> ((string * float) list, string) result
(** Fold a parsed Chrome trace document ([{"traceEvents":[...]}]).
    Events other than complete (["ph":"X"]) ones are skipped; a complete
    event needs a string [name] and numeric [ts] and [dur] (an integer
    [tid], 1 when absent), or the [Error] names its JSON location, e.g.
    ["trace: $.traceEvents[4].dur: not a number"]. *)

val of_file : string -> ((string * float) list, string) result
(** {!of_trace_json} on a file; errors open with its path. *)

val render : (string * float) list -> string
(** One ["a;b;c <us>\n"] line per stack with at least 1us of self time. *)
