(** Per-shard OS-process supervision: fork/exec one worker process per
    job, with wall-clock timeouts, retry with exponential backoff, a
    quarantine list for persistent failures, and a seeded fault-injection
    (chaos) mode that SIGKILLs shards mid-run.

    The supervisor is deliberately generic: it knows nothing about flows
    or checkpoints.  The caller supplies the argv to exec per (job,
    attempt) and a [verify] predicate consulted after {e every} child
    exit — normal, crashed, or killed — that decides whether the job's
    durable result actually landed.  That last point is what makes
    SIGKILL harmless: a shard killed after writing its checkpoint still
    verifies, so the kill is absorbed without a redundant re-run, and a
    shard killed before writing verifies false and is retried.

    {b Retry policy.}  A failed attempt (non-zero exit, death by signal —
    including a chaos kill — timeout, or a clean exit that fails
    [verify]) is retried after [min(cap, base·2^(attempt-1))] scaled by a
    deterministic jitter in [1, 1.5), both derived from [sv_seed], until
    [sv_max_attempts] attempts are spent; the job is then quarantined and
    the campaign continues without it.

    {b Chaos.}  With [sv_chaos = p], each attempt is SIGKILLed with
    probability [p] at a uniform delay within [sv_chaos_delay_ms] of its
    spawn.  Both draws come from a splitmix stream keyed on
    [(sv_seed, job id, attempt)], so the kill {e schedule} is a pure
    function of the configuration — independent of shard interleaving —
    which is what lets CI replay a chaos campaign deterministically.

    {b Determinism.}  Supervision affects only {e when} and {e how often}
    workers run, never what they compute; as long as workers are
    deterministic functions of their job coordinates, any mix of kills,
    retries, and resume cycles converges to byte-identical results.

    {b Hung shards.}  [sv_timeout_s] is the one kill path for a shard
    that stops making progress: past it the attempt is SIGKILLed and
    retried like any other failure.

    {b Metrics.}  Emits the [campaign.*] counter group
    ([jobs_total]/[jobs_done]/[retries]/[quarantined]/[chaos_kills]/
    [timeouts]) and, when tracing is enabled, one span per shard attempt
    ([shard <id>], args [attempt]/[outcome]), a [campaign.kill] instant
    per delivered kill (args [cause] = chaos|timeout), plus a
    [campaign.supervise] envelope span.  Workers' own spans and metrics
    stay in the worker process; what a job measured reaches the caller
    through its checkpoint. *)

type config = {
  sv_jobs : int;  (** concurrent worker processes *)
  sv_timeout_s : float;  (** wall-clock limit per attempt; SIGKILL past it *)
  sv_max_attempts : int;  (** quarantine after this many failed attempts *)
  sv_retry_base_ms : float;  (** backoff of the first retry *)
  sv_retry_cap_ms : float;  (** backoff ceiling (pre-jitter) *)
  sv_chaos : float;  (** per-attempt SIGKILL probability, 0 disables *)
  sv_chaos_delay_ms : float;  (** kills land uniformly within this of spawn *)
  sv_seed : int;  (** seeds the chaos schedule and the backoff jitter *)
  sv_poll_interval_s : float;  (** reap/kill polling period *)
}

val default_config : config
(** 2 shards, 60 s timeout, 3 attempts, 100 ms base / 2 s cap backoff,
    chaos off, 2 ms polling. *)

type outcome =
  | Completed of { attempts : int }
  | Quarantined of { attempts : int; last_error : string }

type summary = {
  sm_outcomes : (string * outcome) list;  (** job id -> outcome, input order *)
  sm_retries : int;
  sm_chaos_kills : int;
  sm_timeouts : int;
}

val quarantined : summary -> (string * int * string) list
(** The quarantine list: (job id, attempts spent, last error). *)

val run :
  config ->
  command:(id:string -> attempt:int -> string array) ->
  verify:(string -> (unit, string) result) ->
  ?log_path:(string -> string) ->
  string list ->
  summary
(** Supervise the given job ids to completion or quarantine.  [command]
    builds the argv to exec (argv.(0) is the program path); [verify id]
    decides, after a child exits, whether the job's durable result is in
    place; [log_path] redirects each shard's stdout+stderr to a per-job
    file (truncated per attempt; default: /dev/null).  Every spawned
    child is reaped before [run] returns — no zombies, no orphans.

    @raise Unix.Unix_error on infrastructure failure (e.g. fork denied);
    jobs whose exec fails inside the child surface as ordinary attempt
    failures (exit 127) and quarantine like any other persistent error. *)
