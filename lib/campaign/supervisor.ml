module Rng = Smt_util.Rng
module Metrics = Smt_obs.Metrics
module Trace = Smt_obs.Trace
module Log = Smt_obs.Log

type config = {
  sv_jobs : int;
  sv_timeout_s : float;
  sv_max_attempts : int;
  sv_retry_base_ms : float;
  sv_retry_cap_ms : float;
  sv_chaos : float;
  sv_chaos_delay_ms : float;
  sv_seed : int;
  sv_poll_interval_s : float;
}

let default_config =
  {
    sv_jobs = 2;
    sv_timeout_s = 60.;
    sv_max_attempts = 3;
    sv_retry_base_ms = 100.;
    sv_retry_cap_ms = 2000.;
    sv_chaos = 0.;
    sv_chaos_delay_ms = 25.;
    sv_seed = 1;
    sv_poll_interval_s = 0.002;
  }

type outcome =
  | Completed of { attempts : int }
  | Quarantined of { attempts : int; last_error : string }

type summary = {
  sm_outcomes : (string * outcome) list;
  sm_retries : int;
  sm_chaos_kills : int;
  sm_timeouts : int;
}

let quarantined sm =
  List.filter_map
    (fun (id, o) ->
      match o with
      | Quarantined { attempts; last_error } -> Some (id, attempts, last_error)
      | Completed _ -> None)
    sm.sm_outcomes

let m_jobs_total = Metrics.counter "campaign.jobs_total"
let m_jobs_done = Metrics.counter "campaign.jobs_done"
let m_retries = Metrics.counter "campaign.retries"
let m_quarantined = Metrics.counter "campaign.quarantined"
let m_chaos_kills = Metrics.counter "campaign.chaos_kills"
let m_timeouts = Metrics.counter "campaign.timeouts"

(* Per-(job, attempt) randomness: a fresh splitmix stream keyed on the
   campaign seed and the attempt's identity.  [Hashtbl.hash] is the
   unseeded generic hash, stable across runs and processes, so the chaos
   schedule and backoff jitter are pure functions of the configuration —
   independent of which shard happens to run when. *)
let attempt_rng cfg id attempt salt =
  Rng.create (Hashtbl.hash (cfg.sv_seed, id, attempt, salt))

let backoff_s cfg id attempt =
  let exp = cfg.sv_retry_base_ms *. (2. ** float_of_int (attempt - 1)) in
  let capped = Float.min cfg.sv_retry_cap_ms exp in
  let rng = attempt_rng cfg id attempt "backoff" in
  capped *. (1. +. Rng.float rng 0.5) /. 1000.

let chaos_kill_delay cfg id attempt =
  if cfg.sv_chaos <= 0. then None
  else begin
    let rng = attempt_rng cfg id attempt "chaos" in
    if Rng.chance rng cfg.sv_chaos then
      Some (Rng.float rng (cfg.sv_chaos_delay_ms /. 1000.))
    else None
  end

type pending = {
  pd_idx : int;
  pd_id : string;
  pd_attempt : int;
  pd_ready_s : float;
}

type running = {
  rn_idx : int;
  rn_id : string;
  rn_attempt : int;
  rn_pid : int;
  rn_start_us : float;
  rn_deadline_s : float;
  rn_kill_at_s : float option;
  mutable rn_chaos_killed : bool;
  mutable rn_timed_out : bool;
}

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let rec drop n = function
  | _ :: rest when n > 0 -> drop (n - 1) rest
  | l -> l

let sigkill pid = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

let run cfg ~command ~verify ?log_path ids =
  let n = List.length ids in
  Metrics.incr ~by:n m_jobs_total;
  let outcomes : outcome option array = Array.make n None in
  let retries = ref 0 and chaos_kills = ref 0 and timeouts = ref 0 in
  let pending =
    ref
      (List.mapi
         (fun i id -> { pd_idx = i; pd_id = id; pd_attempt = 1; pd_ready_s = 0. })
         ids)
  in
  let running = ref [] in
  let spawn p =
    let argv = command ~id:p.pd_id ~attempt:p.pd_attempt in
    let out_fd =
      match log_path with
      | Some lp ->
        Unix.openfile (lp p.pd_id)
          [ Unix.O_CREAT; Unix.O_WRONLY; Unix.O_TRUNC ]
          0o644
      | None -> Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644
    in
    let pid =
      Fun.protect
        ~finally:(fun () -> try Unix.close out_fd with Unix.Unix_error _ -> ())
        (fun () -> Unix.create_process argv.(0) argv Unix.stdin out_fd out_fd)
    in
    let now = Unix.gettimeofday () in
    Log.debug "campaign" "shard spawned"
      ~fields:
        [
          ("job", p.pd_id); ("attempt", string_of_int p.pd_attempt);
          ("pid", string_of_int pid);
        ];
    running :=
      {
        rn_idx = p.pd_idx;
        rn_id = p.pd_id;
        rn_attempt = p.pd_attempt;
        rn_pid = pid;
        rn_start_us = Trace.now_us ();
        rn_deadline_s = now +. cfg.sv_timeout_s;
        rn_kill_at_s =
          Option.map (fun d -> now +. d)
            (chaos_kill_delay cfg p.pd_id p.pd_attempt);
        rn_chaos_killed = false;
        rn_timed_out = false;
      }
      :: !running
  in
  let finish_attempt rn status =
    let dur_us = Trace.now_us () -. rn.rn_start_us in
    let cause () =
      if rn.rn_chaos_killed then "chaos-kill"
      else if rn.rn_timed_out then
        Printf.sprintf "timeout after %.1fs" cfg.sv_timeout_s
      else
        match status with
        | Unix.WEXITED c -> Printf.sprintf "exit %d" c
        | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
        | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s
    in
    (* The durable result decides, not the exit status: a shard killed an
       instant after its checkpoint rename still completed the job. *)
    match verify rn.rn_id with
    | Ok () ->
      Trace.complete
        ~name:(Printf.sprintf "shard %s" rn.rn_id)
        ~args:[ ("attempt", string_of_int rn.rn_attempt); ("outcome", "done") ]
        ~ts_us:rn.rn_start_us ~dur_us ();
      Metrics.incr m_jobs_done;
      outcomes.(rn.rn_idx) <- Some (Completed { attempts = rn.rn_attempt })
    | Error reason ->
      let err = Printf.sprintf "%s (%s)" (cause ()) reason in
      let label =
        if rn.rn_chaos_killed then "chaos-kill"
        else if rn.rn_timed_out then "timeout"
        else "failed"
      in
      Trace.complete
        ~name:(Printf.sprintf "shard %s" rn.rn_id)
        ~args:[ ("attempt", string_of_int rn.rn_attempt); ("outcome", label) ]
        ~ts_us:rn.rn_start_us ~dur_us ();
      if rn.rn_chaos_killed then begin
        incr chaos_kills;
        Metrics.incr m_chaos_kills
      end;
      if rn.rn_timed_out then begin
        incr timeouts;
        Metrics.incr m_timeouts
      end;
      if rn.rn_attempt >= cfg.sv_max_attempts then begin
        Metrics.incr m_quarantined;
        Log.warn "campaign" "job quarantined"
          ~fields:
            [
              ("job", rn.rn_id); ("attempts", string_of_int rn.rn_attempt);
              ("error", err);
            ];
        outcomes.(rn.rn_idx) <-
          Some (Quarantined { attempts = rn.rn_attempt; last_error = err })
      end
      else begin
        incr retries;
        Metrics.incr m_retries;
        let delay = backoff_s cfg rn.rn_id rn.rn_attempt in
        Log.info "campaign" "shard failed, retrying"
          ~fields:
            [
              ("job", rn.rn_id); ("attempt", string_of_int rn.rn_attempt);
              ("error", err); ("backoff_s", Printf.sprintf "%.3f" delay);
            ];
        pending :=
          !pending
          @ [
              {
                pd_idx = rn.rn_idx;
                pd_id = rn.rn_id;
                pd_attempt = rn.rn_attempt + 1;
                pd_ready_s = Unix.gettimeofday () +. delay;
              };
            ]
      end
  in
  let rec loop () =
    if !pending <> [] || !running <> [] then begin
      let now = Unix.gettimeofday () in
      (* Fill free shard slots with due pending work, input order first. *)
      let slots = cfg.sv_jobs - List.length !running in
      if slots > 0 then begin
        let due, not_due = List.partition (fun p -> p.pd_ready_s <= now) !pending in
        let launch = take slots due in
        pending := drop slots due @ not_due;
        List.iter spawn launch
      end;
      (* Deliver overdue kills: the chaos schedule first, then timeouts. *)
      List.iter
        (fun rn ->
          let live () = (not rn.rn_chaos_killed) && not rn.rn_timed_out in
          (match rn.rn_kill_at_s with
          | Some t when now >= t && live () ->
            rn.rn_chaos_killed <- true;
            Trace.instant "campaign.kill"
              ~args:
                [
                  ("job", rn.rn_id); ("attempt", string_of_int rn.rn_attempt);
                  ("cause", "chaos");
                ];
            sigkill rn.rn_pid
          | _ -> ());
          if now >= rn.rn_deadline_s && live () then begin
            rn.rn_timed_out <- true;
            Trace.instant "campaign.kill"
              ~args:
                [
                  ("job", rn.rn_id); ("attempt", string_of_int rn.rn_attempt);
                  ("cause", "timeout");
                ];
            sigkill rn.rn_pid
          end)
        !running;
      (* Reap without blocking; idle-sleep only when nothing moved. *)
      let before = List.length !running in
      running :=
        List.filter
          (fun rn ->
            match Unix.waitpid [ Unix.WNOHANG ] rn.rn_pid with
            | 0, _ -> true
            | _, status ->
              finish_attempt rn status;
              false
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> true)
          !running;
      if List.length !running = before then Unix.sleepf cfg.sv_poll_interval_s;
      loop ()
    end
  in
  Trace.with_span "campaign.supervise" loop;
  {
    sm_outcomes =
      List.mapi
        (fun i id ->
          match outcomes.(i) with
          | Some o -> (id, o)
          | None -> assert false (* loop exits only with every slot decided *))
        ids;
    sm_retries = !retries;
    sm_chaos_kills = !chaos_kills;
    sm_timeouts = !timeouts;
  }
