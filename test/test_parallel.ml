(* Tests for the domain worker pool and the determinism contract of
   parallel execution: a run at any job count must produce the same
   reports, the same counter totals, and the same QoR snapshot as the
   sequential run. *)

module Pool = Smt_util.Pool
module Par = Smt_obs.Par
module Metrics = Smt_obs.Metrics
module Trace = Smt_obs.Trace
module Snapshot = Smt_obs.Snapshot
module Flow = Smt_core.Flow
module Qor = Smt_core.Qor
module Suite = Smt_circuits.Suite
module Library = Smt_cell.Library

let lib = Library.default ()

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_ordering () =
  let xs = List.init 25 Fun.id in
  Alcotest.(check (list int))
    "order preserved"
    (List.map (fun x -> x * x) xs)
    (Pool.map ~jobs:4 (fun x -> x * x) xs)

let test_pool_exception_propagation () =
  let f x = if x mod 3 = 2 then failwith (string_of_int x) else x in
  match Pool.map ~jobs:4 f (List.init 12 Fun.id) with
  | _ -> Alcotest.fail "expected the job exception to re-raise"
  | exception Failure s ->
    Alcotest.(check string) "first failing input wins" "2" s

(* Shutdown hardening: the exception must re-raise only after every
   worker domain has been joined.  Observable contract: by the time the
   caller sees the exception, every job has started and every non-failing
   job has finished — workers drained the queue and were joined, so no
   domain outlives the call.  If a worker were leaked (re-raise before
   join), the counters would still be moving when we read them. *)
let test_pool_failure_leaks_no_domains () =
  let n = 16 in
  let started = Atomic.make 0 and finished = Atomic.make 0 in
  (match
     Pool.map ~jobs:4
       (fun x ->
         Atomic.incr started;
         if x = 5 then failwith "boom";
         Atomic.incr finished;
         x)
       (List.init n Fun.id)
   with
  | _ -> Alcotest.fail "expected the job exception to re-raise"
  | exception Failure s -> Alcotest.(check string) "failing job's exception" "boom" s);
  Alcotest.(check int) "all jobs drained before re-raise" n (Atomic.get started);
  Alcotest.(check int) "all non-failing jobs completed" (n - 1) (Atomic.get finished)

let test_pool_jobs1_in_place () =
  let saw_worker = ref false in
  let r =
    Pool.map ~jobs:1
      (fun x ->
        if Pool.worker_index () <> None then saw_worker := true;
        x + 1)
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "sequential result" [ 2; 3; 4 ] r;
  Alcotest.(check bool) "ran on the calling domain" false !saw_worker

(* Alcotest's assertion log is not domain-safe, so the jobs only record
   what they saw; every assertion runs on the calling domain afterwards. *)
let test_pool_nested_degrades () =
  let xs = List.init 6 Fun.id in
  let r =
    Pool.map ~jobs:2
      (fun x ->
        let wi = Pool.worker_index () in
        let inner = Pool.map ~jobs:2 (fun y -> (Pool.worker_index (), x * y)) [ 1; 2; 3 ] in
        (wi, inner))
      xs
  in
  Alcotest.(check bool) "outer jobs run on workers" true
    (List.for_all (fun (wi, _) -> wi <> None) r);
  Alcotest.(check bool) "nested map stays on the same worker" true
    (List.for_all (fun (wi, inner) -> List.for_all (fun (wj, _) -> wj = wi) inner) r);
  Alcotest.(check (list int)) "nested results"
    (List.map (fun x -> 6 * x) xs)
    (List.map (fun (_, inner) -> List.fold_left (fun acc (_, v) -> acc + v) 0 inner) r)

let test_default_jobs_positive () =
  Alcotest.(check bool) "at least one job" true (Pool.default_jobs () >= 1)

(* SMT_JOBS parsing: valid positive integers win (whitespace tolerated),
   everything else falls back to the recommended domain count.  putenv
   cannot truly unset a variable, so the unset case is approximated by
   the empty string — which takes the same fallback path. *)
let with_jobs_env value f =
  let saved = Sys.getenv_opt "SMT_JOBS" in
  Unix.putenv "SMT_JOBS" value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv "SMT_JOBS" (Option.value saved ~default:""))
    f

let test_default_jobs_env_parsing () =
  let fallback = with_jobs_env "" Pool.default_jobs in
  Alcotest.(check bool) "fallback is positive" true (fallback >= 1);
  List.iter
    (fun bad ->
      Alcotest.(check int)
        (Printf.sprintf "%S falls back" bad)
        fallback
        (with_jobs_env bad Pool.default_jobs))
    [ "0"; "-3"; "garbage"; "2.5"; "1e3"; "  " ];
  Alcotest.(check int) "valid value wins" 3 (with_jobs_env "3" Pool.default_jobs);
  Alcotest.(check int) "surrounding whitespace trimmed" 5
    (with_jobs_env " 5 " Pool.default_jobs);
  Alcotest.(check int) "huge explicit value taken verbatim" 4096
    (with_jobs_env "4096" Pool.default_jobs)

(* ------------------------------------------------------------------ *)
(* Par: scoped metric / trace collection                               *)
(* ------------------------------------------------------------------ *)

let test_par_counter_totals () =
  let c = Metrics.counter "test_parallel.work" in
  let run jobs =
    let before = Metrics.counter_value c in
    ignore (Par.map ~jobs (fun x -> Metrics.incr ~by:x c) (List.init 11 Fun.id));
    Metrics.counter_value c - before
  in
  Alcotest.(check int) "sequential total" 55 (run 1);
  Alcotest.(check int) "parallel total matches" 55 (run 4)

let test_par_trace_tids () =
  Trace.enable ();
  Trace.clear ();
  ignore (Par.map ~jobs:2 (fun x -> Trace.with_span "job" (fun () -> x)) [ 0; 1; 2 ]);
  Trace.disable ();
  let tids = List.sort compare (List.map (fun e -> e.Trace.ev_tid) (Trace.events ())) in
  Alcotest.(check (list int)) "one trace row per job, by input index" [ 2; 3; 4 ] tids

(* ------------------------------------------------------------------ *)
(* Ledger appends under parallel fan-out                               *)
(* ------------------------------------------------------------------ *)

(* Every worker of a Par.map appends to the same ledger file: the lock +
   single-write protocol must land one intact line per job, no torn or
   interleaved records. *)
let test_ledger_parallel_append_integrity () =
  let module Ledger = Smt_obs.Ledger in
  let path = Filename.temp_file "smt_ledger" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.remove (path ^ ".lock") with Sys_error _ -> ())
  @@ fun () ->
  let n = 24 in
  ignore
    (Par.map ~jobs:6
       (fun i ->
         let w =
           Snapshot.workload
             ~name:(Printf.sprintf "w%02d" i)
             ~qor:[ ("value", float_of_int i) ]
             ~counters:[] ~stage_ms:[]
         in
         Ledger.append path (Ledger.make ~time:(float_of_int i) ~kind:"run" [ w ]))
       (List.init n Fun.id));
  match Ledger.read path with
  | Error e -> Alcotest.fail e
  | Ok { Ledger.records; skipped } ->
    Alcotest.(check (list string)) "no torn lines" [] skipped;
    Alcotest.(check int) "every append landed" n (List.length records);
    let names =
      List.sort compare
        (List.concat_map
           (fun (r : Ledger.record) ->
             List.map (fun (w : Snapshot.workload) -> w.Snapshot.w_name) r.Ledger.r_workloads)
           records)
    in
    Alcotest.(check (list string)) "payloads intact"
      (List.init n (Printf.sprintf "w%02d"))
      names

(* ------------------------------------------------------------------ *)
(* Flow / QoR determinism across job counts                            *)
(* ------------------------------------------------------------------ *)

let report_key (r : Flow.report) =
  ( Flow.technique_name r.Flow.technique,
    (r.Flow.area, r.Flow.standby_nw, r.Flow.wns),
    (r.Flow.n_clusters, r.Flow.n_holders, r.Flow.total_switch_width) )

let run_all_at jobs =
  let before = Metrics.counters () in
  let reports = Flow.run_all ~jobs (fun () -> Suite.circuit_a lib) in
  let after = Metrics.counters () in
  let delta =
    List.filter_map
      (fun (c, v) ->
        let v0 = Option.value (List.assoc_opt c before) ~default:0 in
        if v <> v0 then Some (c, v - v0) else None)
      after
  in
  (List.map report_key reports, List.sort compare delta)

let test_run_all_deterministic () =
  let r1, c1 = run_all_at 1 in
  let r4, c4 = run_all_at 4 in
  Alcotest.(check int) "three techniques" 3 (List.length r1);
  Alcotest.(check bool) "reports identical across job counts" true (r1 = r4);
  Alcotest.(check bool) "non-trivial counter movement" true (c1 <> []);
  Alcotest.(check bool) "counter totals identical across job counts" true (c1 = c4)

let strip_wallclock (s : Snapshot.t) =
  Snapshot.make ~tag:s.Snapshot.s_tag
    (List.map
       (fun (w : Snapshot.workload) ->
         Snapshot.workload ~name:w.Snapshot.w_name ~qor:w.Snapshot.w_qor
           ~counters:w.Snapshot.w_counters ~stage_ms:[])
       s.Snapshot.s_workloads)

let test_qor_collect_deterministic () =
  let s1 = strip_wallclock (Qor.collect ~jobs:1 ~tag:"par" ()) in
  let s4 = strip_wallclock (Qor.collect ~jobs:4 ~tag:"par" ()) in
  Alcotest.(check string) "snapshot JSON identical modulo wall-clock"
    (Snapshot.to_json s1) (Snapshot.to_json s4)

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Library                                                             *)
(* ------------------------------------------------------------------ *)

(* One library is shared by every job of a parallel sweep, and the flow
   creates sized switch cells on demand.  While one domain interns 2,000
   switch widths, lookups of the fixed catalogue from another domain must
   never miss. *)
let test_library_switch_interning_is_domain_safe () =
  let trials = 20 and widths = 2000 in
  let lost = ref 0 and lookups = ref 0 in
  for _ = 1 to trials do
    let lib = Library.default () in
    let go = Atomic.make false and done_ = Atomic.make false in
    let creator =
      Domain.spawn (fun () ->
          while not (Atomic.get go) do
            Domain.cpu_relax ()
          done;
          for i = 1 to widths do
            ignore (Library.switch lib ~width:(float_of_int i /. 10.0))
          done;
          Atomic.set done_ true)
    in
    Atomic.set go true;
    while not (Atomic.get done_) do
      incr lookups;
      match
        Library.variant lib Smt_cell.Func.Nand2 Smt_cell.Vth.High Smt_cell.Vth.Plain
      with
      | _ -> ()
      | exception Not_found -> incr lost
    done;
    Domain.join creator;
    (* every interned width is visible afterwards, once *)
    let switches =
      List.filter
        (fun (c : Smt_cell.Cell.t) -> c.Smt_cell.Cell.kind = Smt_cell.Func.Sleep_switch)
        (Library.cells lib)
    in
    Alcotest.(check int) "all switch cells listed" widths (List.length switches);
    Alcotest.(check bool) "switch found by name" true
      (Library.find_opt lib "SW_W123p4" <> None)
  done;
  Alcotest.(check int)
    (Printf.sprintf "lookups lost of %d" !lookups)
    0 !lost

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "order preserved" `Quick test_pool_ordering;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagation;
          Alcotest.test_case "failure leaks no domains" `Quick
            test_pool_failure_leaks_no_domains;
          Alcotest.test_case "jobs=1 runs in place" `Quick test_pool_jobs1_in_place;
          Alcotest.test_case "nested maps degrade" `Quick test_pool_nested_degrades;
          Alcotest.test_case "default_jobs positive" `Quick test_default_jobs_positive;
          Alcotest.test_case "SMT_JOBS parsing" `Quick test_default_jobs_env_parsing;
        ] );
      ( "library",
        [
          Alcotest.test_case "switch interning is domain-safe" `Quick
            test_library_switch_interning_is_domain_safe;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "parallel appends stay intact" `Quick
            test_ledger_parallel_append_integrity;
        ] );
      ( "par",
        [
          Alcotest.test_case "counter totals merge" `Quick test_par_counter_totals;
          Alcotest.test_case "trace rows per job" `Quick test_par_trace_tids;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "run_all jobs=1 vs jobs=4" `Quick test_run_all_deterministic;
          Alcotest.test_case "qor snapshot jobs=1 vs jobs=4" `Quick
            test_qor_collect_deterministic;
        ] );
    ]
