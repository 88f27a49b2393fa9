(* Command-line driver for the Selective-MT design flows.

   Examples:
     smt_flow run -c circuit_a -t improved
     smt_flow run -c circuit_b -t dual --bounce-limit 0.08
     smt_flow run -c circuit_a -t improved --guard strict
     smt_flow table1
     smt_flow list
     smt_flow stages -c circuit_a
     smt_flow check -c circuit_a -t improved
     smt_flow check -c circuit_a -t improved --fault drop-switch --repair
     smt_flow lint -t improved --jobs 4 --format sarif
     smt_flow lint -c circuit_a --waivers waivers.txt --sarif lint.sarif

   Exit codes: 0 clean, 1 Error-severity violations or a guard abort (check,
   or run with a guard), 2 usage errors and unopenable paths. *)

module Flow = Smt_core.Flow
module Cluster = Smt_core.Cluster
module Explain = Smt_core.Explain
module Suite = Smt_circuits.Suite
module Library = Smt_cell.Library
module Tech = Smt_cell.Tech
module Trace = Smt_obs.Trace
module Metrics = Smt_obs.Metrics
module Obs_log = Smt_obs.Log
module Drc = Smt_check.Drc
module Repair = Smt_check.Repair
module Violation = Smt_check.Violation
module Fault = Smt_fault.Fault
module Verify = Smt_verify.Verify
module Waiver = Smt_verify.Waiver
module Sarif = Smt_verify.Sarif
module Prof = Smt_obs.Prof
module Ledger = Smt_obs.Ledger
module Trend = Smt_obs.Trend
module Flame = Smt_obs.Flame
module J = Smt_obs.Obs_json
module Cjob = Smt_campaign.Job
module Ckpt = Smt_campaign.Checkpoint
module Cman = Smt_campaign.Manifest
module Csup = Smt_campaign.Supervisor
module Cmerge = Smt_campaign.Merge

open Cmdliner

let version = "1.0.0"
let tool = "smt_flow " ^ version

let lib () = Library.default ()

(* A bad command-line value is a usage error: name it and exit 2. *)
let or_usage = function
  | Ok v -> v
  | Error e ->
    prerr_endline e;
    exit 2

(* --- observability flags, shared by every subcommand --- *)

type obs = {
  obs_trace : string option;
  obs_metrics : string option;
  obs_profile : bool;
  obs_ledger : string option;
}

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span per flow stage and write a Chrome trace_event JSON to $(docv) \
           (open in Perfetto or about://tracing).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write the metrics registry (counters and histograms) as JSON to $(docv).")

let log_level_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-level" ] ~docv:"LVL"
        ~doc:"Stderr log level: debug|info|warn|error|off.  Overrides the SMT_LOG \
              environment variable.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Attribute GC/heap cost (minor/major words, collections, peak heap) to each \
           flow stage; surfaces as GC args on the stage trace spans, a per-stage \
           column block in reports, and the per-stage attribution of ledger and \
           snapshot workloads.")

let ledger_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:
          "Append one provenance + QoR record per completed invocation to this JSONL \
           run ledger (default: the SMT_LEDGER environment variable).  Implies \
           $(b,--profile).")

let obs_term =
  let setup trace metrics log_level profile ledger =
    Option.iter (fun s -> Obs_log.set_level (or_usage (Obs_log.level_of_string s))) log_level;
    if trace <> None then Trace.enable ();
    let ledger = match ledger with Some _ as l -> l | None -> Ledger.default_path () in
    let profile = profile || ledger <> None in
    if profile then Prof.enable ();
    { obs_trace = trace; obs_metrics = metrics; obs_profile = profile; obs_ledger = ledger }
  in
  Term.(const setup $ trace_arg $ metrics_arg $ log_level_arg $ profile_arg $ ledger_arg)

(* Flush the requested observability outputs after the command body ran. *)
let finish obs =
  (match obs.obs_trace with
  | Some path ->
    Trace.write path;
    Printf.eprintf "trace written to %s (%d spans)\n%!" path (List.length (Trace.events ()))
  | None -> ());
  match obs.obs_metrics with
  | Some path ->
    Metrics.write path;
    Printf.eprintf "metrics written to %s\n%!" path
  | None -> ()

(* Append one provenance+QoR record for a completed invocation.  Only
   completed work reaches the ledger — aborted flows leave no record, and
   the truncated line of a crashed append is tolerated by the reader. *)
let ledger_append obs ~kind ?(tag = "") ?(circuit = "-") ?(technique = "-")
    ?(guard = "off") ?(jobs = 1) workloads =
  match obs.obs_ledger with
  | None -> ()
  | Some path ->
    let r =
      Ledger.make ~time:(Ledger.clock ()) ~tool ~tag ~circuit ~technique ~guard ~jobs
        ~args:(List.tl (Array.to_list Sys.argv))
        ~kind workloads
    in
    Ledger.append path r;
    Printf.eprintf "ledger: appended record %s to %s\n%!" r.Ledger.r_id path

let generator_of name =
  match List.assoc_opt name Suite.all with
  | Some g -> Ok g
  | None ->
    Error
      (Printf.sprintf "unknown circuit %s (try: %s)" name
         (String.concat ", " (List.map fst Suite.all)))

let technique_of = function
  | "dual" | "dual-vth" -> Ok Flow.Dual_vth
  | "conventional" | "con" -> Ok Flow.Conventional_smt
  | "improved" | "imp" -> Ok Flow.Improved_smt
  | s -> Error (Printf.sprintf "unknown technique %s (dual|conventional|improved)" s)

let fault_of name =
  Option.to_result (Fault.of_name name)
    ~none:
      (Printf.sprintf "unknown fault %s (try: %s)" name
         (String.concat ", " (List.map Fault.name Fault.all)))

let circuit_arg =
  Arg.(value & opt string "circuit_a" & info [ "c"; "circuit" ] ~doc:"Circuit name.")

let technique_arg =
  Arg.(value & opt string "improved" & info [ "t"; "technique" ] ~doc:"dual|conventional|improved.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the independent flow runs (default: the SMT_JOBS \
           environment variable, else the recommended domain count).  Results, QoR \
           fields, and work counters are identical at any job count.")

let jobs_of = function
  | Some n when n >= 1 -> n
  | Some n -> or_usage (Error (Printf.sprintf "--jobs must be >= 1 (got %d)" n))
  | None -> Smt_util.Pool.default_jobs ()

let bounce_arg =
  Arg.(value & opt (some float) None & info [ "bounce-limit" ] ~doc:"VGND bounce limit (V).")

let length_arg =
  Arg.(value & opt (some float) None & info [ "vgnd-length" ] ~doc:"VGND length cap (um).")

let cells_arg =
  Arg.(value & opt (some int) None & info [ "cells-per-switch" ] ~doc:"EM cap on cells per switch.")

let retention_arg =
  Arg.(value & flag & info [ "retention" ] ~doc:"Convert slack-rich flip-flops to retention flip-flops.")

let sizing_arg =
  Arg.(value & flag & info [ "gate-sizing" ] ~doc:"Downsize off-critical cells after the Vth assignment.")

let options_of ?(retention = false) ?(sizing = false) seed bounce length cells =
  (* Each flag is held to [Cluster.validate] as it is applied, so a value
     out of range is a usage error naming its flag. *)
  let set flag value update p =
    match value with
    | None -> p
    | Some v ->
      or_usage (Result.map_error (fun e -> flag ^ ": " ^ e) (Cluster.validate (update p v)))
  in
  let p =
    Cluster.default_params Tech.default
    |> set "--bounce-limit" bounce (fun p v -> { p with Cluster.bounce_limit = v })
    |> set "--vgnd-length" length (fun p v -> { p with Cluster.length_limit = v })
    |> set "--cells-per-switch" cells (fun p v -> { p with Cluster.cell_limit = v })
  in
  {
    Flow.default_options with
    Flow.seed;
    Flow.cluster_params = Some p;
    Flow.retention_registers = retention;
    Flow.gate_sizing = sizing;
  }

let emit_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit" ] ~doc:"Write the transformed netlist to this file.")

let guard_arg =
  Arg.(
    value & opt string "off"
    & info [ "guard" ] ~docv:"MODE"
        ~doc:
          "Per-stage structural checking: off|warn|repair|strict.  warn records \
           violations in the report, repair also fixes the repairable ones, strict \
           aborts on the first Error.  Any mode other than off makes the command exit 1 \
           when Error-severity violations remain.")

let guard_of s = or_usage (Flow.guard_of_string s)

let print_diagnostics (report : Flow.report) =
  if report.Flow.diagnostics <> [] then begin
    Printf.printf "guard diagnostics (%d violations, %d repairs):\n"
      report.Flow.check_violations report.Flow.check_repairs;
    List.iter (fun d -> Printf.printf "  %s\n" d) report.Flow.diagnostics
  end

let run_cmd =
  let run obs circuit technique seed bounce length cells retention sizing emit guard =
    let gen = or_usage (generator_of circuit) in
    let t = or_usage (technique_of technique) in
    let guard = guard_of guard in
    let options =
      { (options_of ~retention ~sizing seed bounce length cells) with Flow.guard }
    in
    let nl = gen (lib ()) in
    let before = Metrics.counters () in
    match Flow.run ~options t nl with
    | report ->
      Format.printf "%a@." Flow.pp_report report;
      print_diagnostics report;
      (match emit with
      | Some path ->
        Smt_netlist.Writer.to_file nl path;
        Printf.printf "netlist written to %s\n" path
      | None -> ());
      let technique = Smt_core.Qor.technique_slug t in
      ledger_append obs ~kind:"run" ~circuit ~technique ~guard:(Flow.guard_name guard)
        [ Smt_core.Qor.workload_of_report ~name:(circuit ^ "/" ^ technique) ~before report ];
      finish obs;
      if guard <> Flow.Guard_off && Drc.has_errors (Drc.check nl) then exit 1
    | exception Flow.Flow_error e ->
      Printf.eprintf "flow aborted at stage %S on %s:\n" e.Flow.fe_stage e.Flow.fe_circuit;
      List.iter (fun d -> Printf.eprintf "  %s\n" d) e.Flow.fe_diagnostics;
      finish obs;
      exit 1
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one flow on one circuit")
    Term.(
      const run $ obs_term $ circuit_arg $ technique_arg $ seed_arg $ bounce_arg $ length_arg
      $ cells_arg $ retention_arg $ sizing_arg $ emit_arg $ guard_arg)

let corners_cmd =
  let run obs circuit technique seed =
    let gen = or_usage (generator_of circuit) in
    let t = or_usage (technique_of technique) in
    let options = { Flow.default_options with Flow.seed } in
    let nl = gen (lib ()) in
    let report, art = Flow.run_with_artifacts ~options t nl in
    Printf.printf "multi-corner sign-off of %s (%s), clock %.1f ps:\n\n"
      report.Flow.circuit
      (Flow.technique_name report.Flow.technique)
      report.Flow.clock_period;
    print_endline
      (Smt_core.Signoff.render
         (Smt_core.Signoff.run ~clock_period:report.Flow.clock_period art.Flow.art_sta));
    finish obs
  in
  Cmd.v (Cmd.info "corners" ~doc:"Multi-corner timing & leakage sign-off")
    Term.(const run $ obs_term $ circuit_arg $ technique_arg $ seed_arg)

let stages_cmd =
  let run obs circuit seed bounce length cells =
    let gen = or_usage (generator_of circuit) in
    let options = options_of seed bounce length cells in
    let before = Metrics.counters () in
    let report = Flow.run ~options Flow.Improved_smt (gen (lib ())) in
    Printf.printf "Improved Selective-MT flow on %s (clock %.1f ps)\n\n"
      report.Flow.circuit report.Flow.clock_period;
    (* With --profile, a GC-attribution column block rides the table:
       words allocated (minor/major) and collections charged per stage. *)
    let prof_cols =
      obs.obs_profile
      && List.exists (fun (s : Flow.stage) -> s.Flow.stage_prof <> None) report.Flow.stages
    in
    let header =
      [
        "Stage"; "Area um^2"; "Standby nW"; "WNS ps"; "Bounce V"; "Switches"; "Holders";
        "ms";
      ]
      @ (if prof_cols then [ "Minor Mw"; "Major Mw"; "GC min"; "GC maj" ] else [])
    in
    let rows =
      List.map
        (fun (s : Flow.stage) ->
          [
            s.Flow.stage_name;
            Printf.sprintf "%.1f" s.Flow.stage_area;
            Printf.sprintf "%.1f" s.Flow.stage_standby_nw;
            Printf.sprintf "%.1f" s.Flow.stage_wns;
            Printf.sprintf "%.4f" s.Flow.stage_worst_bounce;
            string_of_int s.Flow.stage_switches;
            string_of_int s.Flow.stage_holders;
            Printf.sprintf "%.1f" s.Flow.stage_ms;
          ]
          @
          if not prof_cols then []
          else
            match s.Flow.stage_prof with
            | None -> [ "-"; "-"; "-"; "-" ]
            | Some p ->
              [
                Printf.sprintf "%.2f" (p.Prof.minor_words /. 1e6);
                Printf.sprintf "%.2f" (p.Prof.major_words /. 1e6);
                string_of_int p.Prof.minor_collections;
                string_of_int p.Prof.major_collections;
              ])
        report.Flow.stages
    in
    print_endline (Smt_util.Text_table.render ~header rows);
    ledger_append obs ~kind:"run" ~circuit ~technique:"improved"
      [ Smt_core.Qor.workload_of_report ~name:(circuit ^ "/improved") ~before report ];
    finish obs
  in
  Cmd.v (Cmd.info "stages" ~doc:"Show per-stage metrics of the improved flow (the paper's Fig. 4)")
    Term.(const run $ obs_term $ circuit_arg $ seed_arg $ bounce_arg $ length_arg $ cells_arg)

let table1_cmd =
  let run obs seed jobs json =
    let jobs = jobs_of jobs in
    let l = lib () in
    let options = { Flow.default_options with Flow.seed } in
    let rows =
      [
        Smt_core.Compare.table1_row ~options ~jobs (fun () -> Suite.circuit_a l);
        Smt_core.Compare.table1_row ~options ~jobs (fun () -> Suite.circuit_b l);
      ]
    in
    (match json with
    | Some path ->
      let oc = open_out path in
      output_string oc (Smt_core.Report_json.of_rows rows);
      close_out oc;
      Printf.eprintf "table written to %s\n%!" path
    | None -> ());
    print_endline (Smt_core.Compare.render rows);
    finish obs
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the comparison as JSON to $(docv).")
  in
  Cmd.v (Cmd.info "table1" ~doc:"Reproduce the paper's Table 1")
    Term.(const run $ obs_term $ seed_arg $ jobs_arg $ json_arg)

let report_cmd =
  let run obs circuit technique seed =
    let gen = or_usage (generator_of circuit) in
    let t = or_usage (technique_of technique) in
    let options = { Flow.default_options with Flow.seed } in
    let _, art = Flow.run_with_artifacts ~options t (gen (lib ())) in
    let sta = art.Flow.art_sta in
    let nl = Smt_sta.Sta.netlist sta in
    print_endline
      Explain.(
        text (summary sta @ paths ~k:2 sta @ [ Line "" ] @ power nl @ [ Line "" ] @ area nl));
    finish obs
  in
  Cmd.v (Cmd.info "report" ~doc:"Sign-off style timing / power / area reports")
    Term.(const run $ obs_term $ circuit_arg $ technique_arg $ seed_arg)

(* An explain report's body, chosen before the flow runs.  A timing session
   does not expose its clock, so the paths document takes it from the
   report. *)
let explain_of ~k = function
  | "paths" ->
    Ok
      (fun (r : Flow.report) (art : Flow.artifacts) ->
        Explain.Field ("clock_period_ps", Explain.Num r.Flow.clock_period)
        :: Explain.paths ~k art.Flow.art_sta)
  | "leakage" -> Ok Explain.leakage
  | "clusters" -> Ok Explain.clusters
  | s -> Error (Printf.sprintf "unknown report %s (paths|leakage|clusters)" s)

let explain_cmd =
  let run obs what circuit technique seed k json =
    let gen = or_usage (generator_of circuit) in
    let t = or_usage (technique_of technique) in
    if k < 1 then or_usage (Error (Printf.sprintf "--paths must be >= 1 (got %d)" k));
    let body = or_usage (explain_of ~k what) in
    let options = { Flow.default_options with Flow.seed } in
    let report, artifacts = Flow.run_with_artifacts ~options t (gen (lib ())) in
    let doc = Explain.headline report @ body report artifacts in
    print_endline (if json then Explain.json doc else Explain.text doc);
    finish obs
  in
  let what_arg =
    Arg.(
      value & pos 0 string "paths"
      & info [] ~docv:"REPORT"
          ~doc:"Which attribution to render: paths|leakage|clusters.")
  in
  let k_arg =
    Arg.(value & opt int 5 & info [ "k"; "paths" ] ~doc:"Worst paths to list (paths report).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON instead of a table.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "QoR attribution: critical paths with per-arc cell/wire delays, standby leakage \
          by Vth class / function / flow stage, or per-cluster switch occupancy and \
          bounce margin.  Reads the flow's own final STA, so the worst path slack \
          matches the reported WNS exactly.")
    Term.(
      const run $ obs_term $ what_arg $ circuit_arg $ technique_arg $ seed_arg $ k_arg
      $ json_arg)

let bench_snapshot_cmd =
  let run obs seed jobs tag out =
    let jobs = jobs_of jobs in
    let snap = Smt_core.Qor.collect ~seed ~jobs ~tag () in
    let path = match out with Some p -> p | None -> Printf.sprintf "BENCH_%s.json" tag in
    Smt_obs.Snapshot.write path snap;
    Printf.printf "snapshot %s (%d workloads) written to %s\n" tag
      (List.length snap.Smt_obs.Snapshot.s_workloads)
      path;
    ledger_append obs ~kind:"bench" ~tag ~jobs snap.Smt_obs.Snapshot.s_workloads;
    finish obs
  in
  let tag_arg =
    Arg.(value & opt string "snapshot" & info [ "tag" ] ~doc:"Snapshot tag (names the default output file).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path (default BENCH_<tag>.json).")
  in
  Cmd.v
    (Cmd.info "bench-snapshot"
       ~doc:
         "Run the benchmark workloads (circuits A and B under each technique) and write \
          a versioned QoR snapshot: per-workload QoR fields, deterministic work-counter \
          deltas, and per-stage wall-clock times.")
    Term.(const run $ obs_term $ seed_arg $ jobs_arg $ tag_arg $ out_arg)

let bench_compare_cmd =
  let run obs baseline current seed jobs =
    let read path =
      or_usage
        (Result.map_error (( ^ ) "cannot read snapshot: ")
           (Smt_obs.Snapshot.read path))
    in
    let baseline = read baseline in
    let current =
      match current with
      | Some path -> read path
      | None -> Smt_core.Qor.collect ~seed ~jobs:(jobs_of jobs) ~tag:"current" ()
    in
    let deltas = Smt_obs.Snapshot.compare ~baseline ~current in
    print_endline (Smt_obs.Snapshot.render deltas);
    finish obs;
    if Smt_obs.Snapshot.has_regressions deltas then exit 1
  in
  let baseline_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE" ~doc:"Baseline snapshot to compare against.")
  in
  let current_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "current" ] ~docv:"FILE"
          ~doc:"Snapshot to compare (default: run the workloads fresh).")
  in
  Cmd.v
    (Cmd.info "bench-compare"
       ~doc:
         "Compare a QoR snapshot against a baseline.  QoR fields and work counters must \
          match exactly (wall-clock drift is advisory only); exits 1 when any \
          regression is found.")
    Term.(const run $ obs_term $ baseline_arg $ current_arg $ seed_arg $ jobs_arg)

let list_cmd =
  let run () =
    List.iter (fun (name, _) -> print_endline name) Suite.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available circuits") Term.(const run $ const ())

let check_cmd =
  let run obs circuit technique seed fault fault_seed do_repair =
    let gen = or_usage (generator_of circuit) in
    let l = lib () in
    let nl = gen l in
    (* With a technique, check the flow's product; without, the raw
       synthesized netlist. *)
    Option.iter
      (fun t ->
        let t = or_usage (technique_of t) in
        ignore (Flow.run ~options:{ Flow.default_options with Flow.seed } t nl))
      technique;
    Option.iter
      (fun fname ->
        let f = or_usage (fault_of fname) in
        match Fault.inject ~seed:fault_seed nl f with
        | Some inj ->
          Printf.printf "injected %s at %s: %s\n" (Fault.name f) inj.Fault.target
            inj.Fault.detail
        | None -> Printf.printf "fault %s: no applicable site in %s\n" fname circuit)
      fault;
    let vs = Drc.check_library l @ Drc.check nl in
    let vs =
      if do_repair && vs <> [] then begin
        let r = Repair.repair nl vs in
        List.iter (fun a -> Printf.printf "repaired: %s\n" a) r.Repair.actions;
        Drc.check_library l @ Drc.check nl
      end
      else vs
    in
    List.iter (fun v -> print_endline (Violation.to_string v)) vs;
    print_endline (Violation.summary vs);
    finish obs;
    if Drc.has_errors vs then exit 1
  in
  let technique_opt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "t"; "technique" ]
          ~doc:"Check the netlist a flow produces (dual|conventional|improved) instead \
                of the raw synthesized circuit.")
  in
  let fault_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault" ] ~docv:"CLASS"
          ~doc:"Inject one seeded structural fault before checking (see smt_flow check \
                --fault help for classes).")
  in
  let fault_seed_arg =
    Arg.(value & opt int 1 & info [ "fault-seed" ] ~doc:"Seed for the fault site choice.")
  in
  let repair_arg =
    Arg.(value & flag & info [ "repair" ] ~doc:"Run the repair pass, then re-check.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Structural design-rule check of a circuit (library data, connectivity, MT \
          structure).  Exits 1 when Error-severity violations remain.")
    Term.(
      const run $ obs_term $ circuit_arg $ technique_opt_arg $ seed_arg $ fault_arg
      $ fault_seed_arg $ repair_arg)

let lint_cmd =
  let run obs circuits technique seed raw jobs format sarif_out waivers baseline fault
      fault_seed =
    let jobs = jobs_of jobs in
    let circuits = match circuits with [] -> List.map fst Suite.all | cs -> cs in
    let gens = List.map (fun name -> (name, or_usage (generator_of name))) circuits in
    let t = or_usage (technique_of technique) in
    let print =
      match format with
      | "text" -> fun wls -> print_string (Sarif.render_text wls)
      | "json" -> fun wls -> print_endline (Sarif.render_json wls)
      | "sarif" -> fun wls -> print_endline (Sarif.render wls)
      | s -> or_usage (Error (Printf.sprintf "unknown format %s (text|json|sarif)" s))
    in
    let today = Waiver.today () in
    let wv =
      match waivers with
      | None -> []
      | Some path ->
        let w = or_usage (Result.map_error (( ^ ) "waivers: ") (Waiver.load path)) in
        List.iter
          (fun (e : Waiver.entry) ->
            match e.Waiver.w_expires with
            | Some (y, m, d) when Waiver.expired ~today e ->
              Printf.eprintf
                "waivers: line %d (%s %s) expired %04d-%02d-%02d; finding no longer \
                 suppressed\n\
                 %!"
                e.Waiver.w_line e.Waiver.w_rule e.Waiver.w_loc y m d
            | _ -> ())
          w;
        w
    in
    let baseline =
      Option.map
        (fun path -> or_usage (Result.map_error (( ^ ) "baseline: ") (Sarif.read_baseline path)))
        baseline
    in
    let fault = Option.map (fun f -> or_usage (fault_of f)) fault in
    (* Multi-domain circuits come out of their generator already
       MT-structured, so the flow never runs on them: they lint raw. *)
    let raw_for name = raw || Suite.is_multi_domain name in
    let suffix_for name = if raw_for name then "raw" else technique in
    (* One workload per circuit; each job builds, runs the flow (unless
       --raw), optionally injects a fault, and analyzes.  Par.map keeps
       results — and therefore every output format — in input order, so
       the report is byte-identical at any job count.  The mode fan-out
       inside Verify gets the job budget only when a single circuit is
       requested; otherwise the circuits are the parallel axis. *)
    let vjobs = match gens with [ _ ] -> jobs | _ -> 1 in
    let process (name, gen) =
      let nl = gen (lib ()) in
      if not (raw_for name) then
        ignore (Flow.run ~options:{ Flow.default_options with Flow.seed } t nl);
      let inj =
        Option.bind fault (fun f ->
            Option.map (fun i -> (Fault.name f, i)) (Fault.inject ~seed:fault_seed nl f))
      in
      let r = Verify.analyze ~jobs:vjobs nl in
      let kept, waived = Waiver.apply ~today wv r.Verify.findings in
      ( { Sarif.wl_name = name ^ "/" ^ suffix_for name; wl_findings = kept; wl_waived = waived },
        inj )
    in
    let results = Smt_obs.Par.map ~jobs process gens in
    List.iter
      (fun ((wl : Sarif.workload), inj) ->
        Option.iter
          (fun (fname, (i : Fault.injection)) ->
            Printf.eprintf "%s: injected %s at %s: %s\n%!" wl.Sarif.wl_name fname
              i.Fault.target i.Fault.detail)
          inj)
      results;
    let workloads = List.map fst results in
    print workloads;
    (match sarif_out with
    | Some path ->
      J.to_file path (Sarif.render workloads);
      Printf.eprintf "SARIF written to %s\n%!" path
    | None -> ());
    ledger_append obs ~kind:"lint" ~technique:(if raw then "raw" else technique) ~jobs
      (List.map
         (fun (wl : Sarif.workload) ->
           Smt_obs.Snapshot.workload ~name:wl.Sarif.wl_name
             ~qor:
               [
                 ("findings", float_of_int (List.length wl.Sarif.wl_findings));
                 ("waived", float_of_int (List.length wl.Sarif.wl_waived));
               ]
             ~counters:[] ~stage_ms:[])
         workloads);
    finish obs;
    Option.iter
      (fun b ->
        let total =
          List.fold_left
            (fun n (wl : Sarif.workload) -> n + List.length wl.Sarif.wl_findings)
            0 workloads
        in
        Printf.eprintf "baseline: %d finding(s), %d new\n%!" total
          (List.length (Sarif.new_findings b workloads)))
      baseline;
    if Sarif.gate_fails baseline workloads then exit 1
  in
  let circuits_arg =
    Arg.(
      value & opt_all string []
      & info [ "c"; "circuit" ] ~docv:"NAME"
          ~doc:"Circuit to lint (repeatable; default: every circuit in the suite).")
  in
  let raw_arg =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:"Lint the raw synthesized netlist instead of a flow product.")
  in
  let format_arg =
    Arg.(
      value & opt string "text"
      & info [ "format" ] ~docv:"FMT" ~doc:"Report format: text|json|sarif.")
  in
  let sarif_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "sarif" ] ~docv:"FILE"
          ~doc:"Also write the SARIF 2.1.0 report to $(docv) (any --format).")
  in
  let waivers_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "waivers" ] ~docv:"FILE"
          ~doc:"Waiver file: one '<rule-id> <location-glob>' per line; waived findings \
                are suppressed from the exit code but kept, marked, in the reports.")
  in
  let fault_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault" ] ~docv:"CLASS"
          ~doc:"Inject one seeded fault after the flow, before the analysis.")
  in
  let fault_seed_arg =
    Arg.(value & opt int 1 & info [ "fault-seed" ] ~doc:"Seed for the fault site choice.")
  in
  let baseline_lint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "A previous SARIF report; findings already in it (matched by rule id and \
             logical location) no longer gate the exit code — only new Error findings \
             exit 1.  A file that is not a SARIF report exits 2.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Semantic standby verification: abstract interpretation of each circuit's \
          sleep state across every power-domain mode vector (MTE asserted, clocks \
          parked), reporting floating nets read by always-on logic, crowbar-risk \
          inputs, useless holders, MTE polarity bugs, floating retention-FF inputs, \
          and cross-domain crossing bugs.  Exits 1 when unwaived Error findings \
          remain.")
    Term.(
      const run $ obs_term $ circuits_arg $ technique_arg $ seed_arg $ raw_arg $ jobs_arg
      $ format_arg $ sarif_out_arg $ waivers_arg $ baseline_lint_arg $ fault_arg
      $ fault_seed_arg)

(* --- crash-tolerant campaign runner: smt_flow campaign {run,status,resume,merge,worker} --- *)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let campaign_dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR"
        ~doc:
          "Campaign directory: holds the manifest, one atomic checkpoint per \
           completed job, per-shard logs, and the merged snapshot.  This directory \
           is the unit of crash-tolerance — a campaign is resumable from it alone.")

let campaign_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Merged snapshot path (default: $(b,DIR)/merged.json).")

let campaign_out_of dir = function
  | Some p -> p
  | None -> Filename.concat dir "merged.json"

(* Parse-and-canonicalize the matrix coordinates, so job ids are stable
   however the user spelled them ("imp" -> "improved"). *)
let campaign_matrix circuits techniques guards seeds =
  let circuits = match circuits with [] -> List.map fst Suite.all | cs -> cs in
  List.iter (fun c -> or_usage (Result.map ignore (generator_of c))) circuits;
  let techniques =
    match techniques with [] -> [ "dual"; "conventional"; "improved" ] | ts -> ts
  in
  let techniques =
    List.map (fun s -> Smt_core.Qor.technique_slug (or_usage (technique_of s))) techniques
  in
  let guards = match guards with [] -> [ "off" ] | gs -> gs in
  let guards = List.map (fun s -> Flow.guard_name (guard_of s)) guards in
  let seeds = match seeds with [] -> [ 1 ] | ss -> ss in
  (circuits, techniques, guards, seeds)

let timeout_arg =
  Arg.(
    value & opt float 60.
    & info [ "timeout" ] ~docv:"S"
        ~doc:"Wall-clock limit per shard attempt; a shard past it is SIGKILLed and \
              the attempt counts as failed.")

let max_attempts_arg =
  Arg.(
    value & opt int 3
    & info [ "max-attempts" ] ~docv:"K"
        ~doc:"Attempts per job before it is quarantined and the campaign continues \
              without it.")

let retry_base_arg =
  Arg.(
    value & opt float 100.
    & info [ "retry-delay-ms" ] ~docv:"MS"
        ~doc:"Backoff of the first retry; doubles per attempt up to \
              $(b,--retry-cap-ms), with deterministic jitter in [1, 1.5).")

let retry_cap_arg =
  Arg.(
    value & opt float 2000.
    & info [ "retry-cap-ms" ] ~docv:"MS" ~doc:"Backoff ceiling (before jitter).")

let chaos_arg =
  Arg.(
    value & opt float 0.
    & info [ "chaos" ] ~docv:"P"
        ~doc:
          "Self-fault-injection: SIGKILL each shard attempt with probability $(docv), \
           at a random instant within $(b,--chaos-delay-ms) of its spawn.  The kill \
           schedule is drawn from a seeded RNG ($(b,--chaos-seed)), so a chaos \
           campaign is exactly replayable; killed shards are retried/resumed and the \
           merged snapshot stays byte-identical to an undisturbed run.")

let chaos_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "chaos-seed" ] ~docv:"N"
        ~doc:"Seed of the chaos kill schedule and the retry-backoff jitter.")

let chaos_delay_arg =
  Arg.(
    value & opt float 25.
    & info [ "chaos-delay-ms" ] ~docv:"MS"
        ~doc:"Chaos kills land uniformly within this delay of the shard's spawn.")

let campaign_config jobs timeout max_attempts retry_base retry_cap chaos chaos_seed
    chaos_delay =
  let jobs = jobs_of jobs in
  let reject bad msg = if bad then or_usage (Error msg) in
  reject (timeout <= 0.) "--timeout must be positive";
  reject (max_attempts < 1) "--max-attempts must be >= 1";
  reject (chaos < 0. || chaos > 1.) "--chaos must be a probability in [0, 1]";
  {
    Csup.default_config with
    Csup.sv_jobs = jobs;
    Csup.sv_timeout_s = timeout;
    Csup.sv_max_attempts = max_attempts;
    Csup.sv_retry_base_ms = retry_base;
    Csup.sv_retry_cap_ms = retry_cap;
    Csup.sv_chaos = chaos;
    Csup.sv_chaos_delay_ms = chaos_delay;
    Csup.sv_seed = chaos_seed;
  }

(* Supervise every not-yet-done matrix job of [man], persist the
   quarantine list, merge, and exit under the campaign contract:
   0 complete, 1 partial (quarantined or missing jobs), 2 infrastructure
   failure. *)
let merge_or_exit dir = or_usage (Result.map_error (( ^ ) "campaign: ") (Cmerge.of_dir dir))

let campaign_supervise obs ~dir ~out cfg (man : Cman.t) =
  let before = merge_or_exit dir in
  let todo = Cmerge.todo before in
  let byid = List.map (fun j -> (Cjob.id j, j)) (Cman.jobs man) in
  Printf.printf "campaign %s: %d jobs, %d already complete, %d to run on %d shards\n%!"
    man.Cman.m_tag (List.length byid) before.Cmerge.mg_done (List.length todo)
    cfg.Csup.sv_jobs;
  let exe =
    if Filename.is_relative Sys.executable_name then
      Filename.concat (Unix.getcwd ()) Sys.executable_name
    else Sys.executable_name
  in
  (* A job's measurements travel in its checkpoint: a profiled
     supervisor (--profile, or --ledger) runs profiled workers, so the
     ledger record carries each job's per-stage GC attribution. *)
  let command ~id ~attempt =
    let j = List.assoc id byid in
    Array.append
      [|
        exe; "campaign"; "worker"; "--dir"; dir; "--circuit"; j.Cjob.jb_circuit;
        "--technique"; j.Cjob.jb_technique; "--guard"; j.Cjob.jb_guard; "--seed";
        string_of_int j.Cjob.jb_seed; "--attempt"; string_of_int attempt;
      |]
      (if obs.obs_profile then [| "--profile" |] else [||])
  in
  let verify id =
    let j = List.assoc id byid in
    match Ckpt.load (Ckpt.path ~dir j) with
    | Ok { Ckpt.cp_status = Ckpt.Done; _ } -> Ok ()
    | Ok { Ckpt.cp_status = Ckpt.Failed e; _ } ->
      Error ("checkpoint records failure: " ^ e)
    | Error e -> Error ("no valid checkpoint: " ^ e)
  in
  let log_path id = Filename.concat dir (id ^ ".log") in
  let summary = Csup.run cfg ~command ~verify ~log_path (List.map Cjob.id todo) in
  (* Persist the quarantine list: status/resume/merge must see terminal
     failures without re-supervising (a later resume grants a fresh
     attempt budget by re-running every failed checkpoint). *)
  List.iter
    (fun (id, attempt, err) ->
      Ckpt.write ~dir
        (Ckpt.make ~job:(List.assoc id byid) ~attempt ~duration_s:0. (Error err)))
    (Csup.quarantined summary);
  let m = merge_or_exit dir in
  Smt_obs.Snapshot.write out m.Cmerge.mg_snapshot;
  print_endline (Cmerge.render_status m);
  Printf.printf
    "retries %d, chaos kills %d, timeouts %d; merged snapshot (%d workloads) written \
     to %s\n"
    summary.Csup.sm_retries summary.Csup.sm_chaos_kills summary.Csup.sm_timeouts
    m.Cmerge.mg_done out;
  let only = function [ x ] -> x | _ -> "-" in
  ledger_append obs ~kind:"campaign" ~tag:man.Cman.m_tag
    ~circuit:(only man.Cman.m_circuits) ~technique:(only man.Cman.m_techniques)
    ~guard:(only man.Cman.m_guards) ~jobs:cfg.Csup.sv_jobs (Cmerge.workloads m);
  finish obs;
  exit (if Cmerge.complete m then 0 else 1)

let campaign_run_cmd =
  let run obs dir circuits techniques guards seeds jobs timeout max_attempts retry_base
      retry_cap chaos chaos_seed chaos_delay tag out =
    let circuits, techniques, guards, seeds =
      campaign_matrix circuits techniques guards seeds
    in
    let cfg =
      campaign_config jobs timeout max_attempts retry_base retry_cap chaos chaos_seed
        chaos_delay
    in
    mkdir_p dir;
    if Sys.file_exists (Cman.path dir) then begin
      Printf.eprintf
        "campaign: %s is already initialized; use `smt_flow campaign resume --dir %s`\n"
        dir dir;
      exit 2
    end;
    let man = Cman.make ~tag ~circuits ~techniques ~guards ~seeds in
    Cman.write dir man;
    campaign_supervise obs ~dir ~out:(campaign_out_of dir out) cfg man
  in
  let circuits_arg =
    Arg.(
      value & opt_all string []
      & info [ "c"; "circuit" ] ~docv:"NAME"
          ~doc:"Circuit axis of the matrix (repeatable; default: every suite circuit).")
  in
  let techniques_arg =
    Arg.(
      value & opt_all string []
      & info [ "t"; "technique" ] ~docv:"T"
          ~doc:"Technique axis (repeatable; default: dual, conventional, improved).")
  in
  let guards_arg =
    Arg.(
      value & opt_all string []
      & info [ "guard" ] ~docv:"MODE" ~doc:"Guard axis (repeatable; default: off).")
  in
  let seeds_arg =
    Arg.(
      value & opt_all int []
      & info [ "seed" ] ~docv:"N" ~doc:"Flow-seed axis (repeatable; default: 1).")
  in
  let tag_arg =
    Arg.(
      value & opt string "campaign"
      & info [ "tag" ] ~doc:"Tag of the merged snapshot (recorded in the manifest).")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Expand the (circuit x technique x guard x seed) matrix into jobs, shard \
          them across worker OS processes with per-shard supervision (timeout, retry \
          with exponential backoff, quarantine after $(b,--max-attempts)), persist \
          one atomic checkpoint per job, and merge the results into one \
          byte-deterministic snapshot.  Exit 0 when every job completed, 1 when the \
          campaign finished partial (quarantined jobs), 2 on infrastructure failure.")
    Term.(
      const run $ obs_term $ campaign_dir_arg $ circuits_arg $ techniques_arg
      $ guards_arg $ seeds_arg $ jobs_arg $ timeout_arg $ max_attempts_arg
      $ retry_base_arg $ retry_cap_arg $ chaos_arg $ chaos_seed_arg $ chaos_delay_arg
      $ tag_arg $ campaign_out_arg)

let campaign_resume_cmd =
  let run obs dir jobs timeout max_attempts retry_base retry_cap chaos chaos_seed
      chaos_delay out =
    match Cman.load dir with
    | Error e ->
      Printf.eprintf "campaign: %s (is %s a campaign directory?)\n" e dir;
      exit 2
    | Ok man ->
      Metrics.incr (Metrics.counter "campaign.resumes");
      let cfg =
        campaign_config jobs timeout max_attempts retry_base retry_cap chaos chaos_seed
          chaos_delay
      in
      campaign_supervise obs ~dir ~out:(campaign_out_of dir out) cfg man
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Re-scan the checkpoint directory and finish an interrupted or partial \
          campaign: completed jobs are skipped, failed / quarantined / in-flight ones \
          re-run with a fresh attempt budget.  The matrix comes from the manifest, \
          so resume cycles cannot drift; the merged snapshot is byte-identical to an \
          uninterrupted run's.  Same exit contract as $(b,run).")
    Term.(
      const run $ obs_term $ campaign_dir_arg $ jobs_arg $ timeout_arg
      $ max_attempts_arg $ retry_base_arg $ retry_cap_arg $ chaos_arg $ chaos_seed_arg
      $ chaos_delay_arg $ campaign_out_arg)

(* --- campaign status: checkpoints alone, no supervisor --- *)

let campaign_status_cmd =
  let run dir json =
    let m = merge_or_exit dir in
    print_endline (if json then Cmerge.status_json m else Cmerge.render_status m);
    exit (if Cmerge.complete m then 0 else 1)
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Machine-readable status: one JSON object with the counts, the ETA \
                estimate and per-job state.")
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Report per-job campaign state from the checkpoint directory alone: done, \
          failed or missing, with attempts, each done job's duration, and an ETA \
          from the completed jobs' durations.  Exit 0 when complete, 1 when partial \
          or in progress, 2 on infrastructure failure (unreadable directory or \
          manifest).")
    Term.(const run $ campaign_dir_arg $ json_arg)

let campaign_merge_cmd =
  let run dir out =
    let m = merge_or_exit dir in
    let out = campaign_out_of dir out in
    Smt_obs.Snapshot.write out m.Cmerge.mg_snapshot;
    print_endline (Cmerge.render_status m);
    Printf.printf "merged snapshot (%d workloads) written to %s\n" m.Cmerge.mg_done out;
    exit (if Cmerge.complete m then 0 else 1)
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Re-merge the checkpoints into the campaign snapshot without running \
          anything.  The merge is byte-deterministic: independent of shard count, \
          scheduling, and resume history.  Exit 0 when complete, 1 when partial.")
    Term.(const run $ campaign_dir_arg $ campaign_out_arg)

(* The shard body: one flow run, one atomic checkpoint.  Spawned by the
   supervisor — not intended for interactive use, but safe for it.  The
   checkpoint is the job's only record: QoR, counters, per-stage
   wall-clock and, when profiled, per-stage GC. *)
let campaign_worker_cmd =
  let run obs dir circuit technique guard seed attempt =
    let gen = or_usage (generator_of circuit) in
    let t = or_usage (technique_of technique) in
    let guard_mode = guard_of guard in
    let job =
      {
        Cjob.jb_circuit = circuit;
        jb_technique = Smt_core.Qor.technique_slug t;
        jb_guard = Flow.guard_name guard_mode;
        jb_seed = seed;
      }
    in
    let options = { Flow.default_options with Flow.seed; Flow.guard = guard_mode } in
    let nl = gen (lib ()) in
    let before = Metrics.counters () in
    let t0 = Unix.gettimeofday () in
    let outcome =
      match Flow.run ~options t nl with
      | report -> Ok (Smt_core.Qor.workload_of_report ~name:(Cjob.name job) ~before report)
      | exception Flow.Flow_error e ->
        Error
          (Printf.sprintf "flow aborted at stage %S: %s" e.Flow.fe_stage
             (String.concat "; " e.Flow.fe_diagnostics))
    in
    Ckpt.write ~dir
      (Ckpt.make ~job ~attempt ~duration_s:(Unix.gettimeofday () -. t0) outcome);
    finish obs;
    if Result.is_error outcome then exit 1
  in
  let attempt_arg =
    Arg.(value & opt int 1 & info [ "attempt" ] ~docv:"N" ~doc:"Supervisor attempt number.")
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Internal: run one campaign job (one circuit, one technique, one guard, one \
          seed) and persist its result as an atomic checkpoint.  Exec'd per shard by \
          $(b,campaign run)/$(b,resume), with $(b,--profile) when the campaign is \
          profiled.")
    Term.(
      const run $ obs_term $ campaign_dir_arg $ circuit_arg $ technique_arg $ guard_arg
      $ seed_arg $ attempt_arg)

let campaign_cmd =
  Cmd.group
    (Cmd.info "campaign"
       ~doc:
         "Crash-tolerant, resumable campaign runner: shard a (circuit x technique x \
          guard x seed) matrix across supervised worker processes with retry, \
          backoff, quarantine, and seeded chaos injection; checkpoint every job \
          atomically; merge byte-deterministically.")
    [
      campaign_run_cmd; campaign_status_cmd; campaign_resume_cmd; campaign_merge_cmd;
      campaign_worker_cmd;
    ]

(* --- run-ledger inspection: smt_flow runs {list,show,trend,gc} --- *)

let runs_ledger_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:"Run ledger to read (default: the SMT_LEDGER environment variable).")

let ledger_path_of = function
  | Some p -> p
  | None ->
    or_usage
      (Option.to_result (Ledger.default_path ())
         ~none:"no ledger: pass --ledger FILE or set SMT_LEDGER")

let read_ledger_or_die path =
  or_usage (Result.map_error (( ^ ) "cannot read ledger: ") (Ledger.read path))

let runs_list_cmd =
  let run ledger kind =
    print_string (Ledger.render_list ~kind (read_ledger_or_die (ledger_path_of ledger)))
  in
  let kind_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "kind" ] ~docv:"KIND"
          ~doc:"Only records of this kind (run|bench|lint|campaign).")
  in
  Cmd.v (Cmd.info "list" ~doc:"List the ledger's records, oldest first")
    Term.(const run $ runs_ledger_arg $ kind_arg)

let runs_show_cmd =
  let run ledger id =
    print_string (Ledger.render_show (or_usage (Ledger.find (ledger_path_of ledger) id)))
  in
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Record id.")
  in
  Cmd.v (Cmd.info "show" ~doc:"Show one ledger record in full")
    Term.(const run $ runs_ledger_arg $ id_arg)

let runs_trend_cmd =
  let run ledger snapshot_dir metric workload all json gate =
    let records =
      match snapshot_dir with
      | Some dir ->
        or_usage
          (Result.map_error (( ^ ) "cannot read snapshot dir: ")
             (Trend.of_snapshot_dir dir))
      | None -> (read_ledger_or_die (ledger_path_of ledger)).Ledger.records
    in
    let series = Trend.analyze ~metric ~workload ~qor_only:(not all) records in
    if json then print_endline (Trend.to_json series)
    else begin
      if series <> [] then print_endline (Trend.render series);
      print_string (Trend.render_regressions records)
    end;
    if gate && Trend.has_regressions records then exit 1
  in
  let snapshot_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot-dir" ] ~docv:"DIR"
          ~doc:"Analyze a directory of BENCH_*.json snapshots (filename order) instead \
                of a ledger.")
  in
  let metric_arg =
    Arg.(
      value & opt string ""
      & info [ "metric" ] ~docv:"SUBSTR" ~doc:"Only metrics containing this substring.")
  in
  let workload_arg =
    Arg.(
      value & opt string ""
      & info [ "workload" ] ~docv:"SUBSTR" ~doc:"Only workloads containing this substring.")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Include counter.* and stage_ms.* series, not just qor.* (no effect when \
                --metric is given).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the series as JSON instead of a table.")
  in
  let gate_arg =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:"Exit 1 when any adjacent-record transition classifies as a regression \
                under the bench-compare rules.")
  in
  Cmd.v
    (Cmd.info "trend"
       ~doc:
         "Per-workload, per-metric time series over the ledger: first/latest/best/worst \
          values and a Regression/Advisory classification of every adjacent-record \
          transition, reusing the bench-compare rules.")
    Term.(
      const run $ runs_ledger_arg $ snapshot_dir_arg $ metric_arg $ workload_arg $ all_arg
      $ json_arg $ gate_arg)

let runs_gc_cmd =
  let run ledger keep =
    let path = ledger_path_of ledger in
    match Ledger.gc ?keep path with
    | Error e ->
      Printf.eprintf "ledger gc: %s\n" e;
      exit 2
    | Ok g ->
      Printf.printf "ledger gc: kept %d record%s, dropped %d malformed line%s, %d old record%s\n"
        g.Ledger.kept
        (if g.Ledger.kept = 1 then "" else "s")
        g.Ledger.dropped_malformed
        (if g.Ledger.dropped_malformed = 1 then "" else "s")
        g.Ledger.dropped_old
        (if g.Ledger.dropped_old = 1 then "" else "s")
  in
  let keep_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "keep" ] ~docv:"N" ~doc:"Also drop all but the newest $(docv) records.")
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:"Rewrite the ledger dropping malformed (truncated) lines and, with --keep, \
             old records.")
    Term.(const run $ runs_ledger_arg $ keep_arg)

let runs_cmd =
  Cmd.group
    (Cmd.info "runs"
       ~doc:
         "Inspect the persistent run ledger: list records, show one in full, chart \
          QoR trends with regression detection, or compact the file.")
    [ runs_list_cmd; runs_show_cmd; runs_trend_cmd; runs_gc_cmd ]

let flame_cmd =
  let run trace out =
    match Flame.of_file trace with
    | Error e ->
      Printf.eprintf "flame: %s\n" e;
      exit 2
    | Ok folded ->
      let rendered = Flame.render folded in
      (match out with
      | Some path ->
        J.to_file path rendered;
        Printf.eprintf "folded stacks written to %s (%d stacks)\n%!" path
          (List.length folded)
      | None -> print_string rendered)
  in
  let trace_pos_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"Chrome trace_event JSON written by --trace.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default: stdout).")
  in
  Cmd.v
    (Cmd.info "flame"
       ~doc:
         "Convert a --trace Chrome trace into folded-stacks format (one \
          'root;child;leaf <self-us>' line per stack, flamegraph.pl / speedscope / \
          inferno input).  Nesting is rebuilt from span time containment per thread; \
          identical stacks merge across threads, so the output is stable under worker \
          placement.")
    Term.(const run $ trace_pos_arg $ out_arg)

let main =
  Cmd.group
    (Cmd.info "smt_flow" ~version
       ~doc:"Selective multi-threshold CMOS design flows (DATE 2005 reproduction)")
    [
      run_cmd; stages_cmd; table1_cmd; corners_cmd; report_cmd; explain_cmd;
      bench_snapshot_cmd; bench_compare_cmd; check_cmd; lint_cmd; list_cmd; runs_cmd;
      flame_cmd; campaign_cmd;
    ]

(* An unopenable input or output path is bad input (exit 2, naming the
   path); any other exception is a bug and keeps cmdliner's internal-error
   exit. *)
let () =
  exit
    (match Cmd.eval ~catch:false main with
    | code -> code
    | exception Sys_error msg ->
      Printf.eprintf "smt_flow: %s\n%!" msg;
      2
    | exception e ->
      Printf.eprintf "smt_flow: internal error, uncaught exception:\n%s\n%s%!"
        (Printexc.to_string e) (Printexc.get_backtrace ());
      Cmd.Exit.internal_error)
