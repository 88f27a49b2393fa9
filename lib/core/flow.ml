module Netlist = Smt_netlist.Netlist
module Nl_stats = Smt_netlist.Nl_stats
module Placement = Smt_place.Placement
module Parasitics = Smt_route.Parasitics
module Cts = Smt_cts.Cts
module Sta = Smt_sta.Sta
module Wire = Smt_sta.Wire
module Leakage = Smt_power.Leakage
module Bounce = Smt_power.Bounce
module Activity = Smt_sim.Activity
module Library = Smt_cell.Library
module Tech = Smt_cell.Tech
module Trace = Smt_obs.Trace
module Metrics = Smt_obs.Metrics
module Prof = Smt_obs.Prof
module Log = Smt_obs.Log
module Par = Smt_obs.Par
module Drc = Smt_check.Drc
module Repair = Smt_check.Repair
module Violation = Smt_check.Violation
module Verify = Smt_verify.Verify
module Rules = Smt_verify.Rules

let m_runs = Metrics.counter "flow.runs"
let m_stages = Metrics.counter "flow.stages"
let m_check_violations = Metrics.counter "check.violations"
let m_check_repairs = Metrics.counter "check.repairs"
let m_lint_findings = Metrics.counter "lint.findings"
let m_lint_dedup = Metrics.counter "lint.dedup"

type technique = Dual_vth | Conventional_smt | Improved_smt

let technique_name = function
  | Dual_vth -> "Dual-Vth"
  | Conventional_smt -> "Con.-SMT"
  | Improved_smt -> "Imp.-SMT"

let technique_slug = function
  | Dual_vth -> "dual"
  | Conventional_smt -> "conventional"
  | Improved_smt -> "improved"

let technique_of_string = function
  | "dual" | "dual-vth" -> Ok Dual_vth
  | "conventional" | "con" -> Ok Conventional_smt
  | "improved" | "imp" -> Ok Improved_smt
  | s -> Error (Printf.sprintf "unknown technique %s (dual|conventional|improved)" s)

type guard = Guard_off | Guard_warn | Guard_repair | Guard_strict

let guard_name = function
  | Guard_off -> "off"
  | Guard_warn -> "warn"
  | Guard_repair -> "repair"
  | Guard_strict -> "strict"

let guard_of_string = function
  | "off" -> Ok Guard_off
  | "warn" -> Ok Guard_warn
  | "repair" -> Ok Guard_repair
  | "strict" -> Ok Guard_strict
  | s -> Error (Printf.sprintf "unknown guard mode %s (off|warn|repair|strict)" s)

type flow_error = {
  fe_stage : string;
  fe_circuit : string;
  fe_diagnostics : string list;
}

exception Flow_error of flow_error

let () =
  Printexc.register_printer (function
    | Flow_error e ->
      Some
        (Printf.sprintf "Flow_error at stage %S on %s: %s" e.fe_stage e.fe_circuit
           (String.concat "; " e.fe_diagnostics))
    | _ -> None)

type options = {
  seed : int;
  clock_margin : float;
  assignment_margin : float;
  utilization : float;
  placement_iterations : int;
  activity_cycles : int;
  cluster_params : Cluster.params option;
  minimize_holders : bool;
  gate_sizing : bool;
  retention_registers : bool;
  slew_aware : bool;
  reoptimize : bool;
  detour : float;
  mte_max_fanout : int option;
  cts_max_fanout : int;
  max_hold_iterations : int;
  guard : guard;
}

let default_options =
  {
    seed = 1;
    clock_margin = 0.30;
    assignment_margin = 0.05;
    utilization = 0.65;
    placement_iterations = 8;
    activity_cycles = 128;
    cluster_params = None;
    minimize_holders = true;
    gate_sizing = false;
    retention_registers = false;
    slew_aware = false;
    reoptimize = true;
    detour = 1.15;
    mte_max_fanout = None;
    cts_max_fanout = 8;
    max_hold_iterations = 10;
    guard = Guard_off;
  }

type stage = {
  stage_name : string;
  stage_area : float;
  stage_standby_nw : float;
  stage_wns : float;
  stage_worst_bounce : float;
  stage_switches : int;
  stage_holders : int;
  stage_ms : float;
  stage_prof : Smt_obs.Prof.stats option;
}

type report = {
  technique : technique;
  circuit : string;
  clock_period : float;
  area : float;
  standby_nw : float;
  leakage : Leakage.breakdown;
  wns : float;
  hold_slack : float;
  worst_bounce : float;
  bounce_violations : int;
  timing_met : bool;
  hold_met : bool;
  n_mt_cells : int;
  n_switches : int;
  n_clusters : int;
  n_holders : int;
  holders_avoided : int;
  n_mte_buffers : int;
  n_cts_buffers : int;
  n_hold_buffers : int;
  swapped_to_high_vth : int;
  cells_downsized : int;
  ffs_retained : int;
  reopt_resized : int;
  reopt_violations_repaired : int;
  mt_area_fraction : float;
  total_switch_width : float;
  stages : stage list;
  diagnostics : string list;
  check_violations : int;
  check_repairs : int;
}

(* The minimal clock period of the current netlist under the given wire
   model: run STA at a huge period and subtract the worst slack. *)
let endpoint_free_fallback_ps = 100.0

let probe_period = 1e6

let probe_config ~slew_aware ~wire = Sta.config ~wire ~slew_aware ~clock_period:probe_period ()

(* The period a probe analysis of [nl] implies. *)
let period_of_probe nl sta =
  let wns = Sta.wns sta in
  if wns = infinity then begin
    (* No endpoints: nothing constrains the clock.  The checker reports the
       same condition as a no-timing-endpoints warning. *)
    Log.warn "flow"
      (Printf.sprintf
         "netlist %s has no timing endpoints; minimal_period falls back to %.1f ps"
         (Netlist.design_name nl) endpoint_free_fallback_ps);
    endpoint_free_fallback_ps
  end
  else probe_period -. wns

let minimal_period ?(slew_aware = false) ~wire nl =
  period_of_probe nl (Sta.analyze (probe_config ~slew_aware ~wire) nl)

type artifacts = {
  art_place : Placement.t;
  art_cfg : Sta.config;
  art_sta : Sta.t;
  art_bounce : Bounce.cluster_report list;
  art_clusters : Cluster.cluster list;
  art_params : Cluster.params;
}

let run_with_artifacts ?(options = default_options) technique nl =
  Trace.with_span "Flow.run"
    ~args:[ ("technique", technique_name technique); ("circuit", Netlist.design_name nl) ]
  @@ fun () ->
  Metrics.incr m_runs;
  let lib = Netlist.lib nl in
  let tech = Library.tech lib in
  let params =
    match options.cluster_params with Some p -> p | None -> Cluster.default_params tech
  in
  let stages = ref [] in
  (* Each stage span runs from the previous snapshot to this one, so the
     snapshot's own closing STA is billed to the stage that required it. *)
  let mark = ref (Trace.now_us ()) in
  (* GC attribution follows the same mark discipline: each stage is charged
     the allocation between the previous snapshot and its own. *)
  let pmark = ref (Prof.mark ()) in
  let prev = ref None in
  let place =
    Placement.place ~seed:options.seed ~utilization:options.utilization
      ~iterations:options.placement_iterations nl
  in
  let est = Parasitics.estimate ~seed:(options.seed + 17) place in
  let wire_est = Parasitics.wire_model est nl in
  (* The flow's one timing session: the period probe's analysis, re-timed
     in place by every snapshot.  It is [None] only while a layer that
     times the netlist in a session of its own runs; the flow then takes
     that session over, so two full sessions are never live at once. *)
  let session = ref None in
  let timed cfg =
    match !session with
    | Some sta ->
      Sta.reanalyze sta cfg;
      sta
    | None ->
      let sta = Sta.analyze cfg nl in
      session := Some sta;
      sta
  in
  let handing_over layer sta_of =
    session := None;
    let r = layer () in
    session := Some (sta_of r);
    r
  in
  let min_period =
    period_of_probe nl (timed (probe_config ~slew_aware:options.slew_aware ~wire:wire_est))
  in
  let clock_period = min_period *. (1.0 +. options.clock_margin) in
  (* The Vth assignment works against a tighter period, reserving
     [clock_margin - assignment_margin] of slack for the MT conversion. *)
  let assign_period = min_period *. (1.0 +. options.assignment_margin) in
  let base_cfg = Sta.config ~wire:wire_est ~slew_aware:options.slew_aware ~clock_period () in
  let assign_cfg =
    Sta.config ~wire:wire_est ~slew_aware:options.slew_aware ~clock_period:assign_period ()
  in
  (* Per-instance output load under a wire model: drives the switching
     current used for footer sizing. *)
  let load_est = Sta.load_of_inst base_cfg nl in
  (* --- per-stage guard: validate, repair, or abort after each stage --- *)
  let diagnostics = ref [] in
  let check_violations = ref 0 in
  let check_repairs = ref 0 in
  let expect_buffered_mte = ref false in
  (* DRC violations and lint findings share one first-seen filter, so a
     finding that persists through later stages (e.g. a dangling net the
     flow never touches) is reported once, by the stage that exposed it. *)
  let seen = Hashtbl.create 97 in
  (* Incremental lint: the first Post_mt guard seeds a verifier session;
     later stages re-verify only the cone of nets the stage touched
     (tracked by the netlist's journal), which [Verify.update] proves
     equivalent to a from-scratch pass. *)
  let lint_session = ref None in
  let diag line =
    diagnostics := line :: !diagnostics;
    Log.warn "check" line
  in
  let fail stage lines =
    raise
      (Flow_error
         { fe_stage = stage; fe_circuit = Netlist.design_name nl; fe_diagnostics = lines })
  in
  (* Records each finding no earlier stage reported as a diagnostic and
     returns how many there were. *)
  let first_seen stage label ~key ~render findings =
    List.fold_left
      (fun n f ->
        let k = key f in
        if Hashtbl.mem seen k then n
        else begin
          Hashtbl.add seen k ();
          diag (stage ^ label ^ render f);
          n + 1
        end)
      0 findings
  in
  let strict_abort stage errors =
    if options.guard = Guard_strict && errors <> [] then fail stage errors
  in
  let guard_check stage =
    if options.guard <> Guard_off then begin
      (* The rules that apply follow from the netlist itself: Post_mt once
         it holds a sleep switch or a VGND-port MT-cell. *)
      let phase = Drc.infer_phase nl in
      let run_check () =
        Drc.check ~phase ~place ~expect_buffered_mte:!expect_buffered_mte nl
      in
      let vs = run_check () in
      let vs =
        if options.guard = Guard_repair && vs <> [] then begin
          let r = Repair.repair ~place nl vs in
          if r.Repair.repaired > 0 then begin
            check_repairs := !check_repairs + r.Repair.repaired;
            Metrics.incr m_check_repairs ~by:r.Repair.repaired;
            List.iter (fun a -> diag (stage ^ ": repaired: " ^ a)) r.Repair.actions;
            run_check ()
          end
          else vs
        end
        else vs
      in
      let fresh =
        first_seen stage ": " ~key:Violation.to_string ~render:Violation.to_string vs
      in
      check_violations := !check_violations + fresh;
      Metrics.incr m_check_violations ~by:fresh;
      strict_abort stage (List.map Violation.to_string (Violation.errors vs));
      (* Semantic standby verification rides the same guard: once the MT
         support structure exists, the design must also sleep correctly
         — structure first (above), values second, so a structurally
         broken netlist fails on the precise structural message. *)
      if phase = Drc.Post_mt then begin
        let sem =
          Trace.with_span "Flow.lint" ~args:[ ("stage", stage) ] (fun () ->
              match !lint_session with
              | None ->
                let s, r = Verify.start nl in
                lint_session := Some s;
                r.Verify.findings
              | Some s -> (Verify.update s).Verify.findings)
        in
        let fresh = first_seen stage ": lint: " ~key:Rules.key ~render:Rules.to_string sem in
        Metrics.incr m_lint_dedup ~by:(List.length sem - fresh);
        Metrics.incr m_lint_findings ~by:fresh;
        strict_abort stage (List.map Rules.to_string (Rules.errors sem))
      end
    end
  in
  let snapshot ?(cfg = base_cfg) ?(bounce = 0.0) name =
    let sta = timed cfg in
    let stats = Nl_stats.compute nl in
    let area = stats.Nl_stats.area_total in
    let standby = (Leakage.standby nl).Leakage.total in
    let wns = Sta.wns sta in
    let now = Trace.now_us () in
    let dur_us = now -. !mark in
    let pstats = Prof.record !pmark in
    pmark := Prof.mark ();
    let d_area, d_standby =
      match !prev with None -> (0.0, 0.0) | Some (a, s) -> (area -. a, standby -. s)
    in
    prev := Some (area, standby);
    Metrics.incr m_stages;
    (* With profiling on, the stage's GC delta rides its span as args. *)
    let gc_args =
      match pstats with
      | None -> []
      | Some p ->
        [
          ("minor_words", Printf.sprintf "%.0f" p.Prof.minor_words);
          ("major_words", Printf.sprintf "%.0f" p.Prof.major_words);
          ("minor_collections", string_of_int p.Prof.minor_collections);
          ("major_collections", string_of_int p.Prof.major_collections);
        ]
    in
    Trace.complete ~name ~ts_us:!mark ~dur_us
      ~args:
        ([
           ("area_um2", Printf.sprintf "%.1f" area);
           ("area_delta_um2", Printf.sprintf "%.1f" d_area);
           ("standby_nw", Printf.sprintf "%.1f" standby);
           ("standby_delta_nw", Printf.sprintf "%.1f" d_standby);
           ("wns_ps", Printf.sprintf "%.1f" wns);
           ("worst_bounce_v", Printf.sprintf "%.4f" bounce);
           ("switches", string_of_int stats.Nl_stats.sleep_switches);
           ("holders", string_of_int stats.Nl_stats.holders);
         ]
        @ gc_args)
      ();
    if Log.enabled Log.Debug then
      Log.debug "flow" ("stage: " ^ name)
        ~fields:
          [
            ("ms", Printf.sprintf "%.2f" (dur_us /. 1000.0));
            ("area", Printf.sprintf "%.1f" area);
            ("standby_nw", Printf.sprintf "%.1f" standby);
            ("wns", Printf.sprintf "%.1f" wns);
          ];
    mark := now;
    stages :=
      {
        stage_name = name;
        stage_area = area;
        stage_standby_nw = standby;
        stage_wns = wns;
        stage_worst_bounce = bounce;
        stage_switches = stats.Nl_stats.sleep_switches;
        stage_holders = stats.Nl_stats.holders;
        stage_ms = dur_us /. 1000.0;
        stage_prof = pstats;
      }
      :: !stages;
    guard_check name
  in
  snapshot "physical-synthesis (all low-Vth)";
  (* Stage: Dual-Vth-style replacement (all techniques). *)
  let swapped =
    (handing_over
       (fun () -> Vth_assign.assign assign_cfg nl)
       (fun r -> r.Vth_assign.sta))
      .Vth_assign.swapped
  in
  snapshot "high-Vth replacement";
  let downsized =
    if options.gate_sizing then begin
      let r =
        handing_over
          (fun () -> Gate_sizing.downsize_idle assign_cfg nl)
          (fun r -> r.Gate_sizing.sta)
      in
      snapshot "gate sizing (drive-strength recovery)";
      r.Gate_sizing.resized
    end
    else 0
  in
  let retained =
    if options.retention_registers then begin
      let r =
        handing_over (fun () -> Retention.convert assign_cfg nl) (fun r -> r.Retention.sta)
      in
      snapshot "retention-register conversion";
      r.Retention.converted
    end
    else 0
  in
  (* Technique-specific MT construction. *)
  let clusters = ref [] in
  let holders_avoided = ref 0 in
  let activity = ref None in
  (* Each switch's VGND length, read off the placement.  Placement has no
     journal, but after clustering no switch and no member moves and no
     member changes switch unless a guard repair does it, so the lengths
     taken after clustering stay valid while [check_repairs] is
     unchanged. *)
  let lengths = ref None in
  let vgnd_lengths () =
    match !lengths with
    | Some (repairs, f) when repairs = !check_repairs -> f
    | Some _ | None ->
      let f = Cluster.vgnd_lengths place in
      lengths := Some (!check_repairs, f);
      f
  in
  let construct_mt () =
    match technique with
    | Dual_vth -> ()
    | Conventional_smt ->
      ignore (Mt_replace.replace Mt_replace.Conventional nl);
      Switch_insert.connect_embedded_mte nl (Switch_insert.mte_net_of nl);
      snapshot "MT-cell replacement (embedded)"
    | Improved_smt ->
      let n_mt = Mt_replace.replace Mt_replace.Improved nl in
      snapshot "MT-cell replacement (no VGND port)";
      if n_mt > 0 then begin
        let ins = Switch_insert.insert ~minimize_holders:options.minimize_holders place in
        holders_avoided := ins.Switch_insert.holders_avoided;
        let bounce0 =
          let wire_length_of = Cluster.vgnd_lengths place in
          Bounce.worst (Bounce.analyze ~load_of:load_est nl ~wire_length_of)
        in
        snapshot ~bounce:bounce0 "switch & holder insertion (initial structure)";
        let act =
          Activity.estimate ~cycles:options.activity_cycles ~seed:options.seed nl
        in
        activity := Some act;
        let built =
          Cluster.build ~activity:act ~load_of:load_est ~params place
            ~mte_net:ins.Switch_insert.mte_net
        in
        clusters := built.Cluster.clusters;
        let bounce1 =
          Bounce.worst
            (Bounce.analyze ~activity:act ~load_of:load_est nl
               ~wire_length_of:(vgnd_lengths ()))
        in
        snapshot ~bounce:bounce1 "switch structure construction (clustering & sizing)"
      end
  in
  (* Under any guard, a failure inside MT construction aborts the run at
     stage "MT construction" rather than ship a half-built structure. *)
  (try construct_mt () with
  | Flow_error _ as e -> raise e
  | exn when options.guard <> Guard_off -> fail "MT construction" [ Printexc.to_string exn ]);
  (* Routing stage: CTS, then MTE buffering, then extraction. *)
  let cts = Cts.synthesize ~max_fanout:options.cts_max_fanout place in
  let mte_buffers =
    match technique with
    | Dual_vth -> 0
    | Conventional_smt | Improved_smt -> (
      match Smt_check.Walk.find_mte_net nl with
      | Some mte ->
        let r = Mte.buffer_tree ?max_fanout:options.mte_max_fanout place ~mte_net:mte in
        r.Mte.buffers
      | None -> 0)
  in
  expect_buffered_mte := true;
  let ext = Parasitics.extract ~detour:options.detour place in
  let wire_ext = Parasitics.wire_model ext nl in
  let ext_cfg = Sta.config ~wire:wire_ext ~slew_aware:options.slew_aware ~clock_period () in
  let load_ext = Sta.load_of_inst ext_cfg nl in
  (* The reports the last snapshot priced, with the netlist version and
     repair count they were priced at: while neither moves, pricing again
     gives the same reports. *)
  let last_reports = ref None in
  let bounce_reports () =
    match !last_reports with
    | Some (version, repairs, reports)
      when version = Netlist.version nl && repairs = !check_repairs ->
      reports
    | Some _ | None ->
      let lengths = vgnd_lengths () in
      let reports =
        Bounce.analyze ?activity:!activity ~load_of:load_ext
          ~limit:params.Cluster.bounce_limit nl
          ~wire_length_of:(fun sw -> lengths sw *. options.detour)
      in
      last_reports := Some (Netlist.version nl, !check_repairs, reports);
      reports
  in
  let post_route_cfg bounce_fn =
    {
      (Sta.config ~wire:wire_ext ~slew_aware:options.slew_aware ~clock_period ()) with
      Sta.bounce_of = bounce_fn;
      Sta.clock_latency = Cts.latency_fn cts;
      Sta.hold_margin = tech.Tech.hold_margin;
    }
  in
  let bounce_fn_of reports = Bounce.bounce_of_fn reports nl in
  let reports0 = bounce_reports () in
  snapshot
    ~cfg:(post_route_cfg (bounce_fn_of reports0))
    ~bounce:(Bounce.worst reports0) "routing (CTS, MTE buffering, extraction)";
  (* Post-route re-optimization of the switch structure. *)
  let reopt_stats = ref None in
  (match technique with
  | Improved_smt when options.reoptimize && !clusters <> [] ->
    let r =
      Reopt.reoptimize ?activity:!activity ~load_of:load_ext ~lengths:(vgnd_lengths ())
        ~params ~detour:options.detour place
    in
    reopt_stats := Some r;
    let reports = bounce_reports () in
    snapshot
      ~cfg:(post_route_cfg (bounce_fn_of reports))
      ~bounce:(Bounce.worst reports) "post-route switch re-optimization"
  | Improved_smt | Dual_vth | Conventional_smt -> ());
  (* ECO: fix hold violations; final timing. *)
  let final_reports = bounce_reports () in
  let final_cfg = post_route_cfg (bounce_fn_of final_reports) in
  let eco =
    handing_over
      (fun () -> Eco.fix_hold ~max_iterations:options.max_hold_iterations final_cfg place)
      (fun r -> r.Eco.sta)
  in
  let final_sta = timed final_cfg in
  snapshot ~cfg:final_cfg ~bounce:(Bounce.worst final_reports) "ECO & timing analysis";
  let stats = Nl_stats.compute nl in
  let leakage = Leakage.standby nl in
  ( {
    technique;
    circuit = Netlist.design_name nl;
    clock_period;
    area = stats.Nl_stats.area_total;
    standby_nw = leakage.Leakage.total;
    leakage;
    wns = Sta.wns final_sta;
    hold_slack = Sta.worst_hold_slack final_sta;
    worst_bounce = Bounce.worst final_reports;
    bounce_violations = Bounce.violations final_reports;
    timing_met = Sta.meets_timing final_sta;
    hold_met = Sta.meets_hold final_sta;
    n_mt_cells = stats.Nl_stats.count_mt;
    n_switches = stats.Nl_stats.sleep_switches;
    n_clusters = List.length !clusters;
    n_holders = stats.Nl_stats.holders;
    holders_avoided = !holders_avoided;
    n_mte_buffers = mte_buffers;
    n_cts_buffers = Cts.buffer_count cts;
    n_hold_buffers = eco.Eco.buffers_added;
    swapped_to_high_vth = swapped;
    cells_downsized = downsized;
    ffs_retained = retained;
    reopt_resized = (match !reopt_stats with Some r -> r.Reopt.resized | None -> 0);
    reopt_violations_repaired =
      (match !reopt_stats with
      | Some r -> max 0 (r.Reopt.violations_before - r.Reopt.violations_after)
      | None -> 0);
    mt_area_fraction = Nl_stats.mt_area_fraction stats;
    total_switch_width = stats.Nl_stats.total_switch_width;
    stages = List.rev !stages;
    diagnostics = List.rev !diagnostics;
    check_violations = !check_violations;
    check_repairs = !check_repairs;
  },
    {
      art_place = place;
      art_cfg = final_cfg;
      art_sta = final_sta;
      art_bounce = final_reports;
      art_clusters = !clusters;
      art_params = params;
    } )

let run ?options technique nl = fst (run_with_artifacts ?options technique nl)

let run_all ?options ?(jobs = 1) fresh =
  Par.map ~jobs
    (fun technique -> run ?options technique (fresh ()))
    [ Dual_vth; Conventional_smt; Improved_smt ]

let pp_report fmt r =
  Format.fprintf fmt
    "%s on %s: area=%.1f um^2, standby=%.1f nW, wns=%.1f ps (met=%b), hold=%.1f ps \
     (met=%b), bounce=%.3f V (viol=%d), mt=%d sw=%d holders=%d(+%d avoided) mte_buf=%d \
     cts_buf=%d eco_buf=%d hv_swaps=%d reopt_resized=%d reopt_viol_fixed=%d mt_frac=%.2f"
    (technique_name r.technique) r.circuit r.area r.standby_nw r.wns r.timing_met
    r.hold_slack r.hold_met r.worst_bounce r.bounce_violations r.n_mt_cells r.n_switches
    r.n_holders r.holders_avoided r.n_mte_buffers r.n_cts_buffers r.n_hold_buffers
    r.swapped_to_high_vth r.reopt_resized r.reopt_violations_repaired r.mt_area_fraction;
  if r.cells_downsized > 0 || r.ffs_retained > 0 then
    Format.fprintf fmt " downsized=%d retained=%d" r.cells_downsized r.ffs_retained;
  if r.check_violations > 0 || r.check_repairs > 0 then
    Format.fprintf fmt " check_viol=%d check_repairs=%d" r.check_violations
      r.check_repairs
