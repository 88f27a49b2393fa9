(* Checker, repair pass, fault-injection coverage, and flow guard modes. *)

module Netlist = Smt_netlist.Netlist
module Clone = Smt_netlist.Clone
module Placement = Smt_place.Placement
module Sta = Smt_sta.Sta
module Library = Smt_cell.Library
module Func = Smt_cell.Func
module Vth = Smt_cell.Vth
module Cell = Smt_cell.Cell
module Generators = Smt_circuits.Generators
module Drc = Smt_check.Drc
module Repair = Smt_check.Repair
module Violation = Smt_check.Violation
module Fault = Smt_fault.Fault
module Flow = Smt_core.Flow
module Verify = Smt_verify.Verify
module Rules = Smt_verify.Rules

let lib = Library.default ()
let lv k = Library.variant lib k Vth.Low Vth.Plain

(* A healthy post-MT netlist: Vth assignment, improved MT replacement,
   switch & holder insertion — the state the Post_mt rules govern. *)
let mt_netlist ?(bits = 5) ~seed () =
  let nl = Generators.multiplier ~name:(Printf.sprintf "chk%d" seed) ~bits lib in
  let probe = 1e6 in
  let sta = Sta.analyze (Sta.config ~clock_period:probe ()) nl in
  let period = (probe -. Sta.wns sta) *. 1.05 in
  ignore (Smt_core.Vth_assign.assign (Sta.config ~clock_period:period ()) nl);
  ignore (Smt_core.Mt_replace.replace Smt_core.Mt_replace.Improved nl);
  let place = Placement.place ~seed nl in
  ignore (Smt_core.Switch_insert.insert place);
  (nl, place)

let error_strings vs = List.map Violation.to_string (Violation.errors vs)

let check_clean ?place nl =
  Alcotest.(check (list string))
    "no error violations" []
    (error_strings (Drc.check ?place ~expect_buffered_mte:false nl))

(* --- checker on hand-built pathologies --- *)

let test_clean_netlist_passes () =
  let nl, place = mt_netlist ~seed:3 () in
  check_clean ~place nl

let test_undriven_net_detected () =
  let nl = Netlist.create ~name:"t" ~lib () in
  let a = Netlist.add_input nl "a" in
  let z = Netlist.add_output nl "z" in
  let w = Netlist.add_net nl "w" in
  ignore (Netlist.add_inst nl ~name:"g1" (lv Func.Nand2) [ ("A", a); ("B", w); ("Z", z) ]);
  let vs = Drc.check nl in
  Alcotest.(check bool) "undriven-net reported" true
    (List.exists (fun v -> v.Violation.code = Violation.Undriven_net) vs);
  Alcotest.(check bool) "it is an error" true (Drc.has_errors vs)

let test_comb_loop_detected () =
  let nl = Netlist.create ~name:"t" ~lib () in
  let a = Netlist.add_net nl "a" in
  let b = Netlist.add_net nl "b" in
  ignore (Netlist.add_inst nl ~name:"i1" (lv Func.Inv) [ ("A", a); ("Z", b) ]);
  ignore (Netlist.add_inst nl ~name:"i2" (lv Func.Inv) [ ("A", b); ("Z", a) ]);
  let vs = Drc.check nl in
  Alcotest.(check bool) "comb-loop reported" true
    (List.exists (fun v -> v.Violation.code = Violation.Comb_loop) vs)

let test_floating_input_detected () =
  let nl = Netlist.create ~name:"t" ~lib () in
  let a = Netlist.add_input nl "a" in
  let z = Netlist.add_output nl "z" in
  let g = Netlist.add_inst nl ~name:"g1" (lv Func.Nand2) [ ("A", a); ("B", a); ("Z", z) ] in
  Netlist.disconnect nl g "B";
  let vs = Drc.check nl in
  Alcotest.(check bool) "floating-input reported" true
    (List.exists
       (fun v -> v.Violation.code = Violation.Floating_input && v.Violation.severity = Violation.Error)
       vs)

let test_no_timing_endpoints_warned () =
  let nl = Netlist.create ~name:"t" ~lib () in
  let a = Netlist.add_input nl "a" in
  let w = Netlist.add_net nl "w" in
  ignore (Netlist.add_inst nl ~name:"i1" (lv Func.Inv) [ ("A", a); ("Z", w) ]);
  let vs = Drc.check nl in
  Alcotest.(check bool) "no-timing-endpoints warned" true
    (List.exists (fun v -> v.Violation.code = Violation.No_timing_endpoints) vs);
  Alcotest.(check bool) "only a warning" false (Drc.has_errors vs)

let test_minimal_period_fallback () =
  (* No primary outputs, no flip-flops: STA has no endpoints and
     minimal_period reports its documented fallback. *)
  let nl = Netlist.create ~name:"t" ~lib () in
  let a = Netlist.add_input nl "a" in
  let w = Netlist.add_net nl "w" in
  ignore (Netlist.add_inst nl ~name:"i1" (lv Func.Inv) [ ("A", a); ("Z", w) ]);
  let place = Placement.place ~seed:1 nl in
  let wire = Smt_route.Parasitics.wire_model (Smt_route.Parasitics.estimate place) nl in
  Alcotest.(check (float 1e-9))
    "fallback period" Flow.endpoint_free_fallback_ps
    (Flow.minimal_period ~wire nl)

let test_check_library_flags_poison () =
  Alcotest.(check (list string)) "default library sane" [] (error_strings (Drc.check_library lib))

(* --- fault-injection coverage: every class maps to its expected codes
   (structural DRC) or expected rules (semantic standby pass) --- *)

let codes_of ?place nl =
  List.map (fun v -> v.Violation.code) (Drc.check ?place ~expect_buffered_mte:false nl)

(* Domain-only classes need declared domains and isolation clamps, which
   the flow-built multiplier doesn't have; they get the multi-domain SoC. *)
let fixture_for fault ~seed =
  if Fault.requires_domains fault then
    (Smt_circuits.Suite.multi_domain ~name:(Printf.sprintf "chkd%d" seed) lib, None)
  else
    let nl, place = mt_netlist ~seed () in
    (nl, Some place)

let rule_ids_of nl =
  List.map (fun f -> f.Rules.rule.Rules.id) (Verify.analyze nl).Verify.findings

let test_fault_coverage () =
  List.iter
    (fun fault ->
      (* No fault class may fall between the two checkers. *)
      Alcotest.(check bool)
        (Fault.name fault ^ " has a detection mapping")
        true
        (Fault.expected_codes fault <> [] || Fault.expected_rules fault <> []);
      List.iter
        (fun seed ->
          let nl, place = fixture_for fault ~seed in
          match Fault.inject ~seed nl fault with
          | None ->
            Alcotest.fail
              (Printf.sprintf "fault %s: no applicable site (seed %d)" (Fault.name fault)
                 seed)
          | Some _ ->
            (match Fault.expected_codes fault with
            | [] ->
              (* Semantic-only class: the structural checker must stay
                 blind, or the class belongs in expected_codes. *)
              Alcotest.(check (list string))
                (Printf.sprintf "%s: DRC blind (seed %d)" (Fault.name fault) seed)
                []
                (error_strings (Drc.check ?place ~expect_buffered_mte:false nl))
            | expected ->
              let codes = codes_of ?place nl in
              Alcotest.(check bool)
                (Printf.sprintf "%s DRC-detected (seed %d)" (Fault.name fault) seed)
                true
                (List.exists (fun c -> List.mem c codes) expected));
            match Fault.expected_rules fault with
            | [] -> ()
            | expected ->
              let rules = rule_ids_of nl in
              Alcotest.(check bool)
                (Printf.sprintf "%s lint-detected (seed %d)" (Fault.name fault) seed)
                true
                (List.exists (fun r -> List.mem r rules) expected))
        [ 1; 2; 3 ])
    Fault.all

let test_undetected_without_fault () =
  (* The detection mapping is meaningful only if the codes and rules are
     absent before injection. *)
  List.iter
    (fun fault ->
      let nl, place = fixture_for fault ~seed:7 in
      let codes = codes_of ?place nl in
      let rules = rule_ids_of nl in
      Alcotest.(check bool)
        (Printf.sprintf "%s codes absent pre-injection" (Fault.name fault))
        false
        (List.exists (fun c -> List.mem c codes) (Fault.expected_codes fault));
      Alcotest.(check bool)
        (Printf.sprintf "%s rules absent pre-injection" (Fault.name fault))
        false
        (List.exists (fun r -> List.mem r rules) (Fault.expected_rules fault)))
    Fault.all

let test_repair_restores_clean () =
  List.iter
    (fun fault ->
      if Fault.repairable fault then
        List.iter
          (fun seed ->
            let nl, place = mt_netlist ~seed () in
            match Fault.inject ~seed nl fault with
            | None -> Alcotest.fail (Fault.name fault ^ ": no applicable site")
            | Some _ ->
              let vs = Drc.check ~place ~expect_buffered_mte:false nl in
              let r = Repair.repair ~place nl vs in
              Alcotest.(check bool)
                (Printf.sprintf "%s: repair acted (seed %d)" (Fault.name fault) seed)
                true (r.Repair.repaired > 0);
              Alcotest.(check (list string))
                (Printf.sprintf "%s: clean after repair (seed %d)" (Fault.name fault) seed)
                []
                (error_strings (Drc.check ~place ~expect_buffered_mte:false nl)))
          [ 1; 2 ])
    Fault.all

let test_repair_idempotent () =
  List.iter
    (fun fault ->
      if Fault.repairable fault then begin
        let nl, place = mt_netlist ~seed:5 () in
        (match Fault.inject ~seed:5 nl fault with
        | None -> Alcotest.fail (Fault.name fault ^ ": no applicable site")
        | Some _ -> ());
        let vs = Drc.check ~place ~expect_buffered_mte:false nl in
        ignore (Repair.repair ~place nl vs);
        let vs2 = Drc.check ~place ~expect_buffered_mte:false nl in
        let r2 = Repair.repair ~place nl vs2 in
        Alcotest.(check int)
          (Fault.name fault ^ ": second repair is a no-op")
          0 r2.Repair.repaired
      end)
    Fault.all

(* --- flow guard modes --- *)

let fast_options = { Flow.default_options with Flow.activity_cycles = 32 }
let gen () = Generators.multiplier ~name:"gchk" ~bits:5 lib

let strip_timing (r : Flow.report) =
  (* stage wall-clock times differ run to run; everything else must not *)
  { r with Flow.stages = List.map (fun s -> { s with Flow.stage_ms = 0.0 }) r.Flow.stages }

let test_guard_warn_identical_results () =
  let off = Flow.run ~options:fast_options Flow.Improved_smt (gen ()) in
  let warn =
    Flow.run
      ~options:{ fast_options with Flow.guard = Flow.Guard_warn }
      Flow.Improved_smt (gen ())
  in
  Alcotest.(check bool) "warn leaves results unchanged" true
    (strip_timing off
    = strip_timing { warn with Flow.diagnostics = []; Flow.check_violations = 0 });
  Alcotest.(check int) "no repairs in warn mode" 0 warn.Flow.check_repairs

let test_guard_strict_clean_circuit () =
  let r =
    Flow.run
      ~options:{ fast_options with Flow.guard = Flow.Guard_strict }
      Flow.Improved_smt (gen ())
  in
  Alcotest.(check bool) "strict flow completes on a healthy circuit" true
    (r.Flow.n_switches > 0)

let poisoned () =
  let nl = gen () in
  (* NaN leakage on one logic cell: caught at the very first snapshot *)
  (match
     List.find_opt
       (fun iid ->
         let k = (Netlist.cell nl iid).Cell.kind in
         (not (Func.is_infrastructure k)) && not (Func.is_sequential k))
       (Netlist.live_insts nl)
   with
  | Some iid ->
    let c = Netlist.cell nl iid in
    Netlist.replace_cell nl iid { c with Cell.leak_standby = Float.nan }
  | None -> Alcotest.fail "no logic instance to poison");
  nl

let test_guard_strict_rejects_poison () =
  Alcotest.(check bool) "strict raises Flow_error" true
    (try
       ignore
         (Flow.run
            ~options:{ fast_options with Flow.guard = Flow.Guard_strict }
            Flow.Dual_vth (poisoned ()));
       false
     with Flow.Flow_error e -> e.Flow.fe_diagnostics <> []);
  (* run_all isolates nothing: the sweep re-raises the first failure *)
  Alcotest.(check bool) "run_all re-raises it" true
    (match
       Flow.run_all ~options:{ fast_options with Flow.guard = Flow.Guard_strict } poisoned
     with
    | _ -> false
    | exception Flow.Flow_error e -> e.Flow.fe_diagnostics <> [])

let test_guard_repair_fixes_poison () =
  let r =
    Flow.run
      ~options:{ fast_options with Flow.guard = Flow.Guard_repair }
      Flow.Dual_vth (poisoned ())
  in
  Alcotest.(check bool) "repair acted" true (r.Flow.check_repairs > 0);
  Alcotest.(check bool) "leakage finite again" true (Float.is_finite r.Flow.standby_nw)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The guard observes: on every suite circuit, including the
   multi-domain SoCs that hold sleep switches before the flow starts,
   each guard mode reproduces the unguarded report and finds no error. *)
let test_guard_matches_off_on_suite () =
  let run guard technique g =
    Flow.run ~options:{ fast_options with Flow.guard } technique (g lib)
  in
  let plain (r : Flow.report) =
    strip_timing
      { r with Flow.diagnostics = []; Flow.check_violations = 0; Flow.check_repairs = 0 }
  in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun technique ->
          let off = plain (run Flow.Guard_off technique g) in
          List.iter
            (fun guard ->
              let what =
                Printf.sprintf "%s/%s/%s" name (Flow.technique_name technique)
                  (Flow.guard_name guard)
              in
              let r = run guard technique g in
              Alcotest.(check bool) (what ^ " matches guard off") true (plain r = off);
              Alcotest.(check (list string))
                (what ^ " has no error diagnostic") []
                (List.filter (fun d -> contains d ": error ") r.Flow.diagnostics))
            [ Flow.Guard_warn; Flow.Guard_repair; Flow.Guard_strict ])
        [ Flow.Dual_vth; Flow.Conventional_smt; Flow.Improved_smt ])
    Smt_circuits.Suite.all

(* A cluster constraint no cell can meet fails MT construction: under any
   guard that is a Flow_error at that stage, never a half-built product;
   with the guard off the raw exception propagates. *)
let test_mt_construction_failure_aborts () =
  let params = Smt_core.Cluster.default_params (Library.tech lib) in
  let options guard =
    {
      fast_options with
      Flow.guard;
      Flow.cluster_params = Some { params with Smt_core.Cluster.cell_limit = 0 };
    }
  in
  List.iter
    (fun guard ->
      match Flow.run ~options:(options guard) Flow.Improved_smt (gen ()) with
      | _ -> Alcotest.fail (Flow.guard_name guard ^ ": flow completed")
      | exception Flow.Flow_error e ->
        Alcotest.(check string)
          (Flow.guard_name guard ^ ": stage") "MT construction" e.Flow.fe_stage)
    [ Flow.Guard_warn; Flow.Guard_repair; Flow.Guard_strict ];
  Alcotest.(check bool) "off: raw Invalid_argument" true
    (match Flow.run ~options:(options Flow.Guard_off) Flow.Improved_smt (gen ()) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "smt_check"
    [
      ( "drc",
        [
          Alcotest.test_case "clean post-MT netlist passes" `Quick test_clean_netlist_passes;
          Alcotest.test_case "undriven net" `Quick test_undriven_net_detected;
          Alcotest.test_case "combinational loop" `Quick test_comb_loop_detected;
          Alcotest.test_case "floating input" `Quick test_floating_input_detected;
          Alcotest.test_case "no timing endpoints" `Quick test_no_timing_endpoints_warned;
          Alcotest.test_case "minimal_period fallback" `Quick test_minimal_period_fallback;
          Alcotest.test_case "library data sane" `Quick test_check_library_flags_poison;
        ] );
      ( "faults",
        [
          Alcotest.test_case "every class detected" `Quick test_fault_coverage;
          Alcotest.test_case "codes absent pre-injection" `Quick test_undetected_without_fault;
          Alcotest.test_case "repair restores clean" `Quick test_repair_restores_clean;
          Alcotest.test_case "repair idempotent" `Quick test_repair_idempotent;
        ] );
      ( "guard",
        [
          Alcotest.test_case "warn leaves results unchanged" `Quick
            test_guard_warn_identical_results;
          Alcotest.test_case "strict passes healthy circuit" `Quick
            test_guard_strict_clean_circuit;
          Alcotest.test_case "strict rejects poisoned library" `Quick
            test_guard_strict_rejects_poison;
          Alcotest.test_case "repair fixes poisoned library" `Quick
            test_guard_repair_fixes_poison;
          Alcotest.test_case "every mode matches off on the suite" `Slow
            test_guard_matches_off_on_suite;
          Alcotest.test_case "MT construction failure aborts" `Quick
            test_mt_construction_failure_aborts;
        ] );
    ]
