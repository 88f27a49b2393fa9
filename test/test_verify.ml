(* The semantic standby verifier: lattice algebra, abstract transfer,
   waiver files, rule findings on hand-built pathologies, determinism,
   and the SARIF export. *)

module Netlist = Smt_netlist.Netlist
module Library = Smt_cell.Library
module Func = Smt_cell.Func
module Vth = Smt_cell.Vth
module Cell = Smt_cell.Cell
module Generators = Smt_circuits.Generators
module Suite = Smt_circuits.Suite
module Flow = Smt_core.Flow
module L = Smt_verify.Lattice
module Rules = Smt_verify.Rules
module Waiver = Smt_verify.Waiver
module Verify = Smt_verify.Verify
module Sarif = Smt_verify.Sarif
module J = Smt_obs.Obs_json

let lib = Library.default ()
let lv k = Library.variant lib k Vth.Low Vth.Plain
let mt k = Library.restyle lib (lv k) Vth.Low Vth.Mt_vgnd

let vv = Alcotest.testable (Fmt.of_to_string L.to_string) L.equal
let all_values = [ L.Zero; L.One; L.Held; L.Float; L.Top ]

(* --- lattice algebra --- *)

let test_join_algebra () =
  List.iter
    (fun a ->
      Alcotest.check vv "idempotent" a (L.join a a);
      Alcotest.check vv "top absorbs" L.Top (L.join a L.Top);
      List.iter
        (fun b ->
          Alcotest.check vv "commutative" (L.join a b) (L.join b a);
          Alcotest.(check bool) "a <= join a b" true (L.leq a (L.join a b));
          List.iter
            (fun c ->
              Alcotest.check vv "associative"
                (L.join a (L.join b c))
                (L.join (L.join a b) c))
            all_values)
        all_values)
    all_values

let test_join_cases () =
  Alcotest.check vv "0 v 1 = held" L.Held (L.join L.Zero L.One);
  Alcotest.check vv "0 v held = held" L.Held (L.join L.Zero L.Held);
  Alcotest.check vv "float v 1 = top" L.Top (L.join L.Float L.One);
  Alcotest.check vv "float v held = top" L.Top (L.join L.Float L.Held);
  Alcotest.check vv "float v float = float" L.Float (L.join L.Float L.Float)

let test_order () =
  Alcotest.(check bool) "0 <= held" true (L.leq L.Zero L.Held);
  Alcotest.(check bool) "1 <= held" true (L.leq L.One L.Held);
  Alcotest.(check bool) "held <= top" true (L.leq L.Held L.Top);
  Alcotest.(check bool) "float <= top" true (L.leq L.Float L.Top);
  Alcotest.(check bool) "float not <= held" false (L.leq L.Float L.Held);
  Alcotest.(check bool) "0 not <= 1" false (L.leq L.Zero L.One);
  List.iter
    (fun v ->
      Alcotest.(check bool) "defined xor may_float below top" true
        (v = L.Top || L.is_defined v <> L.may_float v))
    all_values

let test_transfer () =
  (* any possibly-floating input contaminates, even a controlling 0 *)
  Alcotest.check vv "nand(float,0) = top" L.Top (L.eval Func.Nand2 [| L.Float; L.Zero |]);
  Alcotest.check vv "inv(top) = top" L.Top (L.eval Func.Inv [| L.Top |]);
  (* otherwise exact three-valued evaluation with held as X *)
  Alcotest.check vv "nand(0,held) = 1" L.One (L.eval Func.Nand2 [| L.Zero; L.Held |]);
  Alcotest.check vv "nand(1,held) = held" L.Held (L.eval Func.Nand2 [| L.One; L.Held |]);
  Alcotest.check vv "and(0,held) = 0" L.Zero (L.eval Func.And2 [| L.Zero; L.Held |]);
  Alcotest.check vv "inv(0) = 1" L.One (L.eval Func.Inv [| L.Zero |]);
  Alcotest.check vv "inv(held) = held" L.Held (L.eval Func.Inv [| L.Held |])

let test_transfer_monotone () =
  (* brute-force monotonicity of a two-input transfer *)
  List.iter
    (fun a ->
      List.iter
        (fun a' ->
          if L.leq a a' then
            List.iter
              (fun b ->
                Alcotest.(check bool)
                  (Printf.sprintf "nand monotone %s<=%s at %s" (L.to_string a)
                     (L.to_string a') (L.to_string b))
                  true
                  (L.leq (L.eval Func.Nand2 [| a; b |]) (L.eval Func.Nand2 [| a'; b |])))
              all_values)
        all_values)
    all_values

let test_logic_bridge () =
  List.iter
    (fun v ->
      match L.to_logic v with
      | Some x -> Alcotest.check vv "roundtrip" v (L.of_logic x)
      | None -> Alcotest.(check bool) "only hazards drop out" true (L.may_float v))
    all_values

(* --- waiver files --- *)

let test_waiver_parse () =
  let src = "# comment\n\nuseless-holder net:dp_*\n* inst:sw_1\n" in
  match Waiver.parse src with
  | Error e -> Alcotest.fail e
  | Ok entries ->
    Alcotest.(check int) "two entries" 2 (List.length entries);
    let e1 = List.nth entries 0 in
    Alcotest.(check string) "rule" "useless-holder" e1.Waiver.w_rule;
    Alcotest.(check string) "glob" "net:dp_*" e1.Waiver.w_loc;
    Alcotest.(check int) "line number" 3 e1.Waiver.w_line

let test_waiver_rejects_unknown_rule () =
  match Waiver.parse "needs-coffee *\n" with
  | Ok _ -> Alcotest.fail "typo'd rule id accepted"
  | Error e ->
    Alcotest.(check bool) "names the line" true
      (String.length e > 0 && String.index_opt e '1' <> None)

let test_waiver_rejects_malformed () =
  match Waiver.parse "useless-holder\n" with
  | Ok _ -> Alcotest.fail "entry without a location accepted"
  | Error _ -> ()

let test_glob () =
  let m p s = Waiver.glob_match ~pattern:p s in
  Alcotest.(check bool) "star matches all" true (m "*" "net:anything");
  Alcotest.(check bool) "anchored prefix" true (m "net:dp_*" "net:dp_7");
  Alcotest.(check bool) "anchored, not substring" false (m "net:dp_*" "xnet:dp_7");
  Alcotest.(check bool) "suffix required" false (m "net:*_q" "net:a_q2");
  Alcotest.(check bool) "backtracking" true (m "a*b*c" "aXbYbZc");
  Alcotest.(check bool) "exact" true (m "inst:sw_1" "inst:sw_1");
  Alcotest.(check bool) "empty star run" true (m "a*b" "ab")

let finding rule loc =
  { Rules.rule; loc; mode = ""; message = "m"; witness = [] }

let test_waiver_apply () =
  let w =
    match Waiver.parse "useless-holder net:a*\n* net:b\n* net:a1\n" with
    | Ok w -> w
    | Error e -> Alcotest.fail e
  in
  let f1 = finding Rules.useless_holder "net:a1" in
  let f2 = finding Rules.useless_holder "net:b" in
  let f3 = finding Rules.float_into_awake "net:b" in
  let f4 = finding Rules.float_into_awake "net:c" in
  let kept, waived = Waiver.apply w [ f1; f2; f3; f4 ] in
  Alcotest.(check (list string)) "kept"
    [ "net:c" ]
    (List.map (fun f -> f.Rules.loc) kept);
  Alcotest.(check (list string)) "waived in order"
    [ "net:a1"; "net:b"; "net:b" ]
    (List.map (fun (f, _) -> f.Rules.loc) waived);
  (* f1 matches entry 1 (rule + glob) and entry 3 (wildcard): the first
     matching entry is the one recorded *)
  let _, e1 = List.hd waived in
  Alcotest.(check int) "first entry wins" 1 e1.Waiver.w_line;
  (* f2 matches only the wildcard on line 2 *)
  let _, e2 = List.nth waived 1 in
  Alcotest.(check int) "rule mismatch falls through" 2 e2.Waiver.w_line

(* --- hand-built pathologies, one per rule --- *)

let rule_ids r = List.map (fun f -> f.Rules.rule.Rules.id) r.Verify.findings

let base () =
  let nl = Netlist.create ~name:"lintcase" ~lib () in
  let mte = Netlist.add_input nl "MTE" in
  let a = Netlist.add_input nl "a" in
  (nl, mte, a)

let gated_mt nl mte a ~out =
  let sw = Netlist.add_inst nl ~name:"sw0" (Library.switch lib ~width:8.0) [ ("MTE", mte) ] in
  let g = Netlist.add_inst nl ~name:"g0" (mt Func.Nand2) [ ("A", a); ("B", a); ("Z", out) ] in
  Netlist.set_vgnd_switch nl g (Some sw);
  sw

let test_float_into_awake () =
  let nl, mte, a = base () in
  let w = Netlist.add_net nl "w" in
  let z = Netlist.add_output nl "z" in
  ignore (gated_mt nl mte a ~out:w);
  ignore (Netlist.add_inst nl ~name:"r0" (lv Func.Inv) [ ("A", w); ("Z", z) ]);
  let r = Verify.analyze nl in
  Alcotest.check vv "w floats" L.Float (Option.get (Verify.value_of r "w"));
  let floats =
    List.filter (fun f -> f.Rules.rule.Rules.id = Rules.float_into_awake.Rules.id) r.Verify.findings
  in
  (match floats with
  | [ f ] ->
    Alcotest.(check string) "at the floating net" "net:w" f.Rules.loc;
    Alcotest.(check bool) "witness starts at the cut cell" true
      (List.exists (fun s -> String.length s >= 7 && String.sub s 0 7 = "inst:g0") f.Rules.witness)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 float-into-awake, got %d" (List.length fs)));
  (* the PO computed from the float is a crowbar risk, not a float *)
  Alcotest.(check bool) "po crowbar flagged" true
    (List.exists
       (fun f -> f.Rules.rule.Rules.id = Rules.crowbar_risk.Rules.id && f.Rules.loc = "net:z")
       r.Verify.findings)

let test_holder_silences_float () =
  let nl, mte, a = base () in
  let w = Netlist.add_net nl "w" in
  let z = Netlist.add_output nl "z" in
  ignore (gated_mt nl mte a ~out:w);
  ignore (Netlist.add_inst nl ~name:"h0" (Library.holder lib) [ ("Z", w); ("MTE", mte) ]);
  ignore (Netlist.add_inst nl ~name:"r0" (lv Func.Inv) [ ("A", w); ("Z", z) ]);
  let r = Verify.analyze nl in
  Alcotest.check vv "w held" L.Held (Option.get (Verify.value_of r "w"));
  Alcotest.(check (list string)) "clean" [] (List.map Rules.to_string r.Verify.findings)

let test_useless_holder_never_floats () =
  let nl, mte, a = base () in
  ignore mte;
  let w = Netlist.add_net nl "w" in
  let z = Netlist.add_output nl "z" in
  ignore (Netlist.add_inst nl ~name:"d0" (lv Func.Inv) [ ("A", a); ("Z", w) ]);
  ignore (Netlist.add_inst nl ~name:"h0" (Library.holder lib) [ ("Z", w); ("MTE", mte) ]);
  ignore (Netlist.add_inst nl ~name:"r0" (lv Func.Inv) [ ("A", w); ("Z", z) ]);
  let r = Verify.analyze nl in
  Alcotest.(check (list string)) "one useless-holder, nothing else"
    [ Rules.useless_holder.Rules.id ]
    (rule_ids r);
  Alcotest.(check bool) "it is a warning" false (Rules.has_errors r.Verify.findings)

let test_useless_holder_mt_only_readers () =
  let nl, mte, a = base () in
  let w = Netlist.add_net nl "w" in
  let w2 = Netlist.add_output nl "w2" in
  let sw = gated_mt nl mte a ~out:w in
  ignore (Netlist.add_inst nl ~name:"h0" (Library.holder lib) [ ("Z", w); ("MTE", mte) ]);
  let g2 = Netlist.add_inst nl ~name:"g2" (mt Func.Inv) [ ("A", w); ("Z", w2) ] in
  Netlist.set_vgnd_switch nl g2 (Some sw);
  ignore (Netlist.add_inst nl ~name:"h2" (Library.holder lib) [ ("Z", w2); ("MTE", mte) ]);
  let r = Verify.analyze nl in
  let useless =
    List.filter (fun f -> f.Rules.rule.Rules.id = Rules.useless_holder.Rules.id) r.Verify.findings
  in
  Alcotest.(check (list string)) "only the MT-read net's holder"
    [ "net:w" ]
    (List.map (fun f -> f.Rules.loc) useless)

let test_mte_polarity () =
  let nl, mte, a = base () in
  let w = Netlist.add_net nl "w" in
  let z = Netlist.add_output nl "z" in
  let mte_n = Netlist.add_net nl "mte_n" in
  ignore (Netlist.add_inst nl ~name:"i0" (lv Func.Inv) [ ("A", mte); ("Z", mte_n) ]);
  let sw = Netlist.add_inst nl ~name:"sw0" (Library.switch lib ~width:8.0) [ ("MTE", mte_n) ] in
  let g = Netlist.add_inst nl ~name:"g0" (mt Func.Nand2) [ ("A", a); ("B", a); ("Z", w) ] in
  Netlist.set_vgnd_switch nl g (Some sw);
  ignore (Netlist.add_inst nl ~name:"r0" (lv Func.Inv) [ ("A", w); ("Z", z) ]);
  let r = Verify.analyze nl in
  Alcotest.(check (list string)) "exactly the polarity error"
    [ Rules.mte_polarity.Rules.id ]
    (rule_ids r);
  let f = List.hd r.Verify.findings in
  Alcotest.(check string) "at the switch" "inst:sw0" f.Rules.loc;
  Alcotest.(check bool) "witness traces from MTE" true
    (List.exists
       (fun s -> String.length s >= 7 && String.sub s 0 7 = "net:MTE")
       f.Rules.witness);
  Alcotest.(check bool) "stuck-on member evaluates, no float" true
    (L.is_defined (Option.get (Verify.value_of r "w")))

let test_mte_undetermined () =
  let nl, _mte, a = base () in
  let e = Netlist.add_input nl "mode" in
  let w = Netlist.add_net nl "w" in
  let z = Netlist.add_output nl "z" in
  let sw = Netlist.add_inst nl ~name:"sw0" (Library.switch lib ~width:8.0) [ ("MTE", e) ] in
  let g = Netlist.add_inst nl ~name:"g0" (mt Func.Nand2) [ ("A", a); ("B", a); ("Z", w) ] in
  Netlist.set_vgnd_switch nl g (Some sw);
  ignore (Netlist.add_inst nl ~name:"r0" (lv Func.Inv) [ ("A", w); ("Z", z) ]);
  let r = Verify.analyze nl in
  Alcotest.(check bool) "undetermined enable flagged" true
    (List.exists
       (fun f -> f.Rules.rule.Rules.id = Rules.mte_undetermined.Rules.id && f.Rules.loc = "inst:sw0")
       r.Verify.findings);
  Alcotest.check vv "member output is top" L.Top (Option.get (Verify.value_of r "w"))

(* A VGND member whose switch has no enable is top in standby, and its
   witness cites the switch, not a loop through the member's own output. *)
let test_switch_without_enable_witness () =
  let nl = Suite.circuit_a lib in
  ignore (Flow.run Flow.Improved_smt nl);
  let sw = List.hd (Netlist.switches nl) in
  Netlist.disconnect nl sw "MTE";
  let r = Verify.analyze nl in
  let witnesses = List.map (fun f -> f.Rules.witness) r.Verify.findings in
  let origin = "inst:" ^ Netlist.inst_name nl sw ^ " (no enable)" in
  Alcotest.(check bool) "a witness starts at the switch" true
    (List.exists (function step :: _ -> step = origin | [] -> false) witnesses);
  let cyclic step =
    let tag = "(cyclic)" in
    let n = String.length step and k = String.length tag in
    n >= k && String.sub step (n - k) k = tag
  in
  Alcotest.(check bool) "no witness claims a loop" false
    (List.exists (List.exists cyclic) witnesses)

let test_retention_input_float () =
  let nl, mte, a = base () in
  let clk = Netlist.add_input ~clock:true nl "clk" in
  let w = Netlist.add_net nl "w" in
  let q = Netlist.add_output nl "q" in
  ignore (gated_mt nl mte a ~out:w);
  ignore
    (Netlist.add_inst nl ~name:"ff0" (Library.retention_dff lib)
       [ ("D", w); ("CK", clk); ("Q", q) ]);
  let r = Verify.analyze nl in
  Alcotest.(check bool) "retention D float flagged" true
    (List.exists
       (fun f ->
         f.Rules.rule.Rules.id = Rules.retention_input_float.Rules.id
         && f.Rules.loc = "inst:ff0")
       r.Verify.findings)

let test_crowbar_instance () =
  let nl, _mte, a = base () in
  let e = Netlist.add_input nl "mode" in
  let w = Netlist.add_net nl "w" in
  let z = Netlist.add_output nl "z" in
  let sw = Netlist.add_inst nl ~name:"sw0" (Library.switch lib ~width:8.0) [ ("MTE", e) ] in
  let g = Netlist.add_inst nl ~name:"g0" (mt Func.Inv) [ ("A", a); ("Z", w) ] in
  Netlist.set_vgnd_switch nl g (Some sw);
  ignore (Netlist.add_inst nl ~name:"r0" (lv Func.Inv) [ ("A", w); ("Z", z) ]);
  let r = Verify.analyze nl in
  Alcotest.(check bool) "powered gate on a top net flagged" true
    (List.exists
       (fun f -> f.Rules.rule.Rules.id = Rules.crowbar_risk.Rules.id && f.Rules.loc = "inst:r0")
       r.Verify.findings)

let test_cycle_widens () =
  let nl = Netlist.create ~name:"loop" ~lib () in
  let a = Netlist.add_net nl "a" in
  let b = Netlist.add_net nl "b" in
  ignore (Netlist.add_inst nl ~name:"i1" (lv Func.Inv) [ ("A", a); ("Z", b) ]);
  ignore (Netlist.add_inst nl ~name:"i2" (lv Func.Inv) [ ("A", b); ("Z", a) ]);
  let r = Verify.analyze nl in
  Alcotest.(check int) "both nets widened" 2 r.Verify.widened;
  Alcotest.check vv "a is top" L.Top (Option.get (Verify.value_of r "a"));
  Alcotest.check vv "b is top" L.Top (Option.get (Verify.value_of r "b"))

let test_clock_parked_and_ff_held () =
  let nl = Netlist.create ~name:"seq" ~lib () in
  let clk = Netlist.add_input ~clock:true nl "clk" in
  let d = Netlist.add_input nl "d" in
  let q = Netlist.add_output nl "q" in
  ignore (Netlist.add_inst nl ~name:"ff0" (lv Func.Dff) [ ("D", d); ("CK", clk); ("Q", q) ]);
  let r = Verify.analyze nl in
  Alcotest.check vv "clock parked low" L.Zero (Option.get (Verify.value_of r "clk"));
  Alcotest.check vv "flip-flop output held" L.Held (Option.get (Verify.value_of r "q"));
  Alcotest.(check (list string)) "clean" [] (List.map Rules.to_string r.Verify.findings)

(* --- determinism & flow product --- *)

let test_analyze_deterministic () =
  let nl = Generators.multiplier ~name:"det" ~bits:4 lib in
  ignore (Flow.run ~options:{ Flow.default_options with Flow.activity_cycles = 32 } Flow.Improved_smt nl);
  let s r = List.map Rules.to_string r.Verify.findings in
  let r1 = Verify.analyze nl and r2 = Verify.analyze nl in
  Alcotest.(check (list string)) "findings stable" (s r1) (s r2);
  Alcotest.(check int) "transfer count stable" r1.Verify.transfers r2.Verify.transfers;
  Alcotest.(check bool) "values stable" true (r1.Verify.values = r2.Verify.values)

let test_flow_product_clean () =
  let nl = Generators.counter ~name:"fpc" ~bits:6 lib in
  ignore (Flow.run ~options:{ Flow.default_options with Flow.activity_cycles = 32 } Flow.Improved_smt nl);
  let r = Verify.analyze nl in
  Alcotest.(check (list string)) "improved flow product lint-clean" []
    (List.map Rules.to_string r.Verify.findings)

(* --- power domains: mode vectors, crossing rules, incremental update --- *)

let starts p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let inst_pfx nl p =
  let r = ref None in
  Netlist.iter_insts nl (fun iid ->
      if !r = None && starts p (Netlist.inst_name nl iid) then r := Some iid);
  match !r with
  | Some i -> i
  | None -> Alcotest.fail ("no instance with prefix " ^ p)

let net_pfx nl p =
  let r = ref None in
  Netlist.iter_nets nl (fun nid ->
      if !r = None && starts p (Netlist.net_name nl nid) then r := Some nid);
  match !r with
  | Some n -> n
  | None -> Alcotest.fail ("no net with prefix " ^ p)

let domain_rules =
  [
    Rules.cross_domain_float; Rules.missing_isolation;
    Rules.isolation_enable_off_domain; Rules.always_on_path;
  ]

(* Each pathology must be caught by its rule and by no other domain rule:
   the four crossing rules partition the boundary failure space. *)
let check_only_domain_rule r expected =
  let ids = rule_ids r in
  Alcotest.(check bool)
    (expected.Rules.id ^ " fires")
    true
    (List.mem expected.Rules.id ids);
  List.iter
    (fun (other : Rules.rule) ->
      if other.Rules.id <> expected.Rules.id then
        Alcotest.(check bool) (other.Rules.id ^ " stays silent") false
          (List.mem other.Rules.id ids))
    domain_rules

let test_multi_domain_clean () =
  List.iter
    (fun domains ->
      let nl = Suite.multi_domain ~domains ~name:"mdc" lib in
      let r = Verify.analyze nl in
      Alcotest.(check (list string))
        (Printf.sprintf "domains=%d lint-clean" domains)
        []
        (List.map Rules.to_string r.Verify.findings);
      Alcotest.(check int)
        (Printf.sprintf "domains=%d mode count" domains)
        ((1 lsl domains) - 1)
        (List.length r.Verify.modes))
    [ 2; 3; 4 ]

let test_legacy_single_mode () =
  (* No declared domains: exactly the one unnamed legacy mode. *)
  let nl = Generators.counter ~name:"leg" ~bits:4 lib in
  let r = Verify.analyze nl in
  Alcotest.(check (list string)) "single unnamed mode" [ "" ] r.Verify.modes

let test_pathology_cross_domain_float () =
  (* The clamp is present and owned by the right domain, but its enable is
     computed by that domain's own gated logic: in standby the enable is
     indeterminate, so the crossing may float into the awake reader.  Only
     cross-domain-float can see this — the clamp exists (not
     missing-isolation) and belongs to the right domain (not
     isolation-enable). *)
  let nl = Suite.multi_domain ~domains:2 ~name:"p1" lib in
  let iso = inst_pfx nl "iso_a" in
  let src = ref None in
  Netlist.iter_nets nl (fun nid ->
      if !src = None then
        match Netlist.driver nl nid with
        | Some p
          when Netlist.inst_domain nl p.Netlist.inst = Some "a"
               && Cell.is_mt (Netlist.cell nl p.Netlist.inst)
               && not (starts "xn_" (Netlist.net_name nl nid)) ->
          src := Some nid
        | _ -> ());
  Netlist.connect nl iso "MTE" (Option.get !src);
  let r = Verify.analyze nl in
  check_only_domain_rule r Rules.cross_domain_float;
  let f =
    List.find
      (fun f -> f.Rules.rule.Rules.id = Rules.cross_domain_float.Rules.id)
      r.Verify.findings
  in
  Alcotest.(check bool) "observed in a sleep mode" true (starts "sleep{" f.Rules.mode);
  Alcotest.(check bool) "witness present" true (f.Rules.witness <> [])

let test_pathology_missing_isolation () =
  let nl = Suite.multi_domain ~domains:2 ~name:"p2" lib in
  Netlist.remove_inst nl (inst_pfx nl "iso_a");
  let r = Verify.analyze nl in
  check_only_domain_rule r Rules.missing_isolation;
  (* the deletion is invisible to the structural checker: the net's sinks
     are all MT cells, so no structural holder rule applies *)
  Alcotest.(check (list string)) "DRC blind to the deletion" []
    (List.map Smt_check.Violation.to_string
       (Smt_check.Violation.errors
          (Smt_check.Drc.check ~expect_buffered_mte:false nl)))

let test_pathology_isolation_enable () =
  let nl = Suite.multi_domain ~domains:2 ~name:"p3" lib in
  Netlist.connect nl (inst_pfx nl "iso_a") "MTE" (net_pfx nl "mte_b");
  let r = Verify.analyze nl in
  check_only_domain_rule r Rules.isolation_enable_off_domain;
  (* the clamp misbehaves in both modes that park domain a; the report
     carries it once, attributed to the shallowest mode *)
  let fs =
    List.filter
      (fun f -> f.Rules.rule.Rules.id = Rules.isolation_enable_off_domain.Rules.id)
      r.Verify.findings
  in
  (match fs with
  | [ f ] -> Alcotest.(check string) "shallowest mode wins" "sleep{a}" f.Rules.mode
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs)))

(* A properly clamped MT gate [tg] inside domain a that both reads from
   and is read by always-on/foreign logic: no float escapes (the clamp
   works), but the path itself dies whenever domain a sleeps. *)
let always_on_path_soc () =
  let nl = Suite.multi_domain ~domains:2 ~name:"p4" lib in
  let pi = Netlist.add_input nl "side" in
  let anet = Netlist.fresh_net nl "anet" in
  ignore
    (Netlist.add_inst nl ~name:"ag" (lv Func.Buf) [ ("A", pi); ("Z", anet) ]);
  let dff_q dom =
    let r = ref None in
    Netlist.iter_insts nl (fun iid ->
        if !r = None
           && (Netlist.cell nl iid).Cell.kind = Func.Dff
           && Netlist.inst_domain nl iid = Some dom
        then r := Netlist.output_net nl iid);
    Option.get !r
  in
  let tnet = Netlist.fresh_net nl "tnet" in
  let tg =
    Netlist.add_inst nl ~name:"tg" (mt Func.Nand2)
      [ ("A", anet); ("B", dff_q "a"); ("Z", tnet) ]
  in
  Netlist.set_inst_domain nl tg (Some "a");
  Netlist.set_vgnd_switch nl tg (Some (inst_pfx nl "sw_a"));
  ignore
    (Netlist.add_inst nl ~name:"tg_hold" (Library.holder lib)
       [ ("MTE", net_pfx nl "mte_a"); ("Z", tnet) ]);
  let rnet = Netlist.fresh_net nl "rnet2" in
  let rg2 =
    Netlist.add_inst nl ~name:"rg2" (mt Func.Nand2)
      [ ("A", tnet); ("B", dff_q "b"); ("Z", rnet) ]
  in
  Netlist.set_inst_domain nl rg2 (Some "b");
  Netlist.set_vgnd_switch nl rg2 (Some (inst_pfx nl "sw_b"));
  ignore
    (Netlist.add_inst nl ~name:"rg2_hold" (Library.holder lib)
       [ ("MTE", net_pfx nl "mte_b"); ("Z", rnet) ]);
  let qn = Netlist.fresh_net nl "rq2" in
  let dff =
    Netlist.add_inst nl ~name:"rdff2" (lv Func.Dff)
      [ ("D", rnet); ("CK", Option.get (Netlist.clock_net nl)); ("Q", qn) ]
  in
  Netlist.set_inst_domain nl dff (Some "b");
  Netlist.mark_output nl qn;
  (nl, tg)

let test_pathology_always_on_path () =
  let nl, _ = always_on_path_soc () in
  let r = Verify.analyze nl in
  check_only_domain_rule r Rules.always_on_path;
  Alcotest.(check bool) "it is a warning, not an error" false
    (Rules.has_errors r.Verify.findings)

let test_jobs_determinism () =
  let nl = Suite.multi_domain ~domains:3 ~name:"jd" lib in
  Netlist.connect nl (inst_pfx nl "iso_a") "MTE" (net_pfx nl "mte_b");
  let r1 = Verify.analyze ~jobs:1 nl in
  let r4 = Verify.analyze ~jobs:4 nl in
  Alcotest.(check (list string)) "findings byte-identical across job counts"
    (List.map Rules.to_string r1.Verify.findings)
    (List.map Rules.to_string r4.Verify.findings);
  Alcotest.(check bool) "values identical" true (r1.Verify.values = r4.Verify.values);
  Alcotest.(check (list string)) "mode list identical" r1.Verify.modes r4.Verify.modes;
  let render r =
    Sarif.render
      [ { Sarif.wl_name = "jd/raw"; wl_findings = r.Verify.findings; wl_waived = [] } ]
  in
  Alcotest.(check string) "SARIF byte-identical" (render r1) (render r4)

let test_incremental_faster_on_small_delta () =
  let nl = Suite.multi_domain ~domains:3 ~name:"spd" lib in
  let session, r0 = Verify.start nl in
  Alcotest.(check (list string)) "baseline clean" []
    (List.map Rules.to_string r0.Verify.findings);
  (* single-cell ECO: swap one gate *)
  let victim =
    let r = ref None in
    Netlist.iter_insts nl (fun iid ->
        if !r = None && (Netlist.cell nl iid).Cell.kind = Func.Nand2
           && Netlist.inst_domain nl iid = Some "b"
        then r := Some iid);
    Option.get !r
  in
  let c = Netlist.cell nl victim in
  Netlist.replace_cell nl victim
    (Library.variant ~drive:c.Cell.drive lib Func.Nor2 c.Cell.vth c.Cell.style);
  let ru = Verify.update session in
  let rf = Verify.analyze nl in
  Alcotest.(check (list string)) "identical findings"
    (List.map Rules.to_string rf.Verify.findings)
    (List.map Rules.to_string ru.Verify.findings);
  Alcotest.(check bool) "identical values" true (ru.Verify.values = rf.Verify.values);
  Alcotest.(check bool)
    (Printf.sprintf "re-seeded cone does less work (%d < %d / 2)" ru.Verify.transfers
       rf.Verify.transfers)
    true
    (ru.Verify.transfers * 2 < rf.Verify.transfers)

(* Cone-sized work shows as a count: after one gate swap on circuit_a's
   improved product, the update judges no more rules than the cone has
   nets plus the instances wired to them, and builds no witness on a
   clean result.  The cone is recomputed here from the netlist alone:
   what reads a net is the gate whose input or enable it is, every
   member of the switch whose enable it is, and the net of the holder
   whose enable it is. *)
let test_update_counts_cone_sized () =
  let nl = Suite.circuit_a lib in
  ignore (Flow.run Flow.Improved_smt nl);
  let session, r0 = Verify.start nl in
  Alcotest.(check (list string)) "product clean" [] (List.map Rules.to_string r0.Verify.findings);
  let victim =
    List.find
      (fun iid -> (Netlist.cell nl iid).Cell.kind = Func.Nand2)
      (Netlist.live_insts nl)
  in
  let since = Netlist.version nl in
  let c = Netlist.cell nl victim in
  Netlist.replace_cell nl victim
    (Library.variant ~drive:c.Cell.drive lib Func.Nor2 c.Cell.vth c.Cell.style);
  let cone = Hashtbl.create 64 in
  let rec reach nid =
    if not (Hashtbl.mem cone nid) then begin
      Hashtbl.add cone nid ();
      List.iter
        (fun (p : Netlist.pin) ->
          let i = p.Netlist.inst in
          match (Netlist.cell nl i).Cell.kind with
          | Func.Sleep_switch ->
            List.iter (fun m -> Option.iter reach (Netlist.output_net nl m)) (Netlist.switch_members nl i)
          | Func.Holder -> Option.iter reach (Netlist.pin_net nl i "Z")
          | Func.Dff -> ()
          | _ -> Option.iter reach (Netlist.output_net nl i))
        (Netlist.sinks nl nid)
    end
  in
  List.iter reach (Netlist.touched_since nl since);
  let pinned = Hashtbl.create 64 in
  let add i = Hashtbl.replace pinned i () in
  Hashtbl.iter
    (fun nid () ->
      Option.iter (fun (p : Netlist.pin) -> add p.Netlist.inst) (Netlist.driver nl nid);
      List.iter (fun (p : Netlist.pin) -> add p.Netlist.inst) (Netlist.sinks nl nid))
    cone;
  (* holders are wired to the net they keep by Z, which no sink list holds *)
  Netlist.iter_insts nl (fun i ->
      if (Netlist.cell nl i).Cell.kind = Func.Holder then
        match Netlist.pin_net nl i "Z" with
        | Some z when Hashtbl.mem cone z -> add i
        | Some _ | None -> ());
  let count name = Smt_obs.Metrics.(counter_value (counter name)) in
  let evals0 = count "lint.rule_evals" and paths0 = count "lint.paths_built" in
  let ru = Verify.update session in
  let evals = count "lint.rule_evals" - evals0 and paths = count "lint.paths_built" - paths0 in
  let full0 = count "lint.rule_evals" in
  let rf = Verify.analyze nl in
  let full = count "lint.rule_evals" - full0 in
  Alcotest.(check (list string)) "update equals analyze"
    (List.map Rules.to_string rf.Verify.findings)
    (List.map Rules.to_string ru.Verify.findings);
  Alcotest.(check (list string)) "still clean" [] (List.map Rules.to_string ru.Verify.findings);
  Alcotest.(check bool)
    (Printf.sprintf "rule evaluations %d <= cone nets %d + pinned instances %d" evals
       (Hashtbl.length cone) (Hashtbl.length pinned))
    true
    (evals > 0 && evals <= Hashtbl.length cone + Hashtbl.length pinned);
  Alcotest.(check bool)
    (Printf.sprintf "update's %d evaluations under a quarter of analyze's %d" evals full)
    true (evals * 4 < full);
  Alcotest.(check int) "no witness built on a clean result" 0 paths

(* A gate whose output pin leaves its net keeps no edge on any touched
   net, yet it is judged again (the always-on-path rule reads its output)
   and, once a later edit upstream re-runs its inputs, it must not write
   the net it no longer drives, which now floats undriven. *)
let test_incremental_disconnected_driver () =
  let nl, tg = always_on_path_soc () in
  let session, r0 = Verify.start nl in
  check_only_domain_rule r0 Rules.always_on_path;
  Netlist.disconnect nl tg "Z";
  let ru = Verify.update session and rf = Verify.analyze nl in
  Alcotest.(check (list string)) "a gate with no output loses its path finding"
    (List.map Rules.to_string rf.Verify.findings)
    (List.map Rules.to_string ru.Verify.findings);
  let nl, _mte, a = base () in
  let w = Netlist.add_input nl "w" in
  let x = Netlist.add_net nl "x" and i = Netlist.add_net nl "i" and n = Netlist.add_net nl "n" in
  let z = Netlist.add_output nl "z" in
  let u2 = Netlist.add_inst nl ~name:"u2" (lv Func.Inv) [ ("A", w); ("Z", x) ] in
  ignore (Netlist.add_inst nl ~name:"u" (lv Func.Inv) [ ("A", x); ("Z", i) ]);
  let g = Netlist.add_inst nl ~name:"g" (lv Func.Nand2) [ ("A", i); ("B", a); ("Z", n) ] in
  ignore (Netlist.add_inst nl ~name:"r" (lv Func.Inv) [ ("A", n); ("Z", z) ]);
  let session, _ = Verify.start nl in
  let same step =
    let ru = Verify.update session and rf = Verify.analyze nl in
    Alcotest.(check (list string)) (step ^ ": findings")
      (List.map Rules.to_string rf.Verify.findings)
      (List.map Rules.to_string ru.Verify.findings);
    Alcotest.(check bool) (step ^ ": values") true (ru.Verify.values = rf.Verify.values)
  in
  Netlist.disconnect nl g "Z";
  same "output disconnected";
  Alcotest.check vv "the undriven net floats" L.Float (Option.get (Verify.value_of (Verify.analyze nl) "n"));
  Netlist.replace_cell nl u2 (lv Func.Buf);
  same "edit upstream of the old driver"

let test_incremental_domain_change_restarts () =
  (* Declaring a new domain changes the mode vector: the session must
     fall back to a transparent full restart and still agree with a
     from-scratch analysis. *)
  let nl = Suite.multi_domain ~domains:2 ~name:"dcr" lib in
  let session, r0 = Verify.start nl in
  Alcotest.(check int) "3 modes initially" 3 (List.length r0.Verify.modes);
  let e = Netlist.add_input nl "mte_c" in
  Netlist.add_domain nl ~name:"c" ~mte:(Some e);
  let ru = Verify.update session in
  let rf = Verify.analyze nl in
  Alcotest.(check int) "7 modes after the new domain" 7 (List.length ru.Verify.modes);
  Alcotest.(check (list string)) "restart agrees with from-scratch"
    (List.map Rules.to_string rf.Verify.findings)
    (List.map Rules.to_string ru.Verify.findings);
  Alcotest.(check bool) "values agree" true (ru.Verify.values = rf.Verify.values)

let test_incremental_sta_and_verify_share_journal () =
  (* One timing analysis and one verifier session follow the same
     netlist through interleaved cell swaps.  Both read the netlist's
     journal, at different moments: neither may take the other's edits,
     and each must equal its from-scratch analysis after every step. *)
  let module Sta = Smt_sta.Sta in
  let module Rng = Smt_util.Rng in
  let nl = Suite.multi_domain ~domains:2 ~name:"shj" lib in
  let cfg = Sta.config ~clock_period:1e5 () in
  let sta = Sta.analyze cfg nl in
  let session, _ = Verify.start nl in
  let gates =
    Array.of_list
      (List.filter
         (fun iid ->
           let k = (Netlist.cell nl iid).Cell.kind in
           k = Func.Nand2 || k = Func.Nor2)
         (Netlist.live_insts nl))
  in
  let rng = Rng.create 7 in
  (* a gate-flavour swap (changes standby values and timing) or a Vth
     flip (changes timing only) *)
  let edit () =
    let iid = gates.(Rng.int rng (Array.length gates)) in
    let c = Netlist.cell nl iid in
    let drive = c.Cell.drive in
    let vth = if c.Cell.vth = Vth.Low then Vth.High else Vth.Low in
    if Rng.chance rng 0.5 && Library.has_variant ~drive lib c.Cell.kind vth c.Cell.style then
      Netlist.replace_cell nl iid (Library.restyle lib c vth c.Cell.style)
    else
      let k' = if c.Cell.kind = Func.Nand2 then Func.Nor2 else Func.Nand2 in
      Netlist.replace_cell nl iid (Library.variant ~drive lib k' c.Cell.vth c.Cell.style)
  in
  let check_sta step =
    Sta.update sta;
    let full = Sta.analyze cfg nl in
    Netlist.iter_nets nl (fun nid ->
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "step %d: arrival of %s" step (Netlist.net_name nl nid))
          (Sta.arrival full nid) (Sta.arrival sta nid));
    Alcotest.(check (float 1e-9)) (Printf.sprintf "step %d: wns" step) (Sta.wns full) (Sta.wns sta)
  in
  let check_verify step =
    let ru = Verify.update session in
    let rf = Verify.analyze nl in
    Alcotest.(check (list string))
      (Printf.sprintf "step %d: findings" step)
      (List.map Rules.to_string rf.Verify.findings)
      (List.map Rules.to_string ru.Verify.findings);
    Alcotest.(check bool) (Printf.sprintf "step %d: values" step) true
      (ru.Verify.values = rf.Verify.values)
  in
  for step = 1 to 6 do
    edit ();
    let first, second =
      if step mod 2 = 0 then (check_sta, check_verify) else (check_verify, check_sta)
    in
    first step;
    (* an edit between the two reads: the second reader sees it now, the
       first one at the next step *)
    edit ();
    second step
  done

(* --- rule catalog golden snapshot --- *)

let test_rule_catalog_golden () =
  (* Stable ids and severities are the waiver/baseline contract: changing
     any line here invalidates users' waiver files and SARIF baselines,
     so the change must be deliberate. *)
  let expected =
    [
      "error float-into-awake";
      "warning crowbar-risk";
      "warning useless-holder";
      "error mte-polarity";
      "error mte-undetermined";
      "error retention-input-float";
      "error cross-domain-float-into-awake";
      "error missing-isolation-at-boundary";
      "error isolation-enable-from-off-domain";
      "warning always-on-path-through-off-domain";
    ]
  in
  Alcotest.(check (list string)) "catalog ids and severities frozen" expected
    (List.map
       (fun (r : Rules.rule) -> Rules.severity_name r.Rules.severity ^ " " ^ r.Rules.id)
       Rules.all);
  List.iter
    (fun (r : Rules.rule) ->
      Alcotest.(check bool) (r.Rules.id ^ " has a summary") true
        (String.length r.Rules.summary > 10);
      Alcotest.(check bool) (r.Rules.id ^ " findable") true (Rules.find r.Rules.id = Some r))
    Rules.all

(* --- waiver expiry --- *)

let test_waiver_expiry_parse () =
  match Waiver.parse "useless-holder net:a* expires=2026-12-31\n" with
  | Error e -> Alcotest.fail e
  | Ok [ e ] ->
    Alcotest.(check bool) "date parsed" true (e.Waiver.w_expires = Some (2026, 12, 31))
  | Ok _ -> Alcotest.fail "expected one entry"

let test_waiver_expiry_rejects_bad_date () =
  List.iter
    (fun src ->
      match Waiver.parse src with
      | Ok _ -> Alcotest.fail ("bad date accepted: " ^ src)
      | Error _ -> ())
    [
      "useless-holder * expires=tomorrow\n";
      "useless-holder * expires=2026-13-01\n";
      "useless-holder * expires=26-1-1\n";
      "useless-holder * frobnicate=1\n";
    ]

let test_waiver_expiry_apply () =
  let w =
    match Waiver.parse "useless-holder net:a* expires=2026-06-30\n* net:b\n" with
    | Ok w -> w
    | Error e -> Alcotest.fail e
  in
  let f1 = finding Rules.useless_holder "net:a1" in
  let f2 = finding Rules.useless_holder "net:b" in
  (* on the expiry day the waiver still holds *)
  let kept, waived = Waiver.apply ~today:(2026, 6, 30) w [ f1; f2 ] in
  Alcotest.(check int) "valid through the expiry date" 0 (List.length kept);
  Alcotest.(check int) "both waived" 2 (List.length waived);
  (* one day later the dated entry stops suppressing *)
  let kept, waived = Waiver.apply ~today:(2026, 7, 1) w [ f1; f2 ] in
  Alcotest.(check (list string)) "expired entry no longer suppresses"
    [ "net:a1" ]
    (List.map (fun f -> f.Rules.loc) kept);
  Alcotest.(check int) "undated entry still works" 1 (List.length waived);
  (* without ~today nothing expires *)
  let kept, _ = Waiver.apply w [ f1; f2 ] in
  Alcotest.(check int) "no clock, no expiry" 0 (List.length kept)

(* "Today" is the UTC date of the run's clock, so SMT_CLOCK pins expiry
   like every other timestamp: one second before and at midnight UTC. *)
let test_waiver_today_follows_clock () =
  let saved = Sys.getenv_opt "SMT_CLOCK" in
  Fun.protect ~finally:(fun () -> Unix.putenv "SMT_CLOCK" (Option.value saved ~default:""))
  @@ fun () ->
  let today_at clock =
    Unix.putenv "SMT_CLOCK" clock;
    Waiver.today ()
  in
  Alcotest.(check (triple int int int)) "last second of June 30" (2026, 6, 30)
    (today_at "1782863999");
  Alcotest.(check (triple int int int)) "midnight UTC" (2026, 7, 1) (today_at "1782864000")

(* --- SARIF export --- *)

let mem path doc =
  List.fold_left
    (fun acc k -> match acc with Some d -> J.member k d | None -> None)
    (Some doc) path

let nth_arr = function Some (J.Arr xs) -> xs | _ -> Alcotest.fail "expected array"

let test_sarif_document () =
  let wl =
    {
      Sarif.wl_name = "c/imp";
      wl_findings = [ finding Rules.float_into_awake "net:w" ];
      wl_waived =
        [
          ( finding Rules.useless_holder "net:h",
            { Waiver.w_rule = "useless-holder"; w_loc = "net:h"; w_expires = None; w_line = 4 } );
        ];
    }
  in
  let doc = J.parse_exn (Sarif.render [ wl ]) in
  Alcotest.(check (option string)) "version" (Some "2.1.0")
    (Option.bind (mem [ "version" ] doc) J.to_str);
  let runs = nth_arr (mem [ "runs" ] doc) in
  Alcotest.(check int) "one run" 1 (List.length runs);
  let run = List.hd runs in
  let rules = nth_arr (mem [ "tool"; "driver"; "rules" ] run) in
  Alcotest.(check int) "whole catalog exported" (List.length Rules.all) (List.length rules);
  Alcotest.(check (list (option string)))
    "rule ids in catalog order"
    (List.map (fun r -> Some r.Rules.id) Rules.all)
    (List.map (fun r -> Option.bind (J.member "id" r) J.to_str) rules);
  let results = nth_arr (mem [ "results" ] run) in
  Alcotest.(check int) "finding + waived finding" 2 (List.length results);
  let r0 = List.nth results 0 and r1 = List.nth results 1 in
  Alcotest.(check (option string)) "ruleId" (Some "float-into-awake")
    (Option.bind (mem [ "ruleId" ] r0) J.to_str);
  let loc0 = List.hd (nth_arr (mem [ "locations" ] r0)) in
  let fqn = List.hd (nth_arr (mem [ "logicalLocations" ] loc0)) in
  Alcotest.(check (option string)) "workload-qualified location" (Some "c/imp/net:w")
    (Option.bind (mem [ "fullyQualifiedName" ] fqn) J.to_str);
  Alcotest.(check bool) "live finding unsuppressed" true (mem [ "suppressions" ] r0 = None);
  let sup = List.hd (nth_arr (mem [ "suppressions" ] r1)) in
  Alcotest.(check (option string)) "waiver recorded" (Some "external")
    (Option.bind (mem [ "kind" ] sup) J.to_str)

let test_sarif_mode_location () =
  let f = { (finding Rules.cross_domain_float "net:x") with Rules.mode = "sleep{a}" } in
  let wl = { Sarif.wl_name = "c/raw"; wl_findings = [ f; finding Rules.useless_holder "net:y" ]; wl_waived = [] } in
  let doc = J.parse_exn (Sarif.render [ wl ]) in
  let results = nth_arr (mem [ "runs" ] doc |> fun rs -> mem [ "results" ] (List.hd (nth_arr rs))) in
  let lls r = nth_arr (mem [ "logicalLocations" ] (List.hd (nth_arr (mem [ "locations" ] r)))) in
  (* finding observed in a mode: element location plus a namespace
     location naming the mode *)
  let moded = lls (List.nth results 0) in
  Alcotest.(check int) "two logical locations" 2 (List.length moded);
  Alcotest.(check (option string)) "element first" (Some "c/raw/net:x")
    (Option.bind (mem [ "fullyQualifiedName" ] (List.nth moded 0)) J.to_str);
  Alcotest.(check (option string)) "mode namespace second" (Some "c/raw/mode/sleep{a}")
    (Option.bind (mem [ "fullyQualifiedName" ] (List.nth moded 1)) J.to_str);
  Alcotest.(check (option string)) "namespace kind" (Some "namespace")
    (Option.bind (mem [ "kind" ] (List.nth moded 1)) J.to_str);
  (* legacy finding: exactly one logical location, as before *)
  Alcotest.(check int) "legacy finding unchanged" 1 (List.length (lls (List.nth results 1)))

let test_sarif_deterministic () =
  let nl = Generators.multiplier ~name:"sd" ~bits:4 lib in
  ignore (Flow.run ~options:{ Flow.default_options with Flow.activity_cycles = 32 } Flow.Improved_smt nl);
  let wl () =
    let r = Verify.analyze nl in
    { Sarif.wl_name = "sd/improved"; wl_findings = r.Verify.findings; wl_waived = [] }
  in
  Alcotest.(check string) "byte-identical" (Sarif.render [ wl () ]) (Sarif.render [ wl () ])

(* --- the lint's text and JSON reports --- *)

let waiver_at line = { Waiver.w_rule = "*"; w_loc = "*"; w_expires = None; w_line = line }

let report_workloads =
  [
    { Sarif.wl_name = "a/raw"; wl_findings = []; wl_waived = [] };
    {
      Sarif.wl_name = "b/improved";
      wl_findings =
        [
          {
            (finding Rules.float_into_awake "net:w") with
            Rules.mode = "sleep{a}";
            witness = [ "inst:g1"; "net:w" ];
          };
          finding Rules.useless_holder "net:h";
        ];
      wl_waived = [ (finding Rules.crowbar_risk "net:c", waiver_at 4) ];
    };
  ]

let test_lint_text () =
  Alcotest.(check string) "text report"
    "a/raw: clean\n\
     b/improved: 1 errors, 1 warnings, 1 waived\n\
    \  error float-into-awake @ net:w [sleep{a}]: m [via inst:g1 -> net:w]\n\
    \  warning useless-holder @ net:h: m\n\
    \  waived (line 4): warning crowbar-risk @ net:c: m\n"
    (Sarif.render_text report_workloads);
  Alcotest.(check string) "waived-only workload is not clean"
    "c/raw: 0 errors, 0 warnings, 1 waived\n\
    \  waived (line 2): error float-into-awake @ net:x: m\n"
    (Sarif.render_text
       [
         {
           Sarif.wl_name = "c/raw";
           wl_findings = [];
           wl_waived = [ (finding Rules.float_into_awake "net:x", waiver_at 2) ];
         };
       ])

let test_lint_json () =
  Alcotest.(check string) "json report"
    ({|[{"workload":"a/raw","findings":[],"waived":[]},|}
    ^ {|{"workload":"b/improved","findings":[|}
    ^ {|{"rule":"float-into-awake","severity":"error","location":"net:w","message":"m","witness":["inst:g1","net:w"]},|}
    ^ {|{"rule":"useless-holder","severity":"warning","location":"net:h","message":"m","witness":[]}],|}
    ^ {|"waived":[{"rule":"crowbar-risk","severity":"warning","location":"net:c","message":"m","witness":[]}]}]|}
    )
    (Sarif.render_json report_workloads)

(* --- SARIF baselines --- *)

let with_file contents f =
  let path = Filename.temp_file "baseline" ".sarif" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      f path)

let read_baseline contents =
  with_file contents (fun path -> (path, Sarif.read_baseline path))

let keys_of contents =
  match read_baseline contents with
  | _, Ok b -> Sarif.baseline_keys b
  | path, Error e -> Alcotest.failf "%s did not read back: %s" path e

let test_baseline_round_trip () =
  (* Every rendered result comes back keyed by its rule id and its first
     logical location: moded findings (a second, namespace location),
     witnesses (related locations) and waived findings included. *)
  let expected =
    List.concat_map
      (fun (wl : Sarif.workload) ->
        List.map
          (fun (f : Rules.finding) -> (f.Rules.rule.Rules.id, wl.Sarif.wl_name ^ "/" ^ f.Rules.loc))
          (wl.Sarif.wl_findings @ List.map fst wl.Sarif.wl_waived))
      report_workloads
    |> List.sort_uniq compare
  in
  Alcotest.(check (list (pair string string))) "keys" expected
    (keys_of (Sarif.render report_workloads));
  Alcotest.(check (list (pair string string))) "an empty report is an empty baseline" []
    (keys_of (Sarif.render []))

let expect_error what contents ~mentions =
  match read_baseline contents with
  | _, Ok _ -> Alcotest.failf "%s: accepted" what
  | path, Error e ->
    let has s =
      let n = String.length s in
      let rec at i = i + n <= String.length e && (String.sub e i n = s || at (i + 1)) in
      at 0
    in
    if not (has path) then Alcotest.failf "%s: %S does not name the file" what e;
    List.iter
      (fun m -> if not (has m) then Alcotest.failf "%s: %S does not mention %S" what e m)
      mentions

let test_baseline_rejects_malformed () =
  let good = Sarif.render report_workloads in
  expect_error "truncated file"
    (String.sub good 0 (String.length good / 2))
    ~mentions:[ "offset" ];
  (* One bit of the first result's key name: still JSON, but the result
     has no ruleId any more. *)
  let flipped =
    let rec key_at i = if String.sub good i 8 = {|"ruleId"|} then i else key_at (i + 1) in
    let d = key_at 0 + 6 in
    String.mapi (fun i c -> if i = d then Char.chr (Char.code c lxor 1) else c) good
  in
  expect_error "byte-flipped file" flipped ~mentions:[ "$.runs[0].results[0].ruleId" ];
  expect_error "non-SARIF JSON" {|{"counters":{"flow.runs":1}}|} ~mentions:[ "$.runs" ];
  expect_error "results not an array" {|{"runs":[{"results":{}}]}|}
    ~mentions:[ "$.runs[0].results" ];
  expect_error "non-string location"
    {|{"runs":[{"results":[{"ruleId":"x","locations":[{"logicalLocations":[{"fullyQualifiedName":3}]}]}]}]}|}
    ~mentions:[ "$.runs[0].results[0].locations[0].logicalLocations[0].fullyQualifiedName" ];
  match Sarif.read_baseline "no_such_dir/baseline.sarif" with
  | Ok _ -> Alcotest.fail "read a missing file"
  | Error e -> Alcotest.(check bool) "missing file named" true (String.length e > 0)

let test_baseline_byte_flips () =
  (* Flip each byte of a small report in turn: the reader returns Ok or
     a located Error, and no exception escapes. *)
  let good = Sarif.render [ List.nth report_workloads 1 ] in
  let step = max 1 (String.length good / 400) in
  let rec go i =
    if i < String.length good then begin
      let b = Bytes.of_string good in
      Bytes.set b i (Char.chr (Char.code good.[i] lxor 0x20));
      (match read_baseline (Bytes.to_string b) with
      | _, (Ok _ | Error _) -> ()
      | exception e ->
        Alcotest.failf "flip at byte %d raised %s" i (Printexc.to_string e));
      go (i + step)
    end
  in
  go 0

let test_baseline_gate () =
  let err = finding Rules.float_into_awake "net:w" and warn = finding Rules.useless_holder "net:h" in
  let wl findings = [ { Sarif.wl_name = "d/raw"; wl_findings = findings; wl_waived = [] } ] in
  let baseline_of wls =
    match read_baseline (Sarif.render wls) with
    | _, Ok b -> b
    | _, Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "no baseline: any error fails" true (Sarif.gate_fails None (wl [ err ]));
  Alcotest.(check bool) "no baseline: warnings pass" false (Sarif.gate_fails None (wl [ warn ]));
  let known = baseline_of (wl [ err ]) in
  Alcotest.(check bool) "known error passes" false
    (Sarif.gate_fails (Some known) (wl [ err; warn ]));
  Alcotest.(check int) "the new warning is reported" 1
    (List.length (Sarif.new_findings known (wl [ err; warn ])));
  let other = finding Rules.mte_polarity "inst:s" in
  Alcotest.(check bool) "new error fails" true (Sarif.gate_fails (Some known) (wl [ err; other ]));
  Alcotest.(check bool) "same rule, other location is new" true
    (Sarif.gate_fails (Some known) (wl [ finding Rules.float_into_awake "net:v" ]));
  Alcotest.(check bool) "same location, other workload is new" true
    (Sarif.gate_fails (Some known)
       [ { Sarif.wl_name = "e/raw"; wl_findings = [ err ]; wl_waived = [] } ]);
  (* A waived finding in the baseline still counts as known. *)
  let waived_known =
    baseline_of
      [ { Sarif.wl_name = "d/raw"; wl_findings = []; wl_waived = [ (err, waiver_at 1) ] } ]
  in
  Alcotest.(check bool) "waived baseline entry passes" false
    (Sarif.gate_fails (Some waived_known) (wl [ err ]))

let () =
  Alcotest.run "smt_verify"
    [
      ( "lattice",
        [
          Alcotest.test_case "join algebra" `Quick test_join_algebra;
          Alcotest.test_case "join cases" `Quick test_join_cases;
          Alcotest.test_case "order" `Quick test_order;
          Alcotest.test_case "transfer" `Quick test_transfer;
          Alcotest.test_case "transfer monotone" `Quick test_transfer_monotone;
          Alcotest.test_case "logic bridge" `Quick test_logic_bridge;
        ] );
      ( "waivers",
        [
          Alcotest.test_case "parse" `Quick test_waiver_parse;
          Alcotest.test_case "unknown rule rejected" `Quick test_waiver_rejects_unknown_rule;
          Alcotest.test_case "malformed rejected" `Quick test_waiver_rejects_malformed;
          Alcotest.test_case "glob" `Quick test_glob;
          Alcotest.test_case "apply" `Quick test_waiver_apply;
        ] );
      ( "rules",
        [
          Alcotest.test_case "float into awake" `Quick test_float_into_awake;
          Alcotest.test_case "holder silences float" `Quick test_holder_silences_float;
          Alcotest.test_case "useless holder (never floats)" `Quick test_useless_holder_never_floats;
          Alcotest.test_case "useless holder (MT-only readers)" `Quick test_useless_holder_mt_only_readers;
          Alcotest.test_case "mte polarity" `Quick test_mte_polarity;
          Alcotest.test_case "mte undetermined" `Quick test_mte_undetermined;
          Alcotest.test_case "switch without enable: witness cites it" `Quick
            test_switch_without_enable_witness;
          Alcotest.test_case "retention input float" `Quick test_retention_input_float;
          Alcotest.test_case "crowbar instance" `Quick test_crowbar_instance;
          Alcotest.test_case "cycle widens to top" `Quick test_cycle_widens;
          Alcotest.test_case "clock parked, ff held" `Quick test_clock_parked_and_ff_held;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "analyze deterministic" `Quick test_analyze_deterministic;
          Alcotest.test_case "flow product clean" `Quick test_flow_product_clean;
          Alcotest.test_case "jobs 1 vs 4 byte-identical" `Quick test_jobs_determinism;
        ] );
      ( "domains",
        [
          Alcotest.test_case "multi-domain suite clean in all modes" `Quick
            test_multi_domain_clean;
          Alcotest.test_case "no domains, single legacy mode" `Quick test_legacy_single_mode;
          Alcotest.test_case "pathology: cross-domain float" `Quick
            test_pathology_cross_domain_float;
          Alcotest.test_case "pathology: missing isolation" `Quick
            test_pathology_missing_isolation;
          Alcotest.test_case "pathology: isolation enable off-domain" `Quick
            test_pathology_isolation_enable;
          Alcotest.test_case "pathology: always-on path" `Quick
            test_pathology_always_on_path;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "small delta re-verifies the cone only" `Quick
            test_incremental_faster_on_small_delta;
          Alcotest.test_case "update counts cone-sized work" `Quick test_update_counts_cone_sized;
          Alcotest.test_case "domain change restarts transparently" `Quick
            test_incremental_domain_change_restarts;
          Alcotest.test_case "disconnected driver: re-judged, no stale write" `Quick
            test_incremental_disconnected_driver;
          Alcotest.test_case "sta and verify follow one journal" `Quick
            test_incremental_sta_and_verify_share_journal;
        ] );
      ( "catalog",
        [ Alcotest.test_case "rule catalog golden" `Quick test_rule_catalog_golden ] );
      ( "expiry",
        [
          Alcotest.test_case "expires= parsed" `Quick test_waiver_expiry_parse;
          Alcotest.test_case "bad dates rejected" `Quick test_waiver_expiry_rejects_bad_date;
          Alcotest.test_case "apply honours today" `Quick test_waiver_expiry_apply;
          Alcotest.test_case "today follows SMT_CLOCK" `Quick test_waiver_today_follows_clock;
        ] );
      ( "sarif",
        [
          Alcotest.test_case "document shape" `Quick test_sarif_document;
          Alcotest.test_case "mode logical location" `Quick test_sarif_mode_location;
          Alcotest.test_case "render deterministic" `Quick test_sarif_deterministic;
          Alcotest.test_case "lint text report" `Quick test_lint_text;
          Alcotest.test_case "lint json report" `Quick test_lint_json;
          Alcotest.test_case "baseline round trip" `Quick test_baseline_round_trip;
          Alcotest.test_case "baseline rejects malformed files" `Quick
            test_baseline_rejects_malformed;
          Alcotest.test_case "baseline survives byte flips" `Quick test_baseline_byte_flips;
          Alcotest.test_case "baseline gates only new errors" `Quick test_baseline_gate;
        ] );
    ]
