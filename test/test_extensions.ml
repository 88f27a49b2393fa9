(* Tests for the extension features: drive-strength sizing, incremental
   STA, PVT corners, retention registers, the setup ECO, and the extra
   generators. *)

module Netlist = Smt_netlist.Netlist
module Builder = Smt_netlist.Builder
module Check = Smt_check.Drc
module Clone = Smt_netlist.Clone
module Sta = Smt_sta.Sta
module Placement = Smt_place.Placement
module Leakage = Smt_power.Leakage
module Logic = Smt_sim.Logic
module Simulator = Smt_sim.Simulator
module Equiv = Smt_sim.Equiv
module Gate_sizing = Smt_core.Gate_sizing
module Retention = Smt_core.Retention
module Vth_assign = Smt_core.Vth_assign
module Mt_replace = Smt_core.Mt_replace
module Switch_insert = Smt_core.Switch_insert
module Cluster = Smt_core.Cluster
module Flow = Smt_core.Flow
module Cell = Smt_cell.Cell
module Func = Smt_cell.Func
module Vth = Smt_cell.Vth
module Corner = Smt_cell.Corner
module Library = Smt_cell.Library
module Generators = Smt_circuits.Generators
module Suite = Smt_circuits.Suite

let lib = Library.default ()
let tech = Library.tech lib

let period_for nl margin =
  let probe = 1e6 in
  let sta = Sta.analyze (Sta.config ~clock_period:probe ()) nl in
  (probe -. Sta.wns sta) *. (1.0 +. margin)

(* --- drive strengths --- *)

let test_drive_variants_exist () =
  List.iter
    (fun drive ->
      let c = Library.variant ~drive lib Func.Nand2 Vth.Low Vth.Plain in
      Alcotest.(check int) "drive recorded" drive c.Cell.drive)
    Library.drives

let test_drive_scaling () =
  let x1 = Library.variant ~drive:1 lib Func.Nand2 Vth.Low Vth.Plain in
  let x4 = Library.variant ~drive:4 lib Func.Nand2 Vth.Low Vth.Plain in
  Alcotest.(check (float 1e-9)) "area x4" (4.0 *. x1.Cell.area) x4.Cell.area;
  Alcotest.(check (float 1e-9)) "cap x4" (4.0 *. x1.Cell.input_cap) x4.Cell.input_cap;
  Alcotest.(check (float 1e-9)) "leak x4" (4.0 *. x1.Cell.leak_standby) x4.Cell.leak_standby;
  Alcotest.(check (float 1e-9)) "drive res /4" (x1.Cell.drive_res /. 4.0) x4.Cell.drive_res;
  (* a strong gate into a big load is faster *)
  Alcotest.(check bool) "x4 faster at 40fF" true
    (Cell.delay x4 ~load_ff:40.0 < Cell.delay x1 ~load_ff:40.0)

let test_resize_restyle_compose () =
  let c = Library.variant ~drive:2 lib Func.Xor2 Vth.Low Vth.Plain in
  let hv = Library.restyle lib c Vth.High Vth.Plain in
  Alcotest.(check int) "restyle keeps drive" 2 hv.Cell.drive;
  let x4 = Library.resize lib hv 4 in
  Alcotest.(check int) "resize changes drive" 4 x4.Cell.drive;
  Alcotest.(check bool) "resize keeps vth" true (x4.Cell.vth = Vth.High)

let test_mt_variants_sized () =
  let mtv2 = Library.variant ~drive:2 lib Func.Nand2 Vth.Low Vth.Mt_vgnd in
  Alcotest.(check int) "MT X2 exists" 2 mtv2.Cell.drive;
  let mte2 = Library.variant ~drive:2 lib Func.Nand2 Vth.Low Vth.Mt_embedded in
  let mte1 = Library.variant ~drive:1 lib Func.Nand2 Vth.Low Vth.Mt_embedded in
  Alcotest.(check bool) "bigger embedded footer for stronger cell" true
    (mte2.Cell.switch_width > mte1.Cell.switch_width)

let test_downsize_recovers_area () =
  (* start everything at X2 so there is room to shrink *)
  let nl = Suite.x2_mapped lib (Generators.ripple_adder ~name:"ra" ~bits:8 lib) in
  let golden = Clone.copy nl in
  let area0 = Netlist.total_area nl in
  let cfg = Sta.config ~clock_period:(period_for nl 0.4) () in
  let r = Gate_sizing.downsize_idle cfg nl in
  Alcotest.(check bool) "cells downsized" true (r.Gate_sizing.resized > 0);
  Alcotest.(check bool) "area shrank" true (Netlist.total_area nl < area0);
  Alcotest.(check bool) "timing still met" true (Sta.meets_timing r.Gate_sizing.sta);
  Alcotest.(check bool) "function preserved" true (Equiv.equivalent ~vectors:32 golden nl)

let test_flow_gate_sizing_knob () =
  (* as if synthesis had mapped to X2 cells: the sizing knob recovers the
     excess drive off the critical paths *)
  let gen () = Suite.x2_mapped lib (Generators.multiplier ~name:"m6" ~bits:6 lib) in
  let base = Flow.run Flow.Dual_vth (gen ()) in
  let sized =
    Flow.run ~options:{ Flow.default_options with Flow.gate_sizing = true } Flow.Dual_vth
      (gen ())
  in
  Alcotest.(check bool) "resizes happen" true (sized.Flow.cells_downsized > 0);
  Alcotest.(check bool) "area improves" true (sized.Flow.area < base.Flow.area);
  Alcotest.(check bool) "timing met" true (sized.Flow.timing_met)

(* --- incremental STA --- *)

let agree msg a b =
  let eps_eq x y =
    (Float.is_nan x && Float.is_nan y)
    || x = y
    || Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  in
  let nl = Sta.netlist a in
  Netlist.iter_nets nl (fun nid ->
      if not (eps_eq (Sta.arrival a nid) (Sta.arrival b nid)) then
        Alcotest.failf "%s: arrival mismatch on %s (%f vs %f)" msg (Netlist.net_name nl nid)
          (Sta.arrival a nid) (Sta.arrival b nid);
      if not (eps_eq (Sta.net_slack a nid) (Sta.net_slack b nid)) then
        Alcotest.failf "%s: slack mismatch on %s" msg (Netlist.net_name nl nid));
  if not (eps_eq (Sta.wns a) (Sta.wns b)) then Alcotest.failf "%s: wns mismatch" msg;
  if not (eps_eq (Sta.worst_hold_slack a) (Sta.worst_hold_slack b)) then
    Alcotest.failf "%s: hold mismatch" msg

let test_incremental_matches_full () =
  let nl = Generators.multiplier ~name:"m6" ~bits:6 lib in
  let cfg = Sta.config ~clock_period:(period_for nl 0.2) () in
  let sta = Sta.analyze cfg nl in
  let rng = Smt_util.Rng.create 9 in
  let victims =
    Netlist.live_insts nl
    |> List.filter (fun iid ->
           let c = Netlist.cell nl iid in
           c.Cell.style = Vth.Plain && c.Cell.vth = Vth.Low
           && not (Func.is_sequential c.Cell.kind)
           && not (Func.is_infrastructure c.Cell.kind))
  in
  let batch = Smt_util.Rng.sample rng 12 (Array.of_list victims) |> Array.to_list in
  List.iter
    (fun iid ->
      let c = Netlist.cell nl iid in
      Netlist.replace_cell nl iid (Library.restyle lib c Vth.High Vth.Plain))
    batch;
  Sta.update sta;
  let full = Sta.analyze cfg nl in
  agree "hv swap" sta full

let test_incremental_resize () =
  let nl = Generators.ripple_adder ~name:"ra" ~bits:8 lib in
  let cfg = Sta.config ~clock_period:(period_for nl 0.2) () in
  let sta = Sta.analyze cfg nl in
  let some =
    Netlist.live_insts nl
    |> List.filter (fun iid ->
           Library.has_variant ~drive:4 lib (Netlist.cell nl iid).Cell.kind
             (Netlist.cell nl iid).Cell.vth (Netlist.cell nl iid).Cell.style)
    |> List.filteri (fun i _ -> i mod 5 = 0)
  in
  List.iter
    (fun iid -> Netlist.replace_cell nl iid (Library.resize lib (Netlist.cell nl iid) 4))
    some;
  Sta.update sta;
  agree "resize" sta (Sta.analyze cfg nl)

let test_incremental_chain () =
  (* several successive updates stay exact *)
  let nl = Generators.multiplier ~name:"m5" ~bits:5 lib in
  let cfg = Sta.config ~clock_period:(period_for nl 0.3) () in
  let sta = Sta.analyze cfg nl in
  let rng = Smt_util.Rng.create 4 in
  for _round = 1 to 5 do
    let victims =
      Netlist.live_insts nl
      |> List.filter (fun iid ->
             let c = Netlist.cell nl iid in
             (not (Func.is_sequential c.Cell.kind)) && not (Func.is_infrastructure c.Cell.kind))
    in
    let batch = Smt_util.Rng.sample rng 5 (Array.of_list victims) |> Array.to_list in
    List.iter
      (fun iid ->
        let c = Netlist.cell nl iid in
        let vth = if c.Cell.vth = Vth.Low then Vth.High else Vth.Low in
        if Library.has_variant ~drive:c.Cell.drive lib c.Cell.kind vth c.Cell.style then
          Netlist.replace_cell nl iid (Library.restyle lib c vth c.Cell.style))
      batch;
    Sta.update sta
  done;
  agree "chained updates" sta (Sta.analyze cfg nl)

let m_analyses = Smt_obs.Metrics.counter "sta.analyses"
let m_incremental = Smt_obs.Metrics.counter "sta.incremental_updates"

(* Runs [Sta.update] and returns how many analyses and incremental
   updates it counted. *)
let counted_update sta =
  let a0 = Smt_obs.Metrics.counter_value m_analyses in
  let i0 = Smt_obs.Metrics.counter_value m_incremental in
  Sta.update sta;
  ( Smt_obs.Metrics.counter_value m_analyses - a0,
    Smt_obs.Metrics.counter_value m_incremental - i0 )

let test_incremental_buffer_splice () =
  (* A buffer spliced before a gate input moves an old gate onto a new
     net that the buffer, appended after it, drives: the stored order
     would time the gate before its fanin, so [update] must recompile
     (counted as an analysis) rather than extend the graph. *)
  let nl = Generators.multiplier ~name:"mult4" ~bits:4 lib in
  let cfg = Sta.config ~clock_period:(period_for nl 0.2) () in
  let sta = Sta.analyze cfg nl in
  let victim =
    List.find
      (fun iid ->
        (not (Func.is_sequential (Netlist.cell nl iid).Cell.kind))
        && Netlist.pin_net nl iid "A" <> None)
      (Netlist.live_insts nl)
  in
  let from_net = Option.get (Netlist.pin_net nl victim "A") in
  let new_net = Netlist.fresh_net nl "eco" in
  Netlist.move_sink nl ~from_net { Netlist.inst = victim; pin_name = "A" } ~to_net:new_net;
  ignore
    (Netlist.add_inst nl ~name:(Netlist.fresh_inst_name nl "ecobuf") (Library.hold_buffer lib)
       [ ("A", from_net); ("Z", new_net) ]);
  Alcotest.(check (pair int int)) "recompiled" (1, 0) (counted_update sta);
  agree "buffer splice" sta (Sta.analyze cfg nl)

let test_incremental_ff_splice () =
  (* The hold ECO's edit: a buffer spliced before a flip-flop's D pin.
     The buffer reads an old net and drives a new one that only the D
     pin reads, so [update] appends it to the stored order: an
     incremental update, not an analysis. *)
  let nl = Generators.counter ~name:"cnt4" ~bits:4 lib in
  let cfg = Sta.config ~clock_period:(period_for nl 0.2) () in
  let sta = Sta.analyze cfg nl in
  let ff =
    List.find
      (fun iid ->
        (Netlist.cell nl iid).Cell.kind = Func.Dff && Netlist.pin_net nl iid "D" <> None)
      (Netlist.live_insts nl)
  in
  let d_net = Option.get (Netlist.pin_net nl ff "D") in
  let new_net = Netlist.fresh_net nl "eco" in
  Netlist.move_sink nl ~from_net:d_net { Netlist.inst = ff; pin_name = "D" } ~to_net:new_net;
  ignore
    (Netlist.add_inst nl ~name:(Netlist.fresh_inst_name nl "ecobuf") (Library.hold_buffer lib)
       [ ("A", d_net); ("Z", new_net) ]);
  Alcotest.(check (pair int int)) "extended in place" (0, 1) (counted_update sta);
  agree "flip-flop D splice" sta (Sta.analyze cfg nl)

let test_incremental_cycle_recovers () =
  (* An edit that closes a combinational cycle makes [update] raise, as
     [analyze] does; once the edit is undone, the next update recompiles
     and is exact again. *)
  let nl = Generators.multiplier ~name:"m4c" ~bits:4 lib in
  let cfg = Sta.config ~clock_period:(period_for nl 0.2) () in
  let sta = Sta.analyze cfg nl in
  let comb iid = not (Func.is_sequential (Netlist.cell nl iid).Cell.kind) in
  let readers g =
    match Netlist.output_net nl g with
    | Some n ->
      List.sort_uniq compare (List.map (fun p -> p.Netlist.inst) (Netlist.sinks nl n))
    | None -> []
  in
  let g, h =
    Array.find_map
      (fun g ->
        match (Netlist.pin_net nl g "A", List.filter comb (readers g)) with
        | Some _, h :: _ -> Some (g, h)
        | _ -> None)
      (Netlist.topo_order nl)
    |> Option.get
  in
  let pin = { Netlist.inst = g; pin_name = "A" } in
  let from_net = Option.get (Netlist.pin_net nl g "A") in
  let loop_net = Option.get (Netlist.output_net nl h) in
  Netlist.move_sink nl ~from_net pin ~to_net:loop_net;
  let cycle_name f =
    match f () with _ -> None | exception Netlist.Combinational_cycle name -> Some name
  in
  let named = cycle_name (fun () -> Netlist.topo_order nl) in
  Alcotest.(check bool) "the levelizer raises" true (named <> None);
  Alcotest.(check (option string)) "raises on the cycle, naming the levelizer's instance" named
    (cycle_name (fun () -> Sta.update sta));
  Netlist.move_sink nl ~from_net:loop_net pin ~to_net:from_net;
  Sta.update sta;
  agree "cycle undone" sta (Sta.analyze cfg nl)

(* --- corners --- *)

let test_corner_typical_neutral () =
  let c = Corner.typical tech in
  Alcotest.(check (float 1e-9)) "leak x1" 1.0 (Corner.leakage_factor tech c);
  Alcotest.(check (float 1e-9)) "delay x1" 1.0 (Corner.delay_factor tech c)

let test_corner_monotone_temperature () =
  let prev = ref 0.0 in
  List.iter
    (fun temp ->
      let c = Corner.make ~temperature_c:temp tech in
      let f = Corner.leakage_factor tech c in
      Alcotest.(check bool) "leak grows with temperature" true (f > !prev);
      prev := f)
    [ -40.0; 0.0; 25.0; 85.0; 125.0 ]

let test_corner_process () =
  let fast = Corner.make ~process:Corner.Fast tech in
  let slow = Corner.make ~process:Corner.Slow tech in
  Alcotest.(check bool) "fast leaks more" true
    (Corner.leakage_factor tech fast > Corner.leakage_factor tech slow);
  Alcotest.(check bool) "slow is slower" true
    (Corner.delay_factor tech slow > Corner.delay_factor tech fast)

let test_corner_leakage_scaling () =
  let nl = Generators.c17 lib in
  let base = Leakage.standby nl in
  let hot = Leakage.at_corner (Corner.make ~temperature_c:95.0 tech) nl in
  Alcotest.(check bool) "hot leaks much more" true
    (hot.Leakage.total > 5.0 *. base.Leakage.total);
  (* scaling is uniform: the ratio structure is preserved *)
  Alcotest.(check (float 1e-6)) "uniform scaling"
    (hot.Leakage.total /. base.Leakage.total)
    (hot.Leakage.low_vth_logic /. base.Leakage.low_vth_logic)

(* --- retention --- *)

let test_retention_cell () =
  let ret = Library.retention_dff lib in
  let lv = Library.variant lib Func.Dff Vth.Low Vth.Plain in
  Alcotest.(check bool) "recognized" true (Library.is_retention ret);
  Alcotest.(check bool) "plain not retention" false (Library.is_retention lv);
  Alcotest.(check bool) "bigger" true (ret.Cell.area > lv.Cell.area);
  Alcotest.(check bool) "slower" true (ret.Cell.intrinsic_delay > lv.Cell.intrinsic_delay);
  Alcotest.(check bool) "far less standby leak" true
    (ret.Cell.leak_standby < lv.Cell.leak_standby /. 50.0)

let test_retention_conversion () =
  let nl = Generators.multiplier ~name:"m6" ~bits:6 lib in
  let golden = Clone.copy nl in
  let cfg = Sta.config ~clock_period:(period_for nl 0.3) () in
  let before = (Leakage.standby nl).Leakage.sequential in
  let r = Retention.convert cfg nl in
  Alcotest.(check bool) "ffs converted" true (r.Retention.converted > 0);
  Alcotest.(check int) "listing agrees" r.Retention.converted
    (List.length (Retention.retention_registers nl));
  Alcotest.(check bool) "sequential leakage falls" true
    ((Leakage.standby nl).Leakage.sequential < before);
  Alcotest.(check bool) "timing met" true (Sta.meets_timing r.Retention.sta);
  Alcotest.(check bool) "function preserved" true (Equiv.equivalent ~vectors:32 golden nl)

let test_retention_flow_knob () =
  let gen () = Generators.multiplier ~name:"m6" ~bits:6 lib in
  let base = Flow.run Flow.Improved_smt (gen ()) in
  let ret =
    Flow.run
      ~options:{ Flow.default_options with Flow.retention_registers = true }
      Flow.Improved_smt (gen ())
  in
  Alcotest.(check bool) "ffs retained" true (ret.Flow.ffs_retained > 0);
  Alcotest.(check bool) "leakage lower with retention" true
    (ret.Flow.standby_nw < base.Flow.standby_nw);
  Alcotest.(check bool) "timing met" true ret.Flow.timing_met

(* --- new generators --- *)

let test_kogge_stone_correct () =
  let nl = Generators.kogge_stone ~registered:false ~name:"ks4" ~bits:4 lib in
  let sim = Simulator.create nl in
  for x = 0 to 15 do
    for y = 0 to 15 do
      let vec =
        List.init 4 (fun i -> (Printf.sprintf "a%d" i, Logic.of_bool (x land (1 lsl i) <> 0)))
        @ List.init 4 (fun i -> (Printf.sprintf "b%d" i, Logic.of_bool (y land (1 lsl i) <> 0)))
      in
      Simulator.set_inputs sim vec;
      Simulator.propagate sim;
      let outs = Simulator.output_values sim in
      let s =
        List.fold_left
          (fun acc i ->
            match List.assoc_opt (Printf.sprintf "s%d" i) outs with
            | Some Logic.T -> acc lor (1 lsl i)
            | Some (Logic.F | Logic.X) | None -> acc)
          0
          (List.init 4 Fun.id)
      in
      let s = match List.assoc "cout" outs with Logic.T -> s lor 16 | Logic.F | Logic.X -> s in
      Alcotest.(check int) (Printf.sprintf "%d+%d" x y) (x + y) s
    done
  done

let test_kogge_stone_shallower_than_ripple () =
  let ks = Generators.kogge_stone ~registered:false ~name:"ks16" ~bits:16 lib in
  let ra = Generators.ripple_adder ~registered:false ~name:"ra16" ~bits:16 lib in
  let depth nl =
    let sta = Sta.analyze (Sta.config ~clock_period:1e6 ()) nl in
    1e6 -. Sta.wns sta
  in
  Alcotest.(check bool) "prefix adder is faster" true (depth ks < depth ra)

let test_crc_period () =
  (* a 4-bit LFSR with taps [1] (x^4 + x + 1) runs through 15 nonzero
     states when fed zeros from a nonzero seed *)
  let nl = Generators.crc ~name:"crc4" ~bits:4 ~taps:[ 1 ] lib in
  Alcotest.(check (list string)) "valid" [] (Check.validate nl);
  let sim = Simulator.create nl in
  Simulator.reset sim;
  let ffs =
    List.filter (fun i -> (Netlist.cell nl i).Cell.kind = Func.Dff) (Netlist.live_insts nl)
  in
  (* seed state 1 via the flip-flop driving s0 *)
  let ff0 =
    List.find
      (fun i ->
        match Netlist.output_net nl i with
        | Some q -> Netlist.net_name nl q = "s0"
        | None -> false)
      ffs
  in
  Simulator.set_ff_state sim ff0 Logic.T;
  Simulator.set_inputs sim [ ("din", Logic.F) ];
  let read () =
    Simulator.propagate sim;
    let outs = Simulator.output_values sim in
    List.fold_left
      (fun acc i ->
        match List.assoc (Printf.sprintf "crc%d" i) outs with
        | Logic.T -> acc lor (1 lsl i)
        | Logic.F | Logic.X -> acc)
      0 [ 0; 1; 2; 3 ]
  in
  let initial = read () in
  Alcotest.(check int) "seeded" 1 initial;
  let seen = Hashtbl.create 17 in
  let rec run i =
    if i > 16 then Alcotest.fail "no period found"
    else begin
      Simulator.clock_edge sim;
      let s = read () in
      if s = initial then i
      else begin
        Alcotest.(check bool) "nonzero states" true (s <> 0);
        if Hashtbl.mem seen s then Alcotest.fail "premature repeat";
        Hashtbl.add seen s ();
        run (i + 1)
      end
    end
  in
  Alcotest.(check int) "maximal period 15" 15 (run 1)

(* --- pipeline generator --- *)

let test_pipeline_structure () =
  let nl = Generators.pipeline ~name:"p3" ~stages:3 ~width:8 ~stage_depth:4 lib in
  Alcotest.(check (list string)) "valid" [] (Check.validate nl);
  let stats = Smt_netlist.Nl_stats.compute nl in
  (* (stages+1) register banks of `width` flip-flops *)
  Alcotest.(check int) "register banks" (4 * 8) stats.Smt_netlist.Nl_stats.sequential;
  (* stage timing: critical path ~ one stage of logic, much shorter than a
     flattened (3x deeper) comb block *)
  let flat = Generators.pipeline ~name:"p1" ~stages:1 ~width:8 ~stage_depth:12 lib in
  let crit n =
    let sta = Sta.analyze (Sta.config ~clock_period:1e6 ()) n in
    1e6 -. Sta.wns sta
  in
  Alcotest.(check bool) "pipelining shortens the critical path" true (crit nl < crit flat)

let () =
  Alcotest.run "smt_extensions"
    [
      ( "drive-strength",
        [
          Alcotest.test_case "variants exist" `Quick test_drive_variants_exist;
          Alcotest.test_case "linear scaling" `Quick test_drive_scaling;
          Alcotest.test_case "resize/restyle compose" `Quick test_resize_restyle_compose;
          Alcotest.test_case "MT variants sized" `Quick test_mt_variants_sized;
          Alcotest.test_case "downsize recovers area" `Quick test_downsize_recovers_area;
          Alcotest.test_case "flow knob" `Quick test_flow_gate_sizing_knob;
        ] );
      ( "incremental-sta",
        [
          Alcotest.test_case "matches full (vth swaps)" `Quick test_incremental_matches_full;
          Alcotest.test_case "matches full (resize)" `Quick test_incremental_resize;
          Alcotest.test_case "chained updates" `Quick test_incremental_chain;
          Alcotest.test_case "buffer splice re-analyzes" `Quick test_incremental_buffer_splice;
          Alcotest.test_case "flip-flop D splice extends in place" `Quick
            test_incremental_ff_splice;
          Alcotest.test_case "recovers after a cycle-closing edit" `Quick
            test_incremental_cycle_recovers;
        ] );
      ( "corners",
        [
          Alcotest.test_case "typical neutral" `Quick test_corner_typical_neutral;
          Alcotest.test_case "temperature monotone" `Quick test_corner_monotone_temperature;
          Alcotest.test_case "process" `Quick test_corner_process;
          Alcotest.test_case "leakage scaling" `Quick test_corner_leakage_scaling;
        ] );
      ( "retention",
        [
          Alcotest.test_case "cell" `Quick test_retention_cell;
          Alcotest.test_case "conversion" `Quick test_retention_conversion;
          Alcotest.test_case "flow knob" `Quick test_retention_flow_knob;
        ] );
      ( "generators",
        [
          Alcotest.test_case "kogge-stone arithmetic" `Quick test_kogge_stone_correct;
          Alcotest.test_case "prefix vs ripple depth" `Quick test_kogge_stone_shallower_than_ripple;
          Alcotest.test_case "crc maximal period" `Quick test_crc_period;
          Alcotest.test_case "pipeline structure" `Quick test_pipeline_structure;
        ] );
    ]
