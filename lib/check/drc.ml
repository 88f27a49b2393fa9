module Netlist = Smt_netlist.Netlist
module Placement = Smt_place.Placement
module Cell = Smt_cell.Cell
module Func = Smt_cell.Func
module Vth = Smt_cell.Vth
module Library = Smt_cell.Library
module Tech = Smt_cell.Tech
module V = Violation

type phase = Pre_mt | Post_mt

let infer_phase nl =
  let post = ref false in
  Netlist.iter_insts nl (fun iid ->
      let c = Netlist.cell nl iid in
      if c.Cell.kind = Func.Sleep_switch || Vth.style_equal c.Cell.style Vth.Mt_vgnd then
        post := true);
  if !post then Post_mt else Pre_mt

(* The pin-completeness contract: logic inputs, plus the control pins
   each kind carries. *)
let required_pins (cell : Cell.t) =
  let logic = Array.to_list (Func.input_names cell.Cell.kind) in
  let mte = if Vth.style_equal cell.Cell.style Vth.Mt_embedded then [ "MTE" ] else [] in
  let extra =
    match cell.Cell.kind with
    | Func.Dff -> [ "CK" ]
    | Func.Sleep_switch -> [ "MTE" ]
    | Func.Holder -> [ "MTE"; "Z" ]
    | _ -> []
  in
  logic @ extra @ mte

let finite_nonneg x = Float.is_finite x && x >= 0.0

(* Fields every cell must keep sane for timing/power to mean anything. *)
let cell_data_problems (c : Cell.t) =
  List.filter_map
    (fun (field, v) -> if finite_nonneg v then None else Some (field, v))
    [
      ("area", c.Cell.area);
      ("input_cap", c.Cell.input_cap);
      ("intrinsic_delay", c.Cell.intrinsic_delay);
      ("drive_res", c.Cell.drive_res);
      ("leak_standby", c.Cell.leak_standby);
      ("leak_active", c.Cell.leak_active);
    ]

let bad_cell_violations ~loc (c : Cell.t) =
  List.map
    (fun (field, v) ->
      {
        V.severity = V.Error;
        code = V.Bad_cell_data;
        loc;
        message =
          Printf.sprintf "cell %s has %s %s" c.Cell.name field
            (if Float.is_nan v then "NaN" else Printf.sprintf "%g" v);
        hint = Some "restore the canonical library cell";
      })
    (cell_data_problems c)

let check ?phase ?place ?(expect_buffered_mte = true) nl =
  let phase = match phase with Some p -> p | None -> infer_phase nl in
  let out = ref [] in
  let emit severity code loc ?hint fmt =
    Printf.ksprintf
      (fun message -> out := { V.severity; code; loc; message; hint } :: !out)
      fmt
  in
  let mte_net = Walk.find_mte_net nl in
  (* --- net rules --- *)
  Netlist.iter_nets nl (fun nid ->
      let name = Netlist.net_name nl nid in
      let loc = V.Net name in
      let has_driver = Netlist.driver nl nid <> None || Netlist.is_pi nl nid in
      let has_load = Netlist.sinks nl nid <> [] || Netlist.is_po nl nid in
      if (not has_driver) && has_load then
        if mte_net = Some nid then
          emit V.Error V.Mte_undriven loc
            "MTE net has %d sinks but no driver and is not a primary input"
            (List.length (Netlist.sinks nl nid))
        else
          emit V.Error V.Undriven_net loc "net has loads but no driver";
      if has_driver && (not has_load) && Netlist.holder_of nl nid = None then
        emit V.Warn V.Dangling_net loc "net is driven but nothing reads it";
      (match Walk.keeper_state nl nid with
      | Walk.No_keeper | Walk.Keeper _ -> ()
      | Walk.Dead_keeper _ ->
        emit V.Error V.Bad_holder loc ~hint:"re-insert a holder"
          "keeper is a removed instance"
      | Walk.Not_a_holder h ->
        emit V.Error V.Bad_holder loc ~hint:"re-insert a holder"
          "keeper %s is not a HOLDER" (Netlist.inst_name nl h));
      match phase with
      | Pre_mt -> ()
      | Post_mt ->
        if Walk.holder_required nl nid && Netlist.holder_of nl nid = None then
          emit V.Error V.Missing_holder loc ~hint:"insert an output holder"
            "MT-driven value crosses into awake logic with no holder");
  (* MTE fanout cap: the buffering stage must keep every stage under the
     technology limit; a bare over-cap net means it has not run (or was
     broken afterwards). *)
  (match mte_net with
  | Some nid when expect_buffered_mte ->
    let cap = (Library.tech (Netlist.lib nl)).Tech.mte_max_fanout in
    let fanout = List.length (Netlist.sinks nl nid) in
    if fanout > cap then
      emit V.Warn V.Mte_unbuffered (V.Net (Netlist.net_name nl nid))
        "MTE net drives %d pins directly (technology cap %d); buffering needed"
        fanout cap
  | Some _ | None -> ());
  (* --- instance rules --- *)
  (* One pass for switch membership instead of a scan per switch below. *)
  let populated_switches = Hashtbl.create 97 in
  List.iter
    (fun sw -> Hashtbl.replace populated_switches sw ())
    (Walk.populated_switches nl);
  Netlist.iter_insts nl (fun iid ->
      let cell = Netlist.cell nl iid in
      let name = Netlist.inst_name nl iid in
      let loc = V.Inst name in
      List.iter
        (fun pin ->
          if Netlist.pin_net nl iid pin = None then
            let hint =
              if String.equal pin "MTE" then Some "reconnect to the MTE net" else None
            in
            emit V.Error V.Floating_input loc ?hint "required pin %s is unconnected" pin)
        (required_pins cell);
      (match Func.output_names cell.Cell.kind with
      | [||] -> ()
      | outs ->
        if Netlist.pin_net nl iid outs.(0) = None then
          emit V.Warn V.Unconnected_output loc "output %s is unconnected" outs.(0));
      (match cell_data_problems cell with
      | [] -> ()
      | problems ->
        List.iter
          (fun (field, v) ->
            emit V.Error V.Bad_cell_data loc
              ~hint:"restore the canonical library cell"
              "cell %s has %s %s" cell.Cell.name field
              (if Float.is_nan v then "NaN" else Printf.sprintf "%g" v))
          problems);
      if cell.Cell.kind = Func.Sleep_switch then begin
        let w = cell.Cell.switch_width in
        if not (Float.is_finite w && w > 0.0) then
          emit V.Error V.Degenerate_switch loc ~hint:"clamp to a sane footer width"
            "sleep switch width is %s"
            (if Float.is_nan w then "NaN" else Printf.sprintf "%g" w);
        if not (Hashtbl.mem populated_switches iid) then
          emit V.Warn V.Orphan_switch loc ~hint:"remove the unused switch"
            "sleep switch has no member MT-cells"
      end;
      match phase with
      | Pre_mt -> (
        match cell.Cell.style with
        | Vth.Mt_vgnd ->
          emit V.Error V.Premature_vgnd loc
            "instance has a VGND port before switch insertion"
        | Vth.Plain | Vth.Mt_embedded | Vth.Mt_no_vgnd -> ())
      | Post_mt -> (
        match cell.Cell.style with
        | Vth.Mt_vgnd -> (
          match Walk.vgnd_state nl iid with
          | Walk.Ungated | Walk.Gated _ -> ()
          | Walk.Floating_vgnd ->
            emit V.Error V.Unreachable_vgnd loc ~hint:"attach to a live sleep switch"
              "MT-cell has a floating VGND port"
          | Walk.Dead_switch _ ->
            emit V.Error V.Unreachable_vgnd loc ~hint:"attach to a live sleep switch"
              "MT-cell hangs from a removed switch")
        | Vth.Mt_no_vgnd ->
          emit V.Error V.Missing_vgnd_port loc
            ~hint:"restyle to the VGND variant and attach to a switch"
            "instance still lacks its VGND port after switch insertion"
        | Vth.Plain | Vth.Mt_embedded -> ()));
  (* --- placement rule --- *)
  (match place with
  | None -> ()
  | Some p ->
    Netlist.iter_insts nl (fun iid ->
        if Placement.inst_point_opt p iid = None then
          emit V.Warn V.Unplaced_inst
            (V.Inst (Netlist.inst_name nl iid))
            ~hint:"place at a legal point" "instance has no placement coordinates"));
  (* --- design rules --- *)
  (try ignore (Netlist.topo_order nl)
   with Netlist.Combinational_cycle where ->
     emit V.Error V.Comb_loop V.Design "combinational cycle through %s" where);
  let has_endpoint =
    List.exists (fun (_, nid) -> not (Netlist.is_clock_net nl nid)) (Netlist.outputs nl)
    ||
    let seq = ref false in
    Netlist.iter_insts nl (fun iid ->
        if Func.is_sequential (Netlist.cell nl iid).Cell.kind then seq := true);
    !seq
  in
  if not has_endpoint then
    emit V.Warn V.No_timing_endpoints V.Design
      "no primary outputs and no flip-flops: STA has no endpoints, so \
       Flow.minimal_period falls back to its documented 100 ps default";
  List.rev !out

let check_library lib =
  List.concat_map
    (fun (c : Cell.t) -> bad_cell_violations ~loc:(V.Cell c.Cell.name) c)
    (Library.cells lib)

let has_errors vs = List.exists (fun v -> v.V.severity = V.Error) vs

(* String view for callers that only ask "is it well-formed?" (empty
   list = well-formed, lines are human-readable rendered violations).
   Error severity only, so a design that is merely suspicious still
   validates to []. *)
let validate ?phase nl =
  List.map V.to_string (V.errors (check ?phase ~expect_buffered_mte:false nl))

let is_valid ?phase nl = validate ?phase nl = []
