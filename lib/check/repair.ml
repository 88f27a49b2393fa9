module Netlist = Smt_netlist.Netlist
module Placement = Smt_place.Placement
module Cell = Smt_cell.Cell
module Func = Smt_cell.Func
module Vth = Smt_cell.Vth
module Library = Smt_cell.Library
module Geom = Smt_util.Geom
module V = Violation

type result = {
  repaired : int;
  actions : string list;
}

let mte_net_of nl =
  match Netlist.find_net nl "MTE" with
  | Some nid -> nid
  | None -> Netlist.add_input nl "MTE"

let finite_nonneg x = Float.is_finite x && x >= 0.0

let cell_is_sane (c : Cell.t) =
  List.for_all finite_nonneg
    [
      c.Cell.area; c.Cell.input_cap; c.Cell.intrinsic_delay; c.Cell.drive_res;
      c.Cell.leak_standby; c.Cell.leak_active;
    ]

let place_near place nl iid near =
  match place with
  | None -> ()
  | Some p ->
    let pt =
      match near with
      | Some other -> (
        match Placement.inst_point_opt p other with
        | Some pt -> pt
        | None -> Geom.center (Placement.die p))
      | None -> Geom.center (Placement.die p)
    in
    ignore nl;
    Placement.place_inst p iid pt

let repair ?place ?(clamp_width = 10.0) nl violations =
  let lib = Netlist.lib nl in
  let actions = ref [] in
  let act fmt = Printf.ksprintf (fun s -> actions := s :: !actions) fmt in
  let inst_of = function
    | V.Inst name -> Netlist.find_inst nl name
    | V.Design | V.Net _ | V.Cell _ -> None
  in
  let net_of = function
    | V.Net name -> Netlist.find_net nl name
    | V.Design | V.Inst _ | V.Cell _ -> None
  in
  let live iid = not (Netlist.is_dead nl iid) in
  let done_insts = Hashtbl.create 17 in
  let once iid f =
    if live iid && not (Hashtbl.mem done_insts iid) then begin
      Hashtbl.add done_insts iid ();
      f ()
    end
  in
  (* 1. Restore canonical cells where instance data went bad, so later
     passes (width clamping, switch candidacy) see sane numbers. *)
  List.iter
    (fun v ->
      match (v.V.code, inst_of v.V.loc) with
      | V.Bad_cell_data, Some iid ->
        once iid (fun () ->
            let c = Netlist.cell nl iid in
            match Library.find_opt lib c.Cell.name with
            | Some canon when cell_is_sane canon && not (cell_is_sane c) ->
              Netlist.replace_cell nl iid canon;
              act "restored canonical cell %s on %s" canon.Cell.name
                (Netlist.inst_name nl iid)
            | Some _ | None -> ())
      | _ -> ())
    violations;
  (* 2. Clamp degenerate footer widths. *)
  Hashtbl.reset done_insts;
  List.iter
    (fun v ->
      match (v.V.code, inst_of v.V.loc) with
      | V.Degenerate_switch, Some iid ->
        once iid (fun () ->
            let c = Netlist.cell nl iid in
            if not (Float.is_finite c.Cell.switch_width && c.Cell.switch_width > 0.0)
            then begin
              Netlist.replace_cell nl iid (Library.switch lib ~width:clamp_width);
              act "clamped switch %s width to %g" (Netlist.inst_name nl iid) clamp_width
            end)
      | _ -> ())
    violations;
  (* 3. Reconnect floating MTE pins. *)
  Hashtbl.reset done_insts;
  List.iter
    (fun v ->
      match (v.V.code, inst_of v.V.loc) with
      | V.Floating_input, Some iid ->
        once iid (fun () ->
            let c = Netlist.cell nl iid in
            let needs_mte =
              (c.Cell.kind = Func.Sleep_switch || c.Cell.kind = Func.Holder
              || Vth.style_equal c.Cell.style Vth.Mt_embedded)
              && Netlist.pin_net nl iid "MTE" = None
            in
            if needs_mte then begin
              Netlist.connect nl iid "MTE" (mte_net_of nl);
              act "reconnected %s.MTE to the MTE net" (Netlist.inst_name nl iid)
            end)
      | _ -> ())
    violations;
  (* 4. Re-home MT-cells whose VGND is unreachable (floating port, removed
     switch, or still portless): restyle where needed, then attach to the
     nearest live sane switch, creating one when none remains. *)
  let orphans =
    List.filter_map
      (fun v ->
        match (v.V.code, inst_of v.V.loc) with
        | (V.Unreachable_vgnd | V.Missing_vgnd_port), Some iid when live iid -> Some iid
        | _ -> None)
      violations
    |> List.sort_uniq compare
  in
  if orphans <> [] then begin
    List.iter
      (fun iid ->
        let c = Netlist.cell nl iid in
        if Vth.style_equal c.Cell.style Vth.Mt_no_vgnd then begin
          Netlist.replace_cell nl iid
            (Library.variant ~drive:c.Cell.drive lib c.Cell.kind Vth.Low Vth.Mt_vgnd);
          act "restyled %s to its VGND-port variant" (Netlist.inst_name nl iid)
        end)
      orphans;
    let candidates = Walk.sane_switches nl in
    let candidates =
      if candidates <> [] then candidates
      else begin
        let sw_cell = Library.switch lib ~width:clamp_width in
        let name = Netlist.fresh_inst_name nl "sw_repair" in
        let sw = Netlist.add_inst nl ~name sw_cell [ ("MTE", mte_net_of nl) ] in
        (match place with
        | Some p -> Placement.place_inst p sw (Placement.centroid p orphans)
        | None -> ());
        act "created replacement switch %s (width %g)" name clamp_width;
        [ sw ]
      end
    in
    let nearest iid =
      match place with
      | None -> List.hd candidates
      | Some p -> (
        match Placement.inst_point_opt p iid with
        | None -> List.hd candidates
        | Some pt ->
          List.fold_left
            (fun (best, best_d) sw ->
              match Placement.inst_point_opt p sw with
              | None -> (best, best_d)
              | Some sp ->
                let d = Geom.manhattan pt sp in
                if d < best_d then (sw, d) else (best, best_d))
            (List.hd candidates, infinity)
            candidates
          |> fst)
    in
    List.iter
      (fun iid ->
        let sw = nearest iid in
        Netlist.set_vgnd_switch nl iid (Some sw);
        act "attached %s VGND to switch %s" (Netlist.inst_name nl iid)
          (Netlist.inst_name nl sw))
      orphans
  end;
  (* 5. Holders: drop broken keepers, then (re-)insert where required. *)
  let holder_nets = Hashtbl.create 17 in
  List.iter
    (fun v ->
      match (v.V.code, net_of v.V.loc) with
      | V.Bad_holder, Some nid ->
        if not (Hashtbl.mem holder_nets nid) then begin
          Hashtbl.add holder_nets nid ();
          Netlist.set_holder nl nid None;
          act "detached broken keeper from net %s" (Netlist.net_name nl nid)
        end
      | _ -> ())
    violations;
  let needs_holder = Hashtbl.create 17 in
  List.iter
    (fun v ->
      match (v.V.code, net_of v.V.loc) with
      | (V.Missing_holder | V.Bad_holder), Some nid -> Hashtbl.replace needs_holder nid ()
      | _ -> ())
    violations;
  Hashtbl.iter
    (fun nid () ->
      if Walk.holder_required nl nid && Netlist.holder_of nl nid = None then begin
        let mte = mte_net_of nl in
        let name = Netlist.fresh_inst_name nl "holder_repair" in
        let h = Netlist.add_inst nl ~name (Library.holder lib) [ ("MTE", mte); ("Z", nid) ] in
        place_near place nl h
          (match Netlist.driver nl nid with
          | Some d -> Some d.Netlist.inst
          | None -> None);
        act "inserted holder %s on net %s" name (Netlist.net_name nl nid)
      end)
    needs_holder;
  (* 6. Remove switches that are still member-less after re-homing. *)
  List.iter
    (fun v ->
      match (v.V.code, inst_of v.V.loc) with
      | V.Orphan_switch, Some iid when live iid ->
        if Netlist.switch_members nl iid = [] then begin
          let name = Netlist.inst_name nl iid in
          Netlist.remove_inst nl iid;
          act "removed orphan switch %s" name
        end
      | _ -> ())
    violations;
  (* 7. Drop unplaced instances at the die center so geometry passes can
     run. *)
  (match place with
  | None -> ()
  | Some p ->
    List.iter
      (fun v ->
        match (v.V.code, inst_of v.V.loc) with
        | V.Unplaced_inst, Some iid when live iid ->
          if Placement.inst_point_opt p iid = None then begin
            Placement.place_inst p iid (Geom.center (Placement.die p));
            act "placed %s at the die center" (Netlist.inst_name nl iid)
          end
        | _ -> ())
      violations);
  let actions = List.rev !actions in
  { repaired = List.length actions; actions }
