module Netlist = Smt_netlist.Netlist
module Walk = Smt_check.Walk
module Cell = Smt_cell.Cell
module Func = Smt_cell.Func
module Vth = Smt_cell.Vth
module Library = Smt_cell.Library
module Rng = Smt_util.Rng
module V = Smt_check.Violation
module Rules = Smt_verify.Rules

type fault =
  | Drop_switch
  | Disconnect_holder
  | Poison_library
  | Break_mte_fanout
  | Orphan_cluster
  | Zero_width_switch
  | Undrive_net
  | Holder_wrong_net
  | Invert_mte_polarity
  | Drop_isolation
  | Isolation_enable_cross

let all =
  [
    Drop_switch; Disconnect_holder; Poison_library; Break_mte_fanout;
    Orphan_cluster; Zero_width_switch; Undrive_net; Holder_wrong_net;
    Invert_mte_polarity; Drop_isolation; Isolation_enable_cross;
  ]

let name = function
  | Drop_switch -> "drop-switch"
  | Disconnect_holder -> "disconnect-holder"
  | Poison_library -> "poison-library"
  | Break_mte_fanout -> "break-mte-fanout"
  | Orphan_cluster -> "orphan-cluster"
  | Zero_width_switch -> "zero-width-switch"
  | Undrive_net -> "undrive-net"
  | Holder_wrong_net -> "holder-wrong-net"
  | Invert_mte_polarity -> "invert-mte-polarity"
  | Drop_isolation -> "drop-isolation"
  | Isolation_enable_cross -> "isolation-enable-cross"

let of_name s = List.find_opt (fun f -> String.equal (name f) s) all

let expected_codes = function
  | Drop_switch -> [ V.Unreachable_vgnd ]
  | Disconnect_holder -> [ V.Missing_holder ]
  | Poison_library -> [ V.Bad_cell_data ]
  | Break_mte_fanout -> [ V.Floating_input ]
  | Orphan_cluster -> [ V.Unreachable_vgnd; V.Orphan_switch ]
  | Zero_width_switch -> [ V.Degenerate_switch ]
  | Undrive_net -> [ V.Undriven_net ]
  | Holder_wrong_net | Invert_mte_polarity | Drop_isolation
  | Isolation_enable_cross ->
    []

(* Rule ids the semantic pass must report; referenced through the
   catalog so a rule rename cannot silently break the mapping. *)
let expected_rules = function
  | Drop_switch | Poison_library | Break_mte_fanout | Orphan_cluster
  | Zero_width_switch | Undrive_net ->
    []
  | Disconnect_holder -> [ Rules.float_into_awake.Rules.id ]
  | Holder_wrong_net ->
    [ Rules.float_into_awake.Rules.id; Rules.useless_holder.Rules.id ]
  | Invert_mte_polarity -> [ Rules.mte_polarity.Rules.id ]
  | Drop_isolation -> [ Rules.missing_isolation.Rules.id ]
  | Isolation_enable_cross -> [ Rules.isolation_enable_off_domain.Rules.id ]

let repairable = function
  | Drop_switch | Disconnect_holder | Poison_library | Break_mte_fanout
  | Orphan_cluster | Zero_width_switch ->
    true
  | Undrive_net | Holder_wrong_net | Invert_mte_polarity | Drop_isolation
  | Isolation_enable_cross ->
    false

let requires_domains = function
  | Drop_isolation | Isolation_enable_cross -> true
  | _ -> false

type injection = {
  fault : fault;
  target : string;
  detail : string;
}

let pick_opt rng = function
  | [] -> None
  | xs -> Some (List.nth xs (Rng.int rng (List.length xs)))

(* Switches that actually gate MT-cells: dropping or detaching those is
   what makes the fault observable. *)
let populated_switches = Smt_check.Walk.populated_switches

let inject ~seed nl fault =
  let rng = Rng.create (0x0fa17 + seed) in
  let made target detail = Some { fault; target; detail } in
  match fault with
  | Drop_switch -> (
    match pick_opt rng (populated_switches nl) with
    | None -> None
    | Some sw ->
      let target = Netlist.inst_name nl sw in
      let members = List.length (Netlist.switch_members nl sw) in
      Netlist.remove_inst nl sw;
      made target (Printf.sprintf "removed switch gating %d MT-cells" members))
  | Disconnect_holder -> (
    let held = ref [] in
    Netlist.iter_nets nl (fun nid ->
        match Netlist.holder_of nl nid with
        | Some h when Walk.holder_required nl nid -> held := (nid, h) :: !held
        | Some _ | None -> ());
    match pick_opt rng !held with
    | None -> None
    | Some (nid, h) ->
      let target = Netlist.net_name nl nid in
      let hname = Netlist.inst_name nl h in
      Netlist.remove_inst nl h;
      made target (Printf.sprintf "deleted required holder %s" hname))
  | Poison_library -> (
    let logic =
      List.filter
        (fun iid ->
          let k = (Netlist.cell nl iid).Cell.kind in
          (not (Func.is_infrastructure k)) && not (Func.is_sequential k))
        (Netlist.live_insts nl)
    in
    match pick_opt rng logic with
    | None -> None
    | Some iid ->
      let c = Netlist.cell nl iid in
      Netlist.replace_cell nl iid { c with Cell.leak_standby = Float.nan };
      made (Netlist.inst_name nl iid)
        (Printf.sprintf "poisoned cell %s with NaN standby leakage" c.Cell.name))
  | Break_mte_fanout -> (
    match Netlist.find_net nl "MTE" with
    | None -> None
    | Some mte -> (
      match pick_opt rng (Netlist.sinks nl mte) with
      | None -> None
      | Some (pin : Netlist.pin) ->
        Netlist.disconnect nl pin.Netlist.inst pin.Netlist.pin_name;
        made
          (Netlist.inst_name nl pin.Netlist.inst)
          (Printf.sprintf "disconnected pin %s from the MTE net" pin.Netlist.pin_name)))
  | Orphan_cluster -> (
    match pick_opt rng (populated_switches nl) with
    | None -> None
    | Some sw ->
      let members = Netlist.switch_members nl sw in
      List.iter (fun iid -> Netlist.set_vgnd_switch nl iid None) members;
      made (Netlist.inst_name nl sw)
        (Printf.sprintf "detached all %d members from their switch" (List.length members)))
  | Zero_width_switch -> (
    match pick_opt rng (Netlist.switches nl) with
    | None -> None
    | Some sw ->
      let c = Netlist.cell nl sw in
      Netlist.replace_cell nl sw { c with Cell.switch_width = 0.0 };
      made (Netlist.inst_name nl sw) "degraded footer to zero width")
  | Undrive_net -> (
    let drivers =
      List.filter
        (fun iid ->
          match Netlist.output_net nl iid with
          | Some out ->
            Netlist.sinks nl out <> []
            && not (Func.is_infrastructure (Netlist.cell nl iid).Cell.kind)
          | None -> false)
        (Netlist.live_insts nl)
    in
    match pick_opt rng drivers with
    | None -> None
    | Some iid ->
      let out_pin = (Func.output_names (Netlist.cell nl iid).Cell.kind).(0) in
      let net =
        match Netlist.output_net nl iid with
        | Some out -> Netlist.net_name nl out
        | None -> "?"
      in
      Netlist.disconnect nl iid out_pin;
      made net (Printf.sprintf "disconnected driver %s.%s" (Netlist.inst_name nl iid) out_pin))
  | Holder_wrong_net -> (
    (* Rewire a required keeper's Z pin to a net that never floats,
       then restore the bookkeeping record on the original net.  Every
       structural rule still passes — the record points at a live
       HOLDER, all pins are connected — but the silicon follows the
       wires: the recorded net is unguarded in standby.  Only a
       value-level analysis working from the Z pin can see it. *)
    let held = ref [] in
    Netlist.iter_nets nl (fun nid ->
        match Netlist.holder_of nl nid with
        | Some h when Walk.holder_required nl nid && not (Netlist.is_dead nl h) ->
          held := (nid, h) :: !held
        | Some _ | None -> ());
    match pick_opt rng (List.rev !held) with
    | None -> None
    | Some (nid, h) -> (
      let dests = ref [] in
      Netlist.iter_nets nl (fun d ->
          if
            d <> nid
            && Netlist.holder_of nl d = None
            && (not (Netlist.is_clock_net nl d))
            &&
            match Netlist.driver nl d with
            | Some p -> not (Cell.is_mt (Netlist.cell nl p.Netlist.inst))
            | None -> false
          then dests := d :: !dests);
      match pick_opt rng (List.rev !dests) with
      | None -> None
      | Some dest ->
        Netlist.disconnect nl h "Z";
        Netlist.connect nl h "Z" dest;
        (* the wires now guard [dest]; the stale record still claims [nid] *)
        Netlist.set_holder nl dest None;
        Netlist.set_holder nl nid (Some h);
        made (Netlist.net_name nl nid)
          (Printf.sprintf "moved keeper %s to net %s; record still claims %s"
             (Netlist.inst_name nl h) (Netlist.net_name nl dest)
             (Netlist.net_name nl nid))))
  | Invert_mte_polarity -> (
    (* Splice an inverter into one switch's enable.  Structurally
       flawless — every pin connected, the new net driven and read —
       but that cluster's footer is on whenever the design sleeps. *)
    match pick_opt rng (populated_switches nl) with
    | None -> None
    | Some sw -> (
      match Netlist.pin_net nl sw "MTE" with
      | None -> None
      | Some m ->
        let inv = Library.variant (Netlist.lib nl) Func.Inv Vth.High Vth.Plain in
        let nname = Netlist.fresh_net nl "mte_n" in
        let iname = Netlist.fresh_inst_name nl "mte_inv" in
        ignore (Netlist.add_inst nl ~name:iname inv [ ("A", m); ("Z", nname) ]);
        Netlist.disconnect nl sw "MTE";
        Netlist.connect nl sw "MTE" nname;
        made (Netlist.inst_name nl sw)
          (Printf.sprintf "inverted enable polarity via %s" iname)))
  | Drop_isolation -> (
    (* Delete a declared isolation clamp at a domain boundary.  The net
       is not [holder_required] — every sink is an MT cell — so no
       structural rule misses the keeper; only the mode-vector analysis
       sees the crossing float into the awake side. *)
    let isos = ref [] in
    Netlist.iter_insts nl (fun iid ->
        if Netlist.is_isolation nl iid then
          match Netlist.pin_net nl iid "Z" with
          | Some nid when not (Walk.holder_required nl nid) ->
            isos := (nid, iid) :: !isos
          | Some _ | None -> ());
    match pick_opt rng (List.rev !isos) with
    | None -> None
    | Some (nid, iid) ->
      let target = Netlist.net_name nl nid in
      let iname = Netlist.inst_name nl iid in
      Netlist.remove_inst nl iid;
      made target (Printf.sprintf "deleted isolation holder %s" iname))
  | Isolation_enable_cross -> (
    (* Rewire a declared isolation clamp's enable to a different
       domain's enable net.  Structurally flawless — the pin is still
       driven by a primary input — but the clamp now engages with the
       wrong domain's sleep vector. *)
    let dom_of_net nid =
      match Netlist.driver nl nid with
      | Some p -> Netlist.inst_domain nl p.Netlist.inst
      | None -> None
    in
    let sites = ref [] in
    Netlist.iter_insts nl (fun iid ->
        if Netlist.is_isolation nl iid then
          match Netlist.pin_net nl iid "Z" with
          | Some nid -> (
            match dom_of_net nid with
            | Some d -> (
              let foreign =
                List.filter_map
                  (fun (dn, mte) -> if dn <> d then mte else None)
                  (Netlist.domains nl)
              in
              match foreign with
              | [] -> ()
              | m :: _ -> sites := (iid, m) :: !sites)
            | None -> ())
          | None -> ());
    match pick_opt rng (List.rev !sites) with
    | None -> None
    | Some (iid, m) ->
      Netlist.connect nl iid "MTE" m;
      made (Netlist.inst_name nl iid)
        (Printf.sprintf "rewired isolation enable to %s" (Netlist.net_name nl m)))
