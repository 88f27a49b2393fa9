module Netlist = Smt_netlist.Netlist
module Placement = Smt_place.Placement
module Geom = Smt_util.Geom
module Rng = Smt_util.Rng
module Tech = Smt_cell.Tech
module Cell = Smt_cell.Cell
module Library = Smt_cell.Library
module Wire = Smt_sta.Wire

type corner = Estimated | Extracted

type net_rc = { length : float; cap : float; res : float }

type t = {
  which : corner;
  by_net : net_rc array;  (* indexed by net id *)
  tech : Tech.t;
}

let corner t = t.which

(* A net past the end of [by_net] (created after extraction) has no
   wire; the accessors read the array in place, allocating nothing. *)
let has_rc t nid = nid >= 0 && nid < Array.length t.by_net

let net_length t nid = if has_rc t nid then t.by_net.(nid).length else 0.0
let net_cap t nid = if has_rc t nid then t.by_net.(nid).cap else 0.0
let net_res t nid = if has_rc t nid then t.by_net.(nid).res else 0.0

let total_wirelength t = Array.fold_left (fun acc rc -> acc +. rc.length) 0.0 t.by_net

let of_lengths tech which lengths =
  let price len =
    { length = len; cap = len *. tech.Tech.wire_c_per_um; res = len *. tech.Tech.wire_r_per_um }
  in
  { which; by_net = Array.map price lengths; tech }

let tech_of place = Library.tech (Netlist.lib (Placement.netlist place))

let estimate ?(seed = 1234) place =
  let nl = Placement.netlist place in
  let tech = tech_of place in
  let rng = Rng.create seed in
  let n = Netlist.net_count nl in
  let lengths =
    Array.init n (fun nid ->
        (* Deterministic per-net error: the estimator is optimistic on some
           nets and pessimistic on others. *)
        let err = Rng.float_in rng (-.tech.Tech.rc_estimation_error) tech.Tech.rc_estimation_error in
        Placement.net_hpwl place nid *. (1.0 +. err))
  in
  of_lengths tech Estimated lengths

let extract ?(detour = 1.15) place =
  let nl = Placement.netlist place in
  let tech = tech_of place in
  let n = Netlist.net_count nl in
  let lengths =
    Array.init n (fun nid ->
        let pts = Placement.pin_points place nid in
        Geom.spanning_length pts *. detour)
  in
  of_lengths tech Extracted lengths

(* ohm * fF = 1e-3 ps *)
let rc_ps r_ohm c_ff = r_ohm *. c_ff *. 1e-3

let wire_model t nl =
  let net_cap nid = net_cap t nid in
  let net_delay nid sink =
    let r = net_res t nid and c = net_cap nid in
    let sink_cap = (Netlist.cell nl sink).Cell.input_cap in
    (* Elmore with the lumped-T approximation: the sink sees half the wire
       capacitance through the full wire resistance plus its own pin cap. *)
    rc_ps r ((0.5 *. c) +. sink_cap)
  in
  { Wire.net_cap; Wire.net_delay }
