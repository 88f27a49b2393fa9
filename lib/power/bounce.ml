module Netlist = Smt_netlist.Netlist
module Cell = Smt_cell.Cell
module Tech = Smt_cell.Tech
module Activity = Smt_sim.Activity

let default_toggle = 0.5

let toggle_of activity iid =
  match activity with
  | Some a -> Float.max 0.05 (Activity.factor a iid)
  | None -> default_toggle

(* Switching current moves the charge on the driven net: scale with load,
   neutral (1.0) at a typical 7.5 fF. *)
let load_scale load_ff =
  let s = 0.5 +. (Float.max 0.0 load_ff /. 15.0) in
  if s < 0.4 then 0.4 else if s > 2.5 then 2.5 else s

let scale_of load_of iid =
  match load_of with Some f -> load_scale (f iid) | None -> 1.0

let simultaneous_current ?activity ?load_of nl ~members =
  match members with
  | [] -> 0.0
  | _ ->
    let peak iid = (Netlist.cell nl iid).Cell.peak_current *. scale_of load_of iid in
    let expected iid =
      let c = Netlist.cell nl iid in
      c.Cell.avg_current *. toggle_of activity iid *. scale_of load_of iid
    in
    let worst_iid =
      List.fold_left
        (fun best iid ->
          match best with
          | None -> Some iid
          | Some b -> if peak iid > peak b then Some iid else best)
        None members
    in
    (* The worst cell contributes its peak; everyone else their expected
       draw. *)
    let rest = List.fold_left (fun acc iid -> acc +. expected iid) 0.0 members in
    (match worst_iid with
    | Some w -> peak w +. rest -. expected w
    | None -> 0.0)

let sustained_current ?activity ?load_of nl ~members =
  List.fold_left
    (fun acc iid ->
      let c = Netlist.cell nl iid in
      acc +. (c.Cell.avg_current *. toggle_of activity iid *. scale_of load_of iid))
    0.0 members

(* A line of resistance R with its current I injected uniformly along it
   drops I*R/2 at the far end and I*R/3 on average along the line; the
   model charges the mean, R/3.  A VGND tree splits the current across
   its branches, which keeps the lumped model conservative. *)
let vgnd_wire_res tech ~length = tech.Tech.wire_r_per_um *. Float.max 0.0 length /. 3.0

let bounce_v tech ~switch_width ~wire_length ~current_ua =
  if current_ua <= 0.0 then 0.0
  else begin
    let r_sw = Tech.switch_resistance tech ~width:(Float.max 0.1 switch_width) in
    let r_wire = vgnd_wire_res tech ~length:wire_length in
    current_ua *. 1e-6 *. (r_sw +. r_wire)
  end

type cluster_report = {
  switch : Netlist.inst_id;
  members : int;
  current_ua : float;
  wire_length : float;
  bounce : float;
  ok : bool;
}

let analyze ?activity ?load_of ?limit nl ~wire_length_of =
  let tech = Smt_cell.Library.tech (Netlist.lib nl) in
  let limit = match limit with Some l -> l | None -> tech.Tech.bounce_limit in
  List.map
    (fun (sw, members) ->
      let current = simultaneous_current ?activity ?load_of nl ~members in
      let width = (Netlist.cell nl sw).Cell.switch_width in
      let wire_length = wire_length_of sw in
      let b = bounce_v tech ~switch_width:width ~wire_length ~current_ua:current in
      {
        switch = sw;
        members = List.length members;
        current_ua = current;
        wire_length;
        bounce = b;
        ok = b <= limit;
      })
    (Netlist.switch_groups nl)

let worst reports = List.fold_left (fun acc r -> Float.max acc r.bounce) 0.0 reports

let violations reports =
  List.fold_left (fun acc r -> if r.ok then acc else acc + 1) 0 reports

let bounce_of_fn reports nl =
  let by_switch = Hashtbl.create 97 in
  List.iter (fun r -> Hashtbl.replace by_switch r.switch r.bounce) reports;
  let tech = Smt_cell.Library.tech (Netlist.lib nl) in
  fun iid ->
    let c = Netlist.cell nl iid in
    match c.Cell.style with
    | Smt_cell.Vth.Mt_vgnd | Smt_cell.Vth.Mt_no_vgnd -> (
      match Netlist.vgnd_switch nl iid with
      | Some sw -> (match Hashtbl.find_opt by_switch sw with Some b -> b | None -> 0.0)
      | None -> 0.0)
    | Smt_cell.Vth.Mt_embedded ->
      bounce_v tech ~switch_width:c.Cell.switch_width ~wire_length:0.0
        ~current_ua:c.Cell.peak_current
    | Smt_cell.Vth.Plain -> 0.0
