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

(* --- the per-MT-cell current table --- *)

(* One row per instance, read on the first use of a member.  Rows hold
   per-member values only: every fold over a member list runs over the
   list each time, in its order, so the same members priced newest-first
   and oldest-first give the two orders' own bits. *)
type currents = {
  c_nl : Netlist.t;
  c_activity : Activity.t option;
  c_load_of : (Netlist.inst_id -> float) option;
  (* per instance, scaled by the cell's load scale *)
  peak : float array;  (* peak_current *. scale; nan until read *)
  expected : float array;  (* (avg_current *. toggle) *. scale *)
}

let currents ?activity ?load_of nl =
  let n = Netlist.inst_count nl in
  {
    c_nl = nl;
    c_activity = activity;
    c_load_of = load_of;
    peak = Array.make n Float.nan;
    expected = Array.make n 0.0;
  }

(* [iid]'s row, read on first use. *)
let row t iid =
  if Float.is_nan t.peak.(iid) then begin
    let c = Netlist.cell t.c_nl iid in
    let s = scale_of t.c_load_of iid in
    t.peak.(iid) <- c.Cell.peak_current *. s;
    t.expected.(iid) <- c.Cell.avg_current *. toggle_of t.c_activity iid *. s
  end;
  iid

let simultaneous t members =
  match members with
  | [] -> 0.0
  | first :: _ ->
    (* The worst cell (the first strict maximum) contributes its peak;
       everyone else their expected draw. *)
    let worst =
      List.fold_left
        (fun best iid -> if t.peak.(row t iid) > t.peak.(best) then iid else best)
        (row t first) members
    in
    let rest = List.fold_left (fun acc iid -> acc +. t.expected.(row t iid)) 0.0 members in
    t.peak.(worst) +. rest -. t.expected.(worst)

let sustained t members =
  List.fold_left (fun acc iid -> acc +. t.expected.(row t iid)) 0.0 members

let sizing_current t ~diversity members =
  if diversity then simultaneous t members
  else
    List.fold_left
      (fun acc iid -> acc +. (Netlist.cell t.c_nl iid).Cell.peak_current)
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
  let t = currents ?activity ?load_of nl in
  let tech = Smt_cell.Library.tech (Netlist.lib nl) in
  let limit = match limit with Some l -> l | None -> tech.Tech.bounce_limit in
  List.map
    (fun (sw, members) ->
      let current = simultaneous t members in
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
