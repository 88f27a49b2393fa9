module Names = Map.Make (String)

(* The fixed catalogue is filled by [default] and only read afterwards.
   Switch cells are created on demand, possibly by several domains at
   once, so they live in an immutable map swapped atomically: a reader
   always sees a complete map, and no resize can race a lookup. *)
type t = {
  tech : Tech.t;
  table : (string, Cell.t) Hashtbl.t;
  switches : Cell.t Names.t Atomic.t;
}

let tech t = t.tech

(* Low-Vth base characterization per kind:
   (area um^2, input cap fF, intrinsic ps, drive ps/fF, leak nW, avg uA, peak uA) *)
let base_params kind =
  match (kind : Func.kind) with
  | Inv -> (2.0, 1.6, 10.0, 0.90, 12.0, 0.8, 5.0)
  | Buf -> (3.0, 1.6, 16.0, 0.70, 14.0, 0.9, 5.5)
  | Nand2 -> (4.0, 2.0, 14.0, 1.00, 20.0, 1.1, 7.0)
  | Nand3 -> (5.2, 2.2, 17.0, 1.15, 26.0, 1.3, 8.0)
  | Nand4 -> (6.4, 2.4, 20.0, 1.30, 32.0, 1.5, 9.0)
  | Nor2 -> (4.2, 2.1, 15.0, 1.10, 21.0, 1.1, 7.0)
  | Nor3 -> (5.6, 2.3, 19.0, 1.30, 27.0, 1.3, 8.0)
  | And2 -> (4.8, 2.0, 18.0, 0.95, 22.0, 1.2, 7.0)
  | And3 -> (6.0, 2.2, 21.0, 1.05, 28.0, 1.4, 8.0)
  | Or2 -> (5.0, 2.1, 19.0, 1.00, 23.0, 1.2, 7.0)
  | Or3 -> (6.2, 2.3, 22.0, 1.10, 29.0, 1.4, 8.0)
  | Xor2 -> (7.5, 2.6, 24.0, 1.20, 34.0, 1.8, 10.0)
  | Xnor2 -> (7.5, 2.6, 24.0, 1.20, 34.0, 1.8, 10.0)
  | Aoi21 -> (5.4, 2.2, 18.0, 1.15, 26.0, 1.3, 8.0)
  | Oai21 -> (5.4, 2.2, 18.0, 1.15, 26.0, 1.3, 8.0)
  | Mux2 -> (7.0, 2.4, 22.0, 1.10, 32.0, 1.6, 9.0)
  | Dff -> (18.0, 2.8, 45.0, 1.00, 55.0, 2.5, 12.0)
  | Clkbuf -> (4.5, 2.0, 14.0, 0.60, 18.0, 2.0, 10.0)
  | Sleep_switch -> (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
  | Holder -> (1.6, 1.0, 0.0, 0.0, 0.25, 0.05, 0.2)

(* Derating of the low-Vth base into the other flavours. *)
let hv_delay_factor = 1.45
let hv_drive_factor = 1.35
let hv_leak_factor = 0.02
let hv_current_factor = 0.8
let mt_delay_factor = 1.06
let mt_drive_factor = 1.08
let mt_area_factor = 1.12
let mt_residual_leak_factor = 0.01

(* A library's embedded footer is sized once for worst-case simultaneous
   switching across PVT, with no knowledge of the instance's real activity:
   it carries a guardband a shared, activity-sized footer does not need. *)
let embedded_switch_guardband = 1.6

let comb_kinds : Func.kind list =
  [
    Func.Inv; Func.Buf; Func.Nand2; Func.Nand3; Func.Nand4; Func.Nor2;
    Func.Nor3; Func.And2; Func.And3; Func.Or2; Func.Or3; Func.Xor2;
    Func.Xnor2; Func.Aoi21; Func.Oai21; Func.Mux2;
  ]

let drives = [ 1; 2; 4 ]

let variant_name ?(drive = 1) kind (vth : Vth.t) (style : Vth.mt_style) =
  let suffix =
    match (style, vth) with
    | Vth.Plain, Vth.Low -> "LVT"
    | Vth.Plain, Vth.High -> "HVT"
    | Vth.Mt_embedded, _ -> "MTE"
    | Vth.Mt_no_vgnd, _ -> "MTN"
    | Vth.Mt_vgnd, _ -> "MTV"
  in
  let size = if drive = 1 then "" else Printf.sprintf "_X%d" drive in
  Func.to_string kind ^ "_" ^ suffix ^ size

let dff_setup = 30.0
let dff_hold = 15.0

let make_variant ?(drive = 1) tech kind (vth : Vth.t) (style : Vth.mt_style) : Cell.t =
  let area, cap, intr, drive_res, leak_lv, avg, peak = base_params kind in
  (* A stronger gate is wider transistors throughout: proportionally more
     area, pin capacitance, leakage, and current; proportionally less
     output resistance. *)
  let s = float_of_int drive in
  let area = area *. s
  and cap = cap *. s
  and drive_res = drive_res /. s
  and leak_lv = leak_lv *. s
  and avg = avg *. s
  and peak = peak *. s in
  let seq = Func.is_sequential kind in
  let setup = if seq then dff_setup else 0.0 in
  let hold = if seq then dff_hold else 0.0 in
  let base : Cell.t =
    {
      Cell.name = variant_name ~drive kind vth style;
      kind;
      vth;
      style;
      area;
      input_cap = cap;
      intrinsic_delay = intr;
      drive_res;
      leak_standby = leak_lv;
      leak_active = leak_lv;
      avg_current = avg;
      peak_current = peak;
      switch_width = 0.0;
      setup;
      hold;
      drive;
    }
  in
  match (style, vth) with
  | Vth.Plain, Vth.Low -> base
  | Vth.Plain, Vth.High ->
    {
      base with
      Cell.intrinsic_delay = intr *. hv_delay_factor;
      drive_res = drive_res *. hv_drive_factor;
      leak_standby = leak_lv *. hv_leak_factor;
      leak_active = leak_lv *. hv_leak_factor;
      avg_current = avg *. hv_current_factor;
      peak_current = peak *. hv_current_factor;
    }
  | (Vth.Mt_no_vgnd | Vth.Mt_vgnd), _ ->
    (* Low-Vth logic over a shared (external) footer: the cell itself keeps
       only a residual standby leakage; the footer is accounted per cluster. *)
    {
      base with
      Cell.intrinsic_delay = intr *. mt_delay_factor;
      drive_res = drive_res *. mt_drive_factor;
      area = area *. mt_area_factor;
      leak_standby = leak_lv *. mt_residual_leak_factor;
    }
  | Vth.Mt_embedded, _ ->
    (* Conventional MT-cell: private footer sized for this cell's own peak
       current at the technology bounce limit, plus a private holder. *)
    let w =
      Tech.width_for_bounce tech ~current_ua:peak ~limit_v:tech.Tech.bounce_limit
      *. embedded_switch_guardband
    in
    let holder_area, _, _, _, holder_leak, _, _ = base_params Func.Holder in
    {
      base with
      Cell.intrinsic_delay = intr *. mt_delay_factor;
      drive_res = drive_res *. mt_drive_factor;
      area = (area *. mt_area_factor) +. Tech.switch_area tech ~width:w +. holder_area;
      leak_standby =
        (leak_lv *. mt_residual_leak_factor)
        +. Tech.switch_leakage tech ~width:w +. holder_leak;
      switch_width = w;
    }

let add t cell = Hashtbl.replace t.table cell.Cell.name cell

let quantize_width w = Float.round (w *. 10.0) /. 10.0

(* Width is quantized to tenths; encode 4.2 as "SW_W4p2" so the name stays a
   plain identifier in netlist dumps. *)
let switch_name w =
  let tenths = int_of_float (Float.round (w *. 10.0)) in
  Printf.sprintf "SW_W%dp%d" (tenths / 10) (tenths mod 10)

let make_switch tech ~width : Cell.t =
  let width = Float.max 0.1 (quantize_width width) in
  {
    Cell.name = switch_name width;
    kind = Func.Sleep_switch;
    vth = Vth.High;
    style = Vth.Plain;
    area = Tech.switch_area tech ~width;
    input_cap = tech.Tech.switch_input_cap *. width;
    intrinsic_delay = 0.0;
    drive_res = 0.0;
    leak_standby = Tech.switch_leakage tech ~width;
    leak_active = Tech.switch_leakage tech ~width;
    avg_current = 0.0;
    peak_current = 0.0;
    switch_width = width;
    setup = 0.0;
    hold = 0.0;
    drive = 1;
  }

let make_holder () : Cell.t =
  let area, cap, _, _, leak, avg, peak = base_params Func.Holder in
  {
    Cell.name = "HOLDER";
    kind = Func.Holder;
    vth = Vth.High;
    style = Vth.Plain;
    area;
    input_cap = cap;
    intrinsic_delay = 0.0;
    drive_res = 0.0;
    leak_standby = leak;
    leak_active = leak;
    avg_current = avg;
    peak_current = peak;
    switch_width = 0.0;
    setup = 0.0;
    hold = 0.0;
    drive = 1;
  }

let retention_name = "DFF_RET"

let make_retention tech : Cell.t =
  let base = make_variant tech Func.Dff Vth.Low Vth.Plain in
  {
    base with
    Cell.name = retention_name;
    area = base.Cell.area *. 1.35;
    intrinsic_delay = base.Cell.intrinsic_delay *. 1.12;
    setup = base.Cell.setup *. 1.10;
    leak_standby = 0.45;
    (* active leakage stays at the low-Vth level: the shadow latch only
       matters in standby *)
  }

let default ?(tech = Tech.default) () =
  let t = { tech; table = Hashtbl.create 97; switches = Atomic.make Names.empty } in
  let add_kind kind =
    List.iter
      (fun drive ->
        add t (make_variant ~drive tech kind Vth.Low Vth.Plain);
        add t (make_variant ~drive tech kind Vth.High Vth.Plain);
        (* MT logic is always low-Vth (that is what makes it fast); one name
           per MT style regardless of the requested vth. *)
        add t (make_variant ~drive tech kind Vth.Low Vth.Mt_embedded);
        add t (make_variant ~drive tech kind Vth.Low Vth.Mt_no_vgnd);
        add t (make_variant ~drive tech kind Vth.Low Vth.Mt_vgnd))
      drives
  in
  List.iter add_kind comb_kinds;
  add t (make_variant tech Func.Dff Vth.Low Vth.Plain);
  add t (make_variant tech Func.Dff Vth.High Vth.Plain);
  add t (make_variant tech Func.Clkbuf Vth.Low Vth.Plain);
  add t (make_variant tech Func.Clkbuf Vth.High Vth.Plain);
  add t (make_holder ());
  add t (make_retention tech);
  t

let find_opt t name =
  match Hashtbl.find_opt t.table name with
  | Some _ as c -> c
  | None -> Names.find_opt name (Atomic.get t.switches)

let find t name =
  match find_opt t name with
  | Some c -> c
  | None -> raise Not_found

let variant ?drive t kind vth style = find t (variant_name ?drive kind vth style)

let has_variant ?drive t kind vth style =
  Option.is_some (find_opt t (variant_name ?drive kind vth style))

let restyle t cell vth style = variant ~drive:cell.Cell.drive t cell.Cell.kind vth style

let resize t cell drive = variant ~drive t cell.Cell.kind cell.Cell.vth cell.Cell.style

let switch t ~width =
  let width = Float.max 0.1 (quantize_width width) in
  let name = switch_name width in
  let rec intern () =
    let known = Atomic.get t.switches in
    match Names.find_opt name known with
    | Some c -> c
    | None ->
      let c = make_switch t.tech ~width in
      if Atomic.compare_and_set t.switches known (Names.add name c known) then c
      else intern ()
  in
  intern ()

let holder t = find t "HOLDER"

let retention_dff t = find t retention_name

let is_retention (cell : Cell.t) = String.equal cell.Cell.name retention_name

let mte_buffer t = variant t Func.Buf Vth.High Vth.Plain

(* Clock, MTE, and ECO buffers are high-Vth: they are not on constrained
   data paths and must not leak through standby. *)
let clock_buffer t = find t (variant_name Func.Clkbuf Vth.High Vth.Plain)

let hold_buffer t = variant t Func.Buf Vth.High Vth.Plain

let cells t =
  Hashtbl.fold (fun _ c acc -> c :: acc) t.table []
  @ List.map snd (Names.bindings (Atomic.get t.switches))
