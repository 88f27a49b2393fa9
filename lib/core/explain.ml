module Netlist = Smt_netlist.Netlist
module Nl_stats = Smt_netlist.Nl_stats
module Sta = Smt_sta.Sta
module Leakage = Smt_power.Leakage
module Cell = Smt_cell.Cell
module Func = Smt_cell.Func
module Vth = Smt_cell.Vth
module Text_table = Smt_util.Text_table
module J = Smt_obs.Obs_json

type cell = Str of string | Int of int | Num of float

type column = {
  header : string option;
  key : string option;
  fmt : (float -> string, unit, string) format;
}

type table = {
  name : string;
  title : string option;
  columns : column list;
  rows : cell list list;
  text_rows : cell list list;
}

type block =
  | Line of string | Field of string * cell | Table of table | Items of string * block list list
type t = block list

let col ?header ?key ?(fmt : (float -> string, unit, string) format = "%.2f") () =
  { header; key; fmt }

let table ?title ?(text_rows = []) name columns rows =
  Table { name; title; columns; rows; text_rows }

(* --- the two renderers ---------------------------------------------------- *)

let text_cell c = function
  | Str s -> s
  | Int n -> string_of_int n
  | Num f -> Printf.sprintf c.fmt f

let json_cell = function Str s -> J.str s | Int n -> string_of_int n | Num f -> J.num_exact f

let rec lines doc =
  List.concat_map
    (function
      | Line s -> [ s ]
      | Field _ | Table { rows = []; text_rows = []; _ } -> []
      | Table t ->
        let row cells =
          List.filter_map
            (fun (c, cell) -> Option.map (fun _ -> text_cell c cell) c.header)
            (List.combine t.columns cells)
        in
        Option.to_list t.title
        @ [
            Text_table.render
              ~header:(List.filter_map (fun c -> c.header) t.columns)
              (List.map row (t.rows @ t.text_rows));
          ]
      | Items (_, items) -> List.concat_map lines items)
    doc

let text doc = String.concat "\n" (lines doc)

let rec members doc =
  List.concat_map
    (function
      | Line _ -> []
      | Field (k, v) -> [ (k, json_cell v) ]
      | Table t ->
        let row cells =
          J.obj
            (List.filter_map
               (fun (c, cell) -> Option.map (fun k -> (k, json_cell cell)) c.key)
               (List.combine t.columns cells))
        in
        [ (t.name, J.arr (List.map row t.rows)) ]
      | Items (k, items) -> [ (k, J.arr (List.map (fun item -> J.obj (members item)) items)) ])
    doc

let json doc = J.obj (members doc)

(* --- headlines ------------------------------------------------------------ *)

let headline (r : Flow.report) =
  let technique = Flow.technique_name r.Flow.technique in
  [
    Line
      (Printf.sprintf "%s (%s), clock %.1f ps: wns %.2f ps, standby %.2f nW" r.Flow.circuit
         technique r.Flow.clock_period r.Flow.wns r.Flow.standby_nw);
    Field ("circuit", Str r.Flow.circuit);
    Field ("technique", Str technique);
  ]

let summary sta =
  let met b = if b then "MET" else "VIOLATED" in
  [
    Line
      (Printf.sprintf
         "timing %s: wns %.1f ps, tns %.1f ps over %d endpoints; hold %s (worst %.1f ps)"
         (met (Sta.meets_timing sta)) (Sta.wns sta) (Sta.tns sta)
         (List.length (Sta.endpoints sta))
         (met (Sta.meets_hold sta)) (Sta.worst_hold_slack sta));
  ]

(* --- critical paths ------------------------------------------------------- *)

let vth_label (c : Cell.t) =
  match c.Cell.style with
  | Vth.Plain -> Vth.to_string c.Cell.vth
  | style -> Printf.sprintf "%s %s" (Vth.to_string c.Cell.vth) (Vth.style_to_string style)

let arc_columns =
  [
    col ~header:"Instance" ~key:"instance" ();
    col ~header:"Cell" ~key:"cell" ();
    col ~header:"Vth" ~key:"vth" ();
    col ~header:"Cell ps" ~key:"cell_ps" ();
    col ~header:"Wire ps" ~key:"wire_ps" ();
    col ~header:"Arrival ps" ~key:"arrival_ps" ();
    col ~key:"slew_ps" ();
  ]

let path sta (p : Sta.path) =
  let nl = Sta.netlist sta in
  let ep = p.Sta.path_endpoint in
  let endpoint = Sta.endpoint_name sta ep in
  let arc (a : Sta.path_arc) =
    let who, what, vth =
      match a.Sta.arc_inst with
      | Some iid ->
        let c = Netlist.cell nl iid in
        (Netlist.inst_name nl iid, c.Cell.name, vth_label c)
      | None -> ("(launch)", "-", "-")
    in
    [ Str who; Str what; Str vth; Num a.Sta.arc_cell_delay; Num a.Sta.arc_wire_delay;
      Num a.Sta.arc_arrival; Num a.Sta.arc_slew ]
  in
  [
    Line
      (Printf.sprintf "path to %s: arrival %.2f, required %.2f, slack %.2f %s" endpoint
         ep.Sta.arrival ep.Sta.required ep.Sta.slack
         (if ep.Sta.slack >= 0.0 then "(MET)" else "(VIOLATED)"));
    Field ("endpoint", Str endpoint);
    Field ("arrival_ps", Num ep.Sta.arrival);
    Field ("required_ps", Num ep.Sta.required);
    Field ("slack_ps", Num ep.Sta.slack);
    Field ("capture_wire_ps", Num p.Sta.path_capture_wire);
    (* The capture hop has no driving gate, so it has no JSON arc: the
       path object carries its wire delay as capture_wire_ps. *)
    table "arcs" arc_columns (List.map arc p.Sta.path_arcs)
      ~text_rows:
        [ [ Str "(capture)"; Str "-"; Str "-"; Num 0.0; Num p.Sta.path_capture_wire;
            Num ep.Sta.arrival; Str "-" ] ];
  ]

let paths ~k sta =
  [
    Field ("wns_ps", Num (Sta.wns sta));
    Line "";
    Items ("paths", List.map (path sta) (Sta.worst_paths sta k));
  ]

(* --- leakage attribution -------------------------------------------------- *)

let contributors (l : Leakage.breakdown) =
  [
    ("low-Vth logic", "low_vth_logic", l.Leakage.low_vth_logic);
    ("high-Vth logic", "high_vth_logic", l.Leakage.high_vth_logic);
    ("flip-flops", "sequential", l.Leakage.sequential);
    ("MT-cell residual", "mt_residual", l.Leakage.mt_residual);
    ("sleep switches", "switches", l.Leakage.switches);
    ("embedded MT-cells", "embedded_mt", l.Leakage.embedded_mt);
    ("output holders", "holders", l.Leakage.holders);
    ("clock/MTE/ECO buffers", "infrastructure", l.Leakage.infrastructure);
  ]

let power nl =
  let lk = Leakage.standby nl in
  let total = lk.Leakage.total in
  let share v = if total = 0.0 then "-" else Printf.sprintf "%.1f%%" (100.0 *. v /. total) in
  [
    Line
      (Printf.sprintf "Standby leakage: %.2f nW total (active floor %.2f nW)" total
         (Leakage.active nl));
    table "contributors"
      [ col ~header:"Contributor" (); col ~header:"nW" (); col ~header:"Share" () ]
      (List.filter_map
         (fun (label, _, v) -> if v > 0.0 then Some [ Str label; Num v; Str (share v) ] else None)
         (contributors lk));
  ]

let share_table name title label shares =
  table name ~title
    [ col ~header:label ~key:"label" (); col ~header:"Cells" ~key:"cells" ();
      col ~header:"nW" ~key:"nw" () ]
    (List.map
       (fun (s : Leakage.class_share) ->
         [ Str s.Leakage.share_label; Int s.Leakage.share_cells; Num s.Leakage.share_nw ])
       shares)

let waterfall (stages : Flow.stage list) =
  let prev = ref 0.0 in
  List.mapi
    (fun i (s : Flow.stage) ->
      let delta = if i = 0 then 0.0 else s.Flow.stage_standby_nw -. !prev in
      prev := s.Flow.stage_standby_nw;
      [ Str s.Flow.stage_name; Num s.Flow.stage_standby_nw; Num delta ])
    stages

let leakage (r : Flow.report) (art : Flow.artifacts) =
  let nl = Sta.netlist art.Flow.art_sta in
  [
    Field ("standby_nw", Num r.Flow.standby_nw);
    Line "";
    share_table "by_vth" "by threshold class:" "Class" (Leakage.by_vth nl);
    share_table "by_function" "by cell function:" "Function" (Leakage.by_function nl);
    table "waterfall" ~title:"stage-by-stage waterfall:"
      [
        col ~header:"Stage" ~key:"stage" ();
        col ~header:"Standby nW" ~key:"standby_nw" ();
        col ~header:"Delta nW" ~key:"delta_nw" ~fmt:"%+.2f" ();
      ]
      (waterfall r.Flow.stages);
  ]

(* --- cluster attribution -------------------------------------------------- *)

let clusters (r : Flow.report) (art : Flow.artifacts) =
  let params = art.Flow.art_params in
  let attrs =
    Leakage.clusters ~cell_limit:params.Cluster.cell_limit
      ~bounce_limit:params.Cluster.bounce_limit
      (Sta.netlist art.Flow.art_sta) ~bounce:art.Flow.art_bounce
  in
  let n = List.length attrs in
  [
    Line (Printf.sprintf "%d clusters, total switch width %.2f um" n r.Flow.total_switch_width);
    Field ("clusters", Int n);
    Field ("total_switch_width", Num r.Flow.total_switch_width);
    Line "";
  ]
  @ (if n = 0 then [ Line "no sleep switches (nothing clustered)"; Line "" ] else [])
  @ [
      table "attribution"
        [
          col ~header:"Switch" ~key:"switch" ();
          col ~header:"Cells" ~key:"members" ();
          col ~header:"Occupancy" ();
          col ~key:"cell_limit" ();
          col ~header:"VGND um" ~key:"vgnd_um" ();
          col ~header:"Bounce V" ~key:"bounce_v" ~fmt:"%.4f" ();
          col ~key:"bounce_limit_v" ();
          col ~header:"Margin V" ~fmt:"%.4f" ();
          col ~header:"Members nW" ~key:"members_nw" ();
          col ~header:"Switch nW" ~key:"switch_nw" ();
        ]
        (List.map
           (fun (a : Leakage.cluster_attr) ->
             [ Str a.Leakage.ca_switch_name; Int a.Leakage.ca_members;
               Str (Printf.sprintf "%d/%d" a.Leakage.ca_members a.Leakage.ca_cell_limit);
               Int a.Leakage.ca_cell_limit; Num a.Leakage.ca_vgnd_um; Num a.Leakage.ca_bounce_v;
               Num a.Leakage.ca_bounce_limit;
               Num (a.Leakage.ca_bounce_limit -. a.Leakage.ca_bounce_v);
               Num a.Leakage.ca_members_nw; Num a.Leakage.ca_switch_nw ])
           attrs);
    ]

(* --- area ----------------------------------------------------------------- *)

let area nl =
  let stats = Nl_stats.compute nl in
  let by_kind = Hashtbl.create 31 in
  Netlist.iter_insts nl (fun iid ->
      let c = Netlist.cell nl iid in
      let key = Func.to_string c.Cell.kind in
      let total, count =
        match Hashtbl.find_opt by_kind key with Some (t, n) -> (t, n) | None -> (0.0, 0)
      in
      Hashtbl.replace by_kind key (total +. c.Cell.area, count + 1));
  let kinds =
    Hashtbl.fold (fun k (a, n) acc -> (k, a, n) :: acc) by_kind []
    |> List.sort (fun (_, a1, _) (_, a2, _) -> compare a2 a1)
    |> List.filteri (fun i _ -> i < 8)
  in
  let um2 = col ~header:"um^2" ~fmt:"%.1f" () in
  [
    Line
      (Printf.sprintf "Area: %.1f um^2 over %d instances (MT fraction %.2f)"
         stats.Nl_stats.area_total stats.Nl_stats.instances
         (Nl_stats.mt_area_fraction stats));
    table "categories" [ col ~header:"Category" (); um2 ]
      [
        [ Str "plain logic"; Num stats.Nl_stats.area_logic ];
        [ Str "MT-cells"; Num stats.Nl_stats.area_mt_cells ];
        [ Str "sleep switches"; Num stats.Nl_stats.area_switches ];
        [ Str "output holders"; Num stats.Nl_stats.area_holders ];
      ];
    Line "";
    table "kinds" ~title:"top cell kinds:"
      [ col ~header:"Kind" (); col ~header:"Count" (); um2 ]
      (List.map (fun (k, a, n) -> [ Str k; Int n; Num a ]) kinds);
  ]
