module Netlist = Smt_netlist.Netlist
module Placement = Smt_place.Placement
module Geom = Smt_util.Geom
module Generators = Smt_circuits.Generators
module Library = Smt_cell.Library
module Func = Smt_cell.Func
module Vth = Smt_cell.Vth

let lib = Library.default ()

let test_all_instances_placed () =
  let nl = Generators.multiplier ~name:"m" ~bits:6 lib in
  let place = Placement.place nl in
  let die = Placement.die place in
  List.iter
    (fun iid ->
      match Placement.inst_point_opt place iid with
      | Some p ->
        Alcotest.(check bool)
          (Netlist.inst_name nl iid ^ " inside die")
          true (Geom.contains die p)
      | None -> Alcotest.fail (Netlist.inst_name nl iid ^ " unplaced"))
    (Netlist.live_insts nl)

let test_die_sized_to_utilization () =
  let nl = Generators.multiplier ~name:"m" ~bits:6 lib in
  let place = Placement.place ~utilization:0.5 nl in
  let die = Placement.die place in
  let die_area = Geom.width die *. Geom.height die in
  let cell_area = Netlist.total_area nl in
  Alcotest.(check bool) "die fits cells at utilization" true
    (die_area >= cell_area /. 0.5 *. 0.9)

let test_deterministic_by_seed () =
  let nl1 = Generators.multiplier ~name:"m" ~bits:5 lib in
  let nl2 = Generators.multiplier ~name:"m" ~bits:5 lib in
  let p1 = Placement.place ~seed:7 nl1 and p2 = Placement.place ~seed:7 nl2 in
  List.iter2
    (fun a b ->
      let pa = Placement.inst_point p1 a and pb = Placement.inst_point p2 b in
      Alcotest.(check bool) "same position" true (pa = pb))
    (Netlist.live_insts nl1) (Netlist.live_insts nl2)

let test_rows_legalized () =
  let nl = Generators.multiplier ~name:"m" ~bits:6 lib in
  let place = Placement.place nl in
  let tech = Library.tech lib in
  let row_h = tech.Smt_cell.Tech.row_height in
  (* every y sits at a row centre *)
  List.iter
    (fun iid ->
      let p = Placement.inst_point place iid in
      let frac = Float.rem (p.Geom.y -. (row_h /. 2.0)) row_h in
      Alcotest.(check bool) "on row centre" true (Float.abs frac < 1e-6))
    (Netlist.live_insts nl)

let test_no_overlap_in_rows () =
  let nl = Generators.multiplier ~name:"m" ~bits:5 lib in
  let place = Placement.place nl in
  let tech = Library.tech lib in
  let row_h = tech.Smt_cell.Tech.row_height in
  (* group by row, check x-extents do not overlap *)
  let by_row = Hashtbl.create 97 in
  List.iter
    (fun iid ->
      let p = Placement.inst_point place iid in
      let row = int_of_float (p.Geom.y /. row_h) in
      let w = (Netlist.cell nl iid).Smt_cell.Cell.area /. row_h in
      let lo = p.Geom.x -. (w /. 2.0) and hi = p.Geom.x +. (w /. 2.0) in
      Hashtbl.replace by_row row ((lo, hi) :: (Option.value (Hashtbl.find_opt by_row row) ~default:[])))
    (Netlist.live_insts nl);
  Hashtbl.iter
    (fun _row spans ->
      let sorted = List.sort compare spans in
      let rec walk = function
        | (_, hi1) :: ((lo2, _) as b) :: rest ->
          Alcotest.(check bool) "no overlap" true (lo2 >= hi1 -. 1e-6);
          walk (b :: rest)
        | [ _ ] | [] -> ()
      in
      walk sorted)
    by_row

let test_ports_on_boundary () =
  let nl = Generators.c17 lib in
  let place = Placement.place nl in
  let die = Placement.die place in
  List.iter
    (fun (name, _) ->
      match Placement.port_point place name with
      | Some p -> Alcotest.(check (float 1e-9)) (name ^ " on west edge") die.Geom.lx p.Geom.x
      | None -> Alcotest.fail (name ^ " missing"))
    (Netlist.inputs nl);
  List.iter
    (fun (name, _) ->
      match Placement.port_point place name with
      | Some p -> Alcotest.(check (float 1e-9)) (name ^ " on east edge") die.Geom.hx p.Geom.x
      | None -> Alcotest.fail (name ^ " missing"))
    (Netlist.outputs nl)

let test_place_inst_clamps () =
  let nl = Generators.c17 lib in
  let place = Placement.place nl in
  let die = Placement.die place in
  let iid = List.hd (Netlist.live_insts nl) in
  Placement.place_inst place iid { Geom.x = -100.0; Geom.y = 1e9 };
  let p = Placement.inst_point place iid in
  Alcotest.(check bool) "clamped" true (Geom.contains die p)

let test_hpwl_positive_and_localized () =
  let nl = Generators.multiplier ~name:"m" ~bits:6 lib in
  let place = Placement.place nl in
  let total = Placement.total_hpwl place in
  Alcotest.(check bool) "positive" true (total > 0.0);
  (* refinement should beat a shuffled placement *)
  let nl2 = Generators.multiplier ~name:"m" ~bits:6 lib in
  let place2 = Placement.place ~iterations:0 ~seed:99 nl2 in
  let total2 = Placement.total_hpwl place2 in
  Alcotest.(check bool) "refined <= unrefined * 1.1" true (total <= total2 *. 1.1)

let test_centroid () =
  let nl = Generators.c17 lib in
  let place = Placement.place nl in
  let insts = Netlist.live_insts nl in
  let c = Placement.centroid place insts in
  Alcotest.(check bool) "centroid inside die" true (Geom.contains (Placement.die place) c);
  let empty_c = Placement.centroid place [] in
  let die_c = Geom.center (Placement.die place) in
  Alcotest.(check bool) "empty = die centre" true (empty_c = die_c)

let test_net_hpwl_and_pin_points () =
  let nl = Generators.c17 lib in
  let place = Placement.place nl in
  Netlist.iter_nets nl (fun nid ->
      let pts = Placement.pin_points place nid in
      Alcotest.(check bool) "every net has points" true (pts <> []);
      Alcotest.(check bool) "hpwl non-negative" true (Placement.net_hpwl place nid >= 0.0))

(* --- the point table --- *)

(* c17 placed, then [k] buffers hung off its first input, none of them
   placed.  c17 has seven ports, so the first seven buffers take ids in
   the pad slots of [place]'s table and the rest lie past its end. *)
let c17_with_late_buffers k =
  let nl = Generators.c17 lib in
  let place = Placement.place nl in
  let a = snd (List.hd (Netlist.inputs nl)) in
  let bufs =
    List.init k (fun i ->
        Netlist.add_inst nl ~name:(Printf.sprintf "late%d" i)
          (Library.variant lib Func.Buf Vth.Low Vth.Plain)
          [ ("A", a); ("Z", Netlist.fresh_net nl "late") ])
  in
  (nl, place, bufs)

let check_point msg (want : Geom.point) = function
  | Some (p : Geom.point) ->
    Alcotest.(check (pair (float 0.0) (float 0.0)))
      msg (want.Geom.x, want.Geom.y) (p.Geom.x, p.Geom.y)
  | None -> Alcotest.fail (msg ^ ": not placed")

let test_never_placed () =
  let _, place, bufs = c17_with_late_buffers 10 in
  List.iter
    (fun iid ->
      let msg = string_of_int iid in
      Alcotest.(check bool) (msg ^ " reads None") true (Placement.inst_point_opt place iid = None);
      Alcotest.check_raises (msg ^ " raises Not_found") Not_found (fun () ->
          ignore (Placement.inst_point place iid)))
    (bufs @ [ -1; 1_000_000 ])

let test_place_inst_past_table () =
  let nl, place, bufs = c17_with_late_buffers 10 in
  let die = Placement.die place in
  let early = List.filter (fun iid -> not (List.mem iid bufs)) (Netlist.live_insts nl) in
  let before = List.map (Placement.inst_point place) early in
  let last = List.nth bufs 9 in
  Placement.place_inst place last { Geom.x = -5.0; Geom.y = 1e9 };
  check_point "clamped into the die" { Geom.x = die.Geom.lx; Geom.y = die.Geom.hy }
    (Placement.inst_point_opt place last);
  List.iter
    (fun iid ->
      if iid <> last then
        Alcotest.(check bool) "others stay unplaced" true
          (Placement.inst_point_opt place iid = None))
    bufs;
  List.iter2
    (fun iid p -> check_point "placed points kept" p (Placement.inst_point_opt place iid))
    early before

let test_place_inst_overwrites () =
  let nl = Generators.c17 lib in
  let place = Placement.place nl in
  let iid = List.hd (Netlist.live_insts nl) in
  let at = Geom.center (Placement.die place) in
  Placement.place_inst place iid { Geom.x = 0.0; Geom.y = 0.0 };
  Placement.place_inst place iid at;
  check_point "last point wins" at (Placement.inst_point_opt place iid)

let test_removed_keeps_point () =
  let nl = Generators.c17 lib in
  let place = Placement.place nl in
  let iid = List.hd (Netlist.live_insts nl) in
  let p = Placement.inst_point place iid in
  Netlist.remove_inst nl iid;
  check_point "removed instance" p (Placement.inst_point_opt place iid)

let test_centroid_counts_unplaced () =
  let nl, place, bufs = c17_with_late_buffers 1 in
  let iid = List.hd (Netlist.live_insts nl) in
  let p = Placement.inst_point place iid in
  check_point "halved by the unplaced member"
    { Geom.x = p.Geom.x /. 2.0; Geom.y = p.Geom.y /. 2.0 }
    (Some (Placement.centroid place (iid :: bufs)))

let () =
  Alcotest.run "smt_place"
    [
      ( "placement",
        [
          Alcotest.test_case "all placed in die" `Quick test_all_instances_placed;
          Alcotest.test_case "die utilization" `Quick test_die_sized_to_utilization;
          Alcotest.test_case "deterministic" `Quick test_deterministic_by_seed;
          Alcotest.test_case "rows legalized" `Quick test_rows_legalized;
          Alcotest.test_case "no overlap in rows" `Quick test_no_overlap_in_rows;
          Alcotest.test_case "ports on boundary" `Quick test_ports_on_boundary;
          Alcotest.test_case "place_inst clamps" `Quick test_place_inst_clamps;
        ] );
      ( "point table",
        [
          Alcotest.test_case "never placed" `Quick test_never_placed;
          Alcotest.test_case "place_inst past the table" `Quick test_place_inst_past_table;
          Alcotest.test_case "place_inst overwrites" `Quick test_place_inst_overwrites;
          Alcotest.test_case "removed keeps its point" `Quick test_removed_keeps_point;
          Alcotest.test_case "centroid counts unplaced" `Quick test_centroid_counts_unplaced;
        ] );
      ( "wirelength",
        [
          Alcotest.test_case "hpwl positive/localized" `Quick test_hpwl_positive_and_localized;
          Alcotest.test_case "centroid" `Quick test_centroid;
          Alcotest.test_case "net pins" `Quick test_net_hpwl_and_pin_points;
        ] );
    ]
