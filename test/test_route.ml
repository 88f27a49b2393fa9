module Netlist = Smt_netlist.Netlist
module Placement = Smt_place.Placement
module Parasitics = Smt_route.Parasitics
module Wire = Smt_sta.Wire
module Library = Smt_cell.Library
module Tech = Smt_cell.Tech
module Generators = Smt_circuits.Generators

let lib = Library.default ()
let tech = Library.tech lib

let fixture () =
  let nl = Generators.multiplier ~name:"m" ~bits:5 lib in
  let place = Placement.place nl in
  (nl, place)

let test_corners () =
  let _, place = fixture () in
  Alcotest.(check bool) "estimate corner" true
    (Parasitics.corner (Parasitics.estimate place) = Parasitics.Estimated);
  Alcotest.(check bool) "extract corner" true
    (Parasitics.corner (Parasitics.extract place) = Parasitics.Extracted)

let test_lengths_positive () =
  let nl, place = fixture () in
  let ext = Parasitics.extract place in
  let some_positive = ref false in
  Netlist.iter_nets nl (fun nid ->
      let len = Parasitics.net_length ext nid in
      Alcotest.(check bool) "non-negative" true (len >= 0.0);
      if len > 0.0 then some_positive := true);
  Alcotest.(check bool) "some routing exists" true !some_positive;
  Alcotest.(check bool) "total positive" true (Parasitics.total_wirelength ext > 0.0)

let test_rc_proportional_to_length () =
  let nl, place = fixture () in
  let ext = Parasitics.extract place in
  Netlist.iter_nets nl (fun nid ->
      let len = Parasitics.net_length ext nid in
      Alcotest.(check (float 1e-6)) "cap = c*len" (len *. tech.Tech.wire_c_per_um)
        (Parasitics.net_cap ext nid);
      Alcotest.(check (float 1e-6)) "res = r*len" (len *. tech.Tech.wire_r_per_um)
        (Parasitics.net_res ext nid))

let test_estimate_error_bounded () =
  let nl, place = fixture () in
  let est = Parasitics.estimate place in
  let bound = tech.Tech.rc_estimation_error in
  Netlist.iter_nets nl (fun nid ->
      let hpwl = Placement.net_hpwl place nid in
      let len = Parasitics.net_length est nid in
      if hpwl > 0.0 then begin
        let err = Float.abs (len -. hpwl) /. hpwl in
        Alcotest.(check bool) "error within bound" true (err <= bound +. 1e-9)
      end)

let test_estimate_deterministic () =
  let _, place = fixture () in
  let e1 = Parasitics.estimate ~seed:5 place in
  let e2 = Parasitics.estimate ~seed:5 place in
  let nl = Placement.netlist place in
  Netlist.iter_nets nl (fun nid ->
      Alcotest.(check (float 1e-12)) "same estimate" (Parasitics.net_length e1 nid)
        (Parasitics.net_length e2 nid))

let test_extracted_longer_than_hpwl () =
  (* spanning tree with detour >= bbox half perimeter on multi-pin nets *)
  let nl, place = fixture () in
  let ext = Parasitics.extract ~detour:1.2 place in
  let violations = ref 0 in
  Netlist.iter_nets nl (fun nid ->
      let hpwl = Placement.net_hpwl place nid in
      if hpwl > 0.0 && Parasitics.net_length ext nid < hpwl /. 2.0 then incr violations);
  Alcotest.(check int) "routed length plausible" 0 !violations

let test_detour_scales () =
  let nl, place = fixture () in
  let e1 = Parasitics.extract ~detour:1.0 place in
  let e2 = Parasitics.extract ~detour:1.5 place in
  Netlist.iter_nets nl (fun nid ->
      Alcotest.(check (float 1e-6)) "linear in detour"
        (1.5 *. Parasitics.net_length e1 nid)
        (Parasitics.net_length e2 nid))

let test_wire_model () =
  let nl, place = fixture () in
  let ext = Parasitics.extract place in
  let wm = Parasitics.wire_model ext nl in
  Netlist.iter_nets nl (fun nid ->
      let cap = wm.Wire.net_cap nid in
      Alcotest.(check bool) "cap >= 0" true (cap >= 0.0);
      List.iter
        (fun (pin : Netlist.pin) ->
          let d = wm.Wire.net_delay nid pin.Netlist.inst in
          Alcotest.(check bool) "delay >= 0" true (d >= 0.0))
        (Netlist.sinks nl nid))

let () =
  Alcotest.run "smt_route"
    [
      ( "parasitics",
        [
          Alcotest.test_case "corners" `Quick test_corners;
          Alcotest.test_case "lengths positive" `Quick test_lengths_positive;
          Alcotest.test_case "rc proportional" `Quick test_rc_proportional_to_length;
          Alcotest.test_case "estimation error bounded" `Quick test_estimate_error_bounded;
          Alcotest.test_case "estimate deterministic" `Quick test_estimate_deterministic;
          Alcotest.test_case "extraction plausible" `Quick test_extracted_longer_than_hpwl;
          Alcotest.test_case "detour scaling" `Quick test_detour_scales;
          Alcotest.test_case "wire model" `Quick test_wire_model;
        ] );
    ]
