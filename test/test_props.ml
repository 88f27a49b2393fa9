(* Property-based tests (qcheck) over the core data structures and the MT
   invariants, registered as alcotest cases. *)

module Netlist = Smt_netlist.Netlist
module Check = Smt_check.Drc
module Clone = Smt_netlist.Clone
module Nl_stats = Smt_netlist.Nl_stats
module Placement = Smt_place.Placement
module Parasitics = Smt_route.Parasitics
module Sta = Smt_sta.Sta
module Geom = Smt_util.Geom
module Rng = Smt_util.Rng
module Library = Smt_cell.Library
module Generators = Smt_circuits.Generators

let lib = Library.default ()

let qtest = QCheck_alcotest.to_alcotest

(* --- util properties --- *)

let prop_spanning_vs_bbox =
  (* the rectilinear MST is at least as long as the larger bbox side and at
     most n-1 times the full half-perimeter *)
  QCheck2.Test.make ~name:"spanning length bounds" ~count:200
    QCheck2.Gen.(list_size (int_range 2 12) (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun raw ->
      let pts = List.map (fun (x, y) -> Geom.point x y) raw in
      let len = Geom.spanning_length pts in
      let box = Geom.bbox_of_points pts in
      let lower = Float.max (Geom.width box) (Geom.height box) in
      let upper = float_of_int (List.length pts - 1) *. Geom.hpwl box in
      len >= lower -. 1e-6 && len <= upper +. 1e-6)

let prop_rng_int_uniformish =
  QCheck2.Test.make ~name:"rng int hits the whole range" ~count:20
    QCheck2.Gen.(int_range 2 20)
    (fun bound ->
      let r = Rng.create bound in
      let seen = Array.make bound false in
      for _ = 1 to 2000 do
        seen.(Rng.int r bound) <- true
      done;
      Array.for_all Fun.id seen)

(* --- random netlists --- *)

let random_netlist seed =
  let which = seed mod 4 in
  match which with
  | 0 ->
    Generators.layered ~seed ~min_depth:2 ~name:(Printf.sprintf "rnd%d" seed) ~inputs:6
      ~outputs:4 ~width:8 ~depth:5 lib
  | 1 -> Generators.ripple_adder ~registered:(seed mod 2 = 0) ~name:(Printf.sprintf "rnd%d" seed) ~bits:(3 + (seed mod 5)) lib
  | 2 -> Generators.multiplier ~name:(Printf.sprintf "rnd%d" seed) ~bits:(2 + (seed mod 4)) lib
  | _ -> Generators.counter ~name:(Printf.sprintf "rnd%d" seed) ~bits:(2 + (seed mod 8)) lib

let seed_gen = QCheck2.Gen.int_range 0 10_000

let prop_generated_valid =
  QCheck2.Test.make ~name:"generated netlists validate" ~count:40 seed_gen
    (fun seed -> Check.validate (random_netlist seed) = [])

let prop_topo_respects_edges =
  QCheck2.Test.make ~name:"topological order respects fanin" ~count:30 seed_gen
    (fun seed ->
      let nl = random_netlist seed in
      let order = Netlist.topo_order nl in
      let pos = Hashtbl.create 97 in
      List.iteri (fun i iid -> Hashtbl.replace pos iid i) order;
      List.for_all
        (fun iid ->
          List.for_all
            (fun pred ->
              match (Hashtbl.find_opt pos pred, Hashtbl.find_opt pos iid) with
              | Some pp, Some pi -> pp < pi
              | _ -> true (* flip-flops are outside the comb frame *))
            (Netlist.fanin_insts nl iid))
        order)

let prop_roundtrip_preserves_stats =
  QCheck2.Test.make ~name:"writer/parser roundtrip preserves structure" ~count:30 seed_gen
    (fun seed ->
      let nl = random_netlist seed in
      let nl2 = Clone.copy nl in
      let s1 = Nl_stats.compute nl and s2 = Nl_stats.compute nl2 in
      s1 = s2)

let prop_roundtrip_equivalent =
  QCheck2.Test.make ~name:"clone is functionally equivalent" ~count:12 seed_gen
    (fun seed ->
      let nl = random_netlist seed in
      Smt_sim.Equiv.equivalent ~vectors:16 ~cycles:4 nl (Clone.copy nl))

let prop_placement_in_die =
  QCheck2.Test.make ~name:"placement stays in the die" ~count:15 seed_gen
    (fun seed ->
      let nl = random_netlist seed in
      let place = Placement.place ~seed nl in
      let die = Placement.die place in
      List.for_all
        (fun iid ->
          match Placement.inst_point_opt place iid with
          | Some p -> Geom.contains die p
          | None -> false)
        (Netlist.live_insts nl))

let prop_sta_arrivals_monotone =
  QCheck2.Test.make ~name:"arrival grows along paths" ~count:15 seed_gen
    (fun seed ->
      let nl = random_netlist seed in
      let sta = Sta.analyze (Sta.config ~clock_period:1e5 ()) nl in
      List.for_all
        (fun iid ->
          match Netlist.output_net nl iid with
          | None -> true
          | Some out ->
            if Netlist.is_clock_net nl out then true
            else
              List.for_all
                (fun pred ->
                  match Netlist.output_net nl pred with
                  | Some pout when not (Netlist.is_clock_net nl pout) ->
                    (* flip-flop outputs restart the clock frame *)
                    (Netlist.cell nl pred).Smt_cell.Cell.kind = Smt_cell.Func.Dff
                    || Sta.arrival sta out > Sta.arrival sta pout -. 1e-9
                  | Some _ | None -> true)
                (Netlist.fanin_insts nl iid))
        (Netlist.topo_order nl))

let prop_extraction_nonnegative =
  QCheck2.Test.make ~name:"extracted RC non-negative" ~count:15 seed_gen
    (fun seed ->
      let nl = random_netlist seed in
      let place = Placement.place ~seed nl in
      let ext = Parasitics.extract place in
      let ok = ref true in
      Netlist.iter_nets nl (fun nid ->
          if Parasitics.net_cap ext nid < 0.0 || Parasitics.net_res ext nid < 0.0 then
            ok := false);
      !ok)

let prop_leakage_positive =
  QCheck2.Test.make ~name:"standby leakage positive and below active-floor x100" ~count:20
    seed_gen
    (fun seed ->
      let nl = random_netlist seed in
      let b = Smt_power.Leakage.standby nl in
      b.Smt_power.Leakage.total > 0.0
      && b.Smt_power.Leakage.total <= 100.0 *. Smt_power.Leakage.active nl)

(* --- MT invariants on randomized flows --- *)

let prop_cluster_invariants =
  QCheck2.Test.make ~name:"cluster constraints hold for random circuits" ~count:8
    (QCheck2.Gen.int_range 0 1000)
    (fun seed ->
      let nl = random_netlist ((seed * 4) + 2) (* multipliers: plenty of MT cells *) in
      let probe = 1e6 in
      let sta = Sta.analyze (Sta.config ~clock_period:probe ()) nl in
      let period = (probe -. Sta.wns sta) *. 1.05 in
      ignore (Smt_core.Vth_assign.assign (Sta.config ~clock_period:period ()) nl);
      let n = Smt_core.Mt_replace.replace Smt_core.Mt_replace.Improved nl in
      if n = 0 then true
      else begin
        let place = Placement.place ~seed nl in
        let ins = Smt_core.Switch_insert.insert place in
        let built =
          Smt_core.Cluster.build place ~mte_net:ins.Smt_core.Switch_insert.mte_net
        in
        let tech = Library.tech lib in
        let p = Smt_core.Cluster.default_params tech in
        List.for_all
          (fun c ->
            List.length c.Smt_core.Cluster.members <= p.Smt_core.Cluster.cell_limit
            && c.Smt_core.Cluster.wire_length <= p.Smt_core.Cluster.length_limit +. 1e-9
            && c.Smt_core.Cluster.bounce <= p.Smt_core.Cluster.bounce_limit +. 1e-9)
          built.Smt_core.Cluster.clusters
        && Check.validate ~phase:Check.Post_mt nl = []
      end)

let prop_holder_rule_sound =
  QCheck2.Test.make ~name:"holder rule: no floating net reaches a non-MT sink" ~count:8
    (QCheck2.Gen.int_range 0 1000)
    (fun seed ->
      let nl = random_netlist ((seed * 4) + 2) in
      let probe = 1e6 in
      let sta = Sta.analyze (Sta.config ~clock_period:probe ()) nl in
      let period = (probe -. Sta.wns sta) *. 1.05 in
      ignore (Smt_core.Vth_assign.assign (Sta.config ~clock_period:period ()) nl);
      let n = Smt_core.Mt_replace.replace Smt_core.Mt_replace.Improved nl in
      if n = 0 then true
      else begin
        let place = Placement.place ~seed nl in
        ignore (Smt_core.Switch_insert.insert place);
        let sim = Smt_sim.Simulator.create nl in
        Smt_sim.Simulator.reset sim;
        let inputs =
          Netlist.inputs nl
          |> List.map (fun (name, _) -> (name, Smt_sim.Logic.of_bool (seed mod 2 = 0)))
        in
        Smt_sim.Simulator.set_inputs sim inputs;
        Smt_sim.Simulator.propagate ~mode:Smt_sim.Simulator.Standby sim;
        List.for_all
          (fun nid ->
            (not (Netlist.is_po nl nid))
            && List.for_all
                 (fun (pin : Netlist.pin) ->
                   Smt_cell.Cell.is_mt (Netlist.cell nl pin.Netlist.inst))
                 (Netlist.sinks nl nid))
          (Smt_sim.Simulator.floating_nets sim)
      end)

(* --- extension modules --- *)

let prop_router_sound =
  QCheck2.Test.make ~name:"router covers spread nets, detour >= 1" ~count:10 seed_gen
    (fun seed ->
      let nl = random_netlist seed in
      let place = Placement.place ~seed nl in
      let r = Smt_route.Global_router.route place in
      let ok = ref true in
      Netlist.iter_nets nl (fun nid ->
          let pts = Placement.pin_points place nid in
          if List.length pts >= 2 && Placement.net_hpwl place nid > 0.0 then
            if Smt_route.Global_router.net_length r nid <= 0.0 then ok := false);
      !ok && Smt_route.Global_router.detour_factor r place >= 1.0)

let prop_nldm_lookup_bounded =
  QCheck2.Test.make ~name:"nldm lookup within table bounds" ~count:100
    QCheck2.Gen.(pair (float_range (-50.) 400.) (float_range (-10.) 200.))
    (fun (slew, load) ->
      let cell =
        Library.variant lib Smt_cell.Func.Nand2 Smt_cell.Vth.Low Smt_cell.Vth.Plain
      in
      let arcs = Smt_cell.Nldm.characterize cell in
      let v = Smt_cell.Nldm.lookup arcs.Smt_cell.Nldm.delay ~slew ~load in
      let values = arcs.Smt_cell.Nldm.delay.Smt_cell.Nldm.values in
      let lo = Array.fold_left (fun acc row -> Array.fold_left Float.min acc row) infinity values in
      let hi =
        Array.fold_left (fun acc row -> Array.fold_left Float.max acc row) neg_infinity values
      in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_compose_sound =
  QCheck2.Test.make ~name:"composition validates and counts add" ~count:10
    (QCheck2.Gen.pair seed_gen seed_gen)
    (fun (s1, s2) ->
      let a = random_netlist s1 and b = random_netlist s2 in
      let sa = Nl_stats.compute a and sb = Nl_stats.compute b in
      let top = Smt_netlist.Compose.merge ~name:"top" [ ("u0", a); ("u1", b) ] in
      Check.validate top = []
      && (Nl_stats.compute top).Nl_stats.instances
         = sa.Nl_stats.instances + sb.Nl_stats.instances)

let prop_standby_protocol_holds =
  QCheck2.Test.make ~name:"standby protocol invariants on random circuits" ~count:6
    (QCheck2.Gen.int_range 0 500)
    (fun seed ->
      let nl = random_netlist ((seed * 4) + 2) in
      let probe = 1e6 in
      let sta = Sta.analyze (Sta.config ~clock_period:probe ()) nl in
      let period = (probe -. Sta.wns sta) *. 1.05 in
      ignore (Smt_core.Vth_assign.assign (Sta.config ~clock_period:period ()) nl);
      let n = Smt_core.Mt_replace.replace Smt_core.Mt_replace.Improved nl in
      if n = 0 then true
      else begin
        let place = Placement.place ~seed nl in
        ignore (Smt_core.Switch_insert.insert place);
        let o = Smt_core.Standby.simulate ~seed nl in
        o.Smt_core.Standby.state_preserved
        && o.Smt_core.Standby.outputs_defined_in_standby
        && o.Smt_core.Standby.x_leaks_into_awake_logic = 0
        && o.Smt_core.Standby.all_wake_cycles_correct
      end)

(* --- checker / fault-injection properties --- *)

module Drc = Smt_check.Drc
module Repair = Smt_check.Repair
module Violation = Smt_check.Violation
module Fault = Smt_fault.Fault
module Verify = Smt_verify.Verify
module Rules = Smt_verify.Rules
module Flow = Smt_core.Flow
module Suite = Smt_circuits.Suite

(* Improved-MT transform of a random circuit; None when no cell survives as
   an MT candidate. *)
let random_mt_netlist seed =
  let nl = random_netlist ((seed * 4) + 2) in
  let probe = 1e6 in
  let sta = Sta.analyze (Sta.config ~clock_period:probe ()) nl in
  let period = (probe -. Sta.wns sta) *. 1.05 in
  ignore (Smt_core.Vth_assign.assign (Sta.config ~clock_period:period ()) nl);
  if Smt_core.Mt_replace.replace Smt_core.Mt_replace.Improved nl = 0 then None
  else begin
    let place = Placement.place ~seed nl in
    ignore (Smt_core.Switch_insert.insert place);
    Some (nl, place)
  end

(* --- topological order vs the walk it replaced --- *)

(* Kahn over the combinational frame with every pin's direction looked up
   from [Func]'s pin names (an embedded MT-cell's MTE pin is an input),
   and a [Queue]. *)
let reference_topo_order nl =
  let module Cell = Smt_cell.Cell in
  let module Func = Smt_cell.Func in
  let n = Netlist.inst_count nl in
  let comb =
    Array.init n (fun iid ->
        let k = (Netlist.cell nl iid).Cell.kind in
        (not (Netlist.is_dead nl iid)) && (not (Func.is_sequential k))
        && not (Func.is_infrastructure k))
  in
  let is_input (cell : Cell.t) pin =
    (not (Array.mem pin (Func.output_names cell.Cell.kind)))
    && (Array.mem pin (Func.input_names cell.Cell.kind)
       || String.equal pin "MTE"
          && Smt_cell.Vth.style_equal cell.Cell.style Smt_cell.Vth.Mt_embedded)
  in
  let pending = Array.make n 0 in
  for iid = 0 to n - 1 do
    if comb.(iid) then
      pending.(iid) <-
        List.fold_left
          (fun acc (pin, nid) ->
            if not (is_input (Netlist.cell nl iid) pin) then acc
            else
              match Netlist.driver nl nid with
              | Some p when comb.(p.Netlist.inst) -> acc + 1
              | Some _ | None -> acc)
          0 (Netlist.conns nl iid)
  done;
  let queue = Queue.create () in
  for iid = 0 to n - 1 do
    if comb.(iid) && pending.(iid) = 0 then Queue.add iid queue
  done;
  let order = ref [] in
  while not (Queue.is_empty queue) do
    let iid = Queue.pop queue in
    order := iid :: !order;
    match Netlist.output_net nl iid with
    | None -> ()
    | Some nid ->
      List.iter
        (fun (p : Netlist.pin) ->
          let s = p.Netlist.inst in
          if comb.(s) then begin
            pending.(s) <- pending.(s) - 1;
            if pending.(s) = 0 then Queue.add s queue
          end)
        (Netlist.sinks nl nid)
  done;
  List.rev !order

let prop_topo_matches_reference =
  (* fresh circuits, improved-MT netlists with switches and holders, and
     finished flow products (conventional ones carry MTE pins driven by
     the enable tree) *)
  QCheck2.Test.make ~name:"topological order = Func-directed Kahn walk" ~count:30
    QCheck2.Gen.(pair seed_gen (int_range 0 3))
    (fun (seed, which) ->
      let flow technique =
        let nl = random_netlist ((seed * 4) + 2) in
        let options = { Flow.default_options with Flow.seed; Flow.activity_cycles = 32 } in
        ignore (Flow.run ~options technique nl);
        Some nl
      in
      let fixture =
        match which with
        | 0 -> Some (random_netlist seed)
        | 1 -> Option.map fst (random_mt_netlist seed)
        | 2 -> flow Flow.Conventional_smt
        | _ -> flow Flow.Improved_smt
      in
      match fixture with
      | None -> true
      | Some nl -> Netlist.topo_order nl = reference_topo_order nl)

(* --- spanning length: the large-set path vs dense Prim --- *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [Geom.spanning_length] switches from dense Prim to the octant sweep
   above this many points (see geom.mli). *)
let large_set = 1024

let reference_prim points =
  let pts = Array.of_list points in
  let n = Array.length pts in
  if n < 2 then 0.0
  else begin
    let in_tree = Array.make n false and dist = Array.make n infinity in
    in_tree.(0) <- true;
    for j = 1 to n - 1 do
      dist.(j) <- Geom.manhattan pts.(0) pts.(j)
    done;
    let total = ref 0.0 in
    for _ = 1 to n - 1 do
      let best = ref (-1) in
      for j = 0 to n - 1 do
        if (not in_tree.(j)) && (!best = -1 || dist.(j) < dist.(!best)) then best := j
      done;
      in_tree.(!best) <- true;
      total := !total +. dist.(!best);
      for j = 0 to n - 1 do
        if not in_tree.(j) then dist.(j) <- Float.min dist.(j) (Geom.manhattan pts.(!best) pts.(j))
      done
    done;
    !total
  end

(* Exact at or below the crossover, within 1e-9 relative above it. *)
let spanning_matches_prim points =
  let got = Geom.spanning_length points and want = reference_prim points in
  if List.length points <= large_set then same_float got want
  else Float.abs (got -. want) <= 1e-9 *. Float.max 1.0 (Float.abs want)

(* Sizes straddle the crossover. *)
let size_gen =
  QCheck2.Gen.(
    oneof [ int_range (large_set - 3) (large_set + 3); int_range 2 40; int_range 1100 2500 ])

let prop_spanning_uniform =
  QCheck2.Test.make ~name:"spanning length = dense Prim (uniform points)" ~count:12
    QCheck2.Gen.(pair seed_gen size_gen)
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let coord () = float_of_int (Rng.int rng 1_000_000) /. 997.0 in
      spanning_matches_prim (List.init n (fun _ -> Geom.point (coord ()) (coord ()))))

let prop_spanning_row_grid =
  (* few columns and rows: many equal distances and duplicate points *)
  QCheck2.Test.make ~name:"spanning length = dense Prim (row grid, ties, duplicates)" ~count:12
    QCheck2.Gen.(pair seed_gen size_gen)
    (fun (seed, n) ->
      let rng = Rng.create seed in
      spanning_matches_prim
        (List.init n (fun _ ->
             Geom.point
               (0.4 *. float_of_int (Rng.int rng 60))
               ((float_of_int (Rng.int rng 25) +. 0.5) *. 1.8))))

let test_spanning_legalized () =
  (* every placed cell of circuit_a and of two composed circuit_b copies,
     and prefixes at the crossover *)
  List.iter
    (fun nl ->
      let place = Placement.place nl in
      let pts = List.map (Placement.inst_point place) (Netlist.live_insts nl) in
      Alcotest.(check bool) "above the crossover" true (List.length pts > large_set + 1);
      List.iter
        (fun k ->
          let prefix = List.filteri (fun i _ -> i < k) pts in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d points" (Netlist.design_name nl) k)
            true (spanning_matches_prim prefix))
        [ large_set; large_set + 1; List.length pts ])
    [
      Suite.circuit_a lib;
      Smt_netlist.Compose.merge ~name:"b2"
        [ ("u0", Suite.circuit_b lib); ("u1", Suite.circuit_b lib) ];
    ]

(* --- compiled placement refinement vs the list-based placer --- *)

module Metrics = Smt_obs.Metrics

(* The list-based placer, on the public API: constructive sweep, then
   passes that rebuild every cell's neighbour points from [pin_points]
   lists and move it halfway to their centroid, then row legalization. *)
module Reference_placer = struct
  type t = {
    nl : Netlist.t;
    die : Geom.bbox;
    rows : int;
    row_height : float;
    coords : (Netlist.inst_id, Geom.point) Hashtbl.t;
    ports : (string, Geom.point) Hashtbl.t;
  }

  let clamp_into die (p : Geom.point) =
    {
      Geom.x = Geom.clamp p.Geom.x ~lo:die.Geom.lx ~hi:die.Geom.hx;
      Geom.y = Geom.clamp p.Geom.y ~lo:die.Geom.ly ~hi:die.Geom.hy;
    }

  let pin_points t nid =
    let nl = t.nl in
    let of_inst iid = Hashtbl.find_opt t.coords iid in
    let driver =
      match Netlist.driver nl nid with
      | Some p -> (match of_inst p.Netlist.inst with Some pt -> [ pt ] | None -> [])
      | None -> []
    in
    let sinks =
      List.filter_map (fun (p : Netlist.pin) -> of_inst p.Netlist.inst) (Netlist.sinks nl nid)
    in
    let holder =
      match Netlist.holder_of nl nid with
      | Some h -> (match of_inst h with Some pt -> [ pt ] | None -> [])
      | None -> []
    in
    let pads =
      if Netlist.is_pi nl nid || Netlist.is_po nl nid then
        match Hashtbl.find_opt t.ports (Netlist.net_name nl nid) with
        | Some p -> [ p ]
        | None -> []
      else []
    in
    driver @ sinks @ holder @ pads

  let levels nl =
    let level = Array.make (Netlist.inst_count nl) 0 in
    List.iter
      (fun iid ->
        level.(iid) <-
          List.fold_left
            (fun acc pred -> max acc (level.(pred) + 1))
            0 (Netlist.fanin_insts nl iid))
      (Netlist.topo_order nl);
    level

  let legalize t order_hint =
    let rows = Array.make t.rows [] in
    let cell_width iid = (Netlist.cell t.nl iid).Smt_cell.Cell.area /. t.row_height in
    List.iter
      (fun iid ->
        match Hashtbl.find_opt t.coords iid with
        | None -> ()
        | Some p ->
          let row =
            int_of_float ((p.Geom.y -. t.die.Geom.ly) /. t.row_height)
            |> max 0 |> min (t.rows - 1)
          in
          rows.(row) <- (iid, p.Geom.x) :: rows.(row))
      order_hint;
    let capacity = Geom.width t.die in
    let ordered =
      Array.to_list rows
      |> List.concat_map (fun members ->
             List.sort (fun (_, x1) (_, x2) -> compare x1 x2) members)
    in
    let repacked = Array.make t.rows [] in
    let row = ref 0 and used = ref 0.0 in
    List.iter
      (fun (iid, x) ->
        let w = cell_width iid in
        if !used +. w > capacity && !row < t.rows - 1 && repacked.(!row) <> [] then begin
          incr row;
          used := 0.0
        end;
        repacked.(!row) <- (iid, x) :: repacked.(!row);
        used := !used +. w)
      ordered;
    Array.iteri
      (fun r members ->
        let y = t.die.Geom.ly +. ((float_of_int r +. 0.5) *. t.row_height) in
        let x = ref t.die.Geom.lx in
        List.iter
          (fun (iid, _) ->
            let w = cell_width iid in
            Hashtbl.replace t.coords iid { Geom.x = !x +. (w /. 2.0); Geom.y = y };
            x := !x +. w)
          (List.rev members))
      repacked

  (* Returns the placement and its count of cell moves. *)
  let place ?(seed = 1) ?(utilization = 0.65) ?(iterations = 12) nl =
    let rng = Rng.create seed in
    let row_height = (Library.tech (Netlist.lib nl)).Smt_cell.Tech.row_height in
    let side = Float.max (4.0 *. row_height) (sqrt (Netlist.total_area nl /. utilization)) in
    let rows = max 2 (int_of_float (side /. row_height)) in
    let die =
      { Geom.lx = 0.0; Geom.ly = 0.0; Geom.hx = side; Geom.hy = float_of_int rows *. row_height }
    in
    let t = { nl; die; rows; row_height; coords = Hashtbl.create 997; ports = Hashtbl.create 97 } in
    let spread edge_x ports =
      let n = List.length ports in
      List.iteri
        (fun i (name, _) ->
          let y =
            die.Geom.ly +. ((float_of_int i +. 1.0) /. (float_of_int n +. 1.0) *. Geom.height die)
          in
          Hashtbl.replace t.ports name { Geom.x = edge_x; Geom.y })
        ports
    in
    spread die.Geom.lx (Netlist.inputs nl);
    spread die.Geom.hx (Netlist.outputs nl);
    let level = levels nl in
    let keyed =
      List.map (fun iid -> (iid, (level.(iid), Rng.int rng 1000))) (Netlist.live_insts nl)
      |> List.sort (fun (_, k1) (_, k2) -> compare k1 k2)
      |> List.map fst
    in
    let per_row = max 1 ((List.length keyed + rows - 1) / rows) in
    List.iteri
      (fun i iid ->
        let row = i / per_row in
        let pos = i mod per_row in
        let pos = if row mod 2 = 1 then per_row - 1 - pos else pos in
        let x =
          die.Geom.lx +. ((float_of_int pos +. 0.5) /. float_of_int per_row *. Geom.width die)
        in
        let y = die.Geom.ly +. ((float_of_int (row mod rows) +. 0.5) *. row_height) in
        Hashtbl.replace t.coords iid { Geom.x; Geom.y })
      keyed;
    let neighbours iid =
      List.concat_map
        (fun (_, nid) ->
          if Netlist.is_clock_net nl nid then []
          else
            let pts = pin_points t nid in
            match Hashtbl.find_opt t.coords iid with
            | None -> pts
            | Some p -> List.filter (fun q -> q <> p) pts)
        (Netlist.conns nl iid)
    in
    let moved = ref 0 in
    for _pass = 1 to iterations do
      List.iter
        (fun iid ->
          match neighbours iid with
          | [] -> ()
          | pts ->
            let n = float_of_int (List.length pts) in
            let sx = List.fold_left (fun acc p -> acc +. p.Geom.x) 0.0 pts in
            let sy = List.fold_left (fun acc p -> acc +. p.Geom.y) 0.0 pts in
            let cur = Hashtbl.find t.coords iid in
            let next =
              clamp_into die
                {
                  Geom.x = (cur.Geom.x +. (sx /. n)) /. 2.0;
                  Geom.y = (cur.Geom.y +. (sy /. n)) /. 2.0;
                }
            in
            if next <> cur then incr moved;
            Hashtbl.replace t.coords iid next)
        keyed;
      legalize t keyed
    done;
    (t, !moved)
end

let m_place_moves = Metrics.counter "place.moves"

let same_point (a : Geom.point) (b : Geom.point) =
  same_float a.Geom.x b.Geom.x && same_float a.Geom.y b.Geom.y

(* Every coordinate, every pad, the die and the move count, bit for bit. *)
let placement_matches_reference ?seed ?iterations nl =
  let r, ref_moves = Reference_placer.place ?seed ?iterations nl in
  let moves0 = Metrics.counter_value m_place_moves in
  let p = Placement.place ?seed ?iterations nl in
  let moves = Metrics.counter_value m_place_moves - moves0 in
  let die = Placement.die p in
  moves = ref_moves
  && Placement.row_count p = r.Reference_placer.rows
  && same_float die.Geom.lx r.Reference_placer.die.Geom.lx
  && same_float die.Geom.hx r.Reference_placer.die.Geom.hx
  && same_float die.Geom.hy r.Reference_placer.die.Geom.hy
  && List.for_all
       (fun iid ->
         match (Placement.inst_point_opt p iid, Hashtbl.find_opt r.Reference_placer.coords iid) with
         | Some a, Some b -> same_point a b
         | None, None -> true
         | Some _, None | None, Some _ -> false)
       (List.init (Netlist.inst_count nl) Fun.id)
  && List.for_all
       (fun (name, _) ->
         match (Placement.port_point p name, Hashtbl.find_opt r.Reference_placer.ports name) with
         | Some a, Some b -> same_point a b
         | None, None -> true
         | Some _, None | None, Some _ -> false)
       (Netlist.inputs nl @ Netlist.outputs nl)

let prop_placement_matches_reference =
  (* fresh circuits, and every third case an improved-MT netlist with its
     switch, holders and MTE port placed again *)
  QCheck2.Test.make ~name:"compiled refinement = list-based placer" ~count:40
    QCheck2.Gen.(pair seed_gen (int_range 0 14))
    (fun (seed, iterations) ->
      let nl =
        if seed mod 3 = 0 then Option.map fst (random_mt_netlist seed)
        else Some (random_netlist seed)
      in
      match nl with
      | None -> true
      | Some nl -> placement_matches_reference ~seed ~iterations nl)

(* The paper's circuits as placed by the flow, and circuit_a's improved
   flow product (switches, holders, MTE and ECO buffers, clock tree)
   placed again. *)
let test_placement_paper_circuits () =
  List.iter
    (fun (name, nl) ->
      Alcotest.(check bool) (name ^ " bit-identical") true (placement_matches_reference nl))
    [
      ("circuit_a", Suite.circuit_a lib);
      ("circuit_b", Suite.circuit_b lib);
      ( "circuit_a improved product",
        let nl = Suite.circuit_a lib in
        ignore (Flow.run Flow.Improved_smt nl);
        nl );
    ]

(* --- compiled simulator vs a direct interpreter --- *)

module Logic = Smt_sim.Logic
module Simulator = Smt_sim.Simulator

(* The oracle: fold [Logic.eval] over [Netlist.topo_order] with live
   [pin_net] lookups, flip-flop state kept by instance. *)
type reference = { r_values : Logic.value array; r_state : (Netlist.inst_id, Logic.value) Hashtbl.t }

let reference_ffs nl =
  List.filter
    (fun iid -> (Netlist.cell nl iid).Smt_cell.Cell.kind = Smt_cell.Func.Dff)
    (Netlist.live_insts nl)

let reference_state r iid = Option.value (Hashtbl.find_opt r.r_state iid) ~default:Logic.F

let reference_propagate ~standby nl r =
  List.iter
    (fun iid ->
      match Netlist.pin_net nl iid "Q" with
      | Some q -> r.r_values.(q) <- reference_state r iid
      | None -> ())
    (reference_ffs nl);
  List.iter
    (fun iid ->
      let cell = Netlist.cell nl iid in
      match (cell.Smt_cell.Cell.kind, Netlist.output_net nl iid) with
      | (Smt_cell.Func.Dff | Smt_cell.Func.Sleep_switch | Smt_cell.Func.Holder), _ | _, None -> ()
      | kind, Some out ->
        let read pin =
          match Netlist.pin_net nl iid pin with Some nid -> r.r_values.(nid) | None -> Logic.X
        in
        let v = Logic.eval kind (Array.map read (Smt_cell.Func.input_names kind)) in
        r.r_values.(out) <-
          (if not standby then v
           else
             match cell.Smt_cell.Cell.style with
             | Smt_cell.Vth.Plain -> v
             | Smt_cell.Vth.Mt_embedded -> Logic.T
             | Smt_cell.Vth.Mt_vgnd | Smt_cell.Vth.Mt_no_vgnd ->
               if Netlist.holder_of nl out <> None then Logic.T else Logic.X))
    (Netlist.topo_order nl)

let reference_clock_edge nl r =
  List.iter
    (fun iid ->
      match Netlist.pin_net nl iid "D" with
      | Some d -> Hashtbl.replace r.r_state iid r.r_values.(d)
      | None -> ())
    (reference_ffs nl)

(* Runs the compiled simulator and the oracle side by side from a reset to
   [state]: [active] clocked cycles of random 3-valued inputs, then, if
   [standby], one standby settle.  After every settle, every net value and
   every flip-flop state must agree. *)
let simulators_agree ~seed ~state ~active ~standby nl =
  let sim = Simulator.create nl in
  let r = { r_values = Array.make (Netlist.net_count nl) Logic.X; r_state = Hashtbl.create 16 } in
  Simulator.reset ~state sim;
  List.iter (fun iid -> Hashtbl.replace r.r_state iid state) (reference_ffs nl);
  let rng = Rng.create seed in
  let agree () =
    let nets_ok = ref true in
    Netlist.iter_nets nl (fun nid ->
        if not (Logic.equal (Simulator.value sim nid) r.r_values.(nid)) then nets_ok := false);
    !nets_ok
    && List.for_all
         (fun iid -> Logic.equal (Simulator.ff_state sim iid) (reference_state r iid))
         (reference_ffs nl)
  in
  let settle ~standby =
    Simulator.propagate ~mode:(if standby then Simulator.Standby else Simulator.Active) sim;
    reference_propagate ~standby nl r;
    agree ()
  in
  let rec cycles k =
    k = 0
    || begin
         List.iter
           (fun (_, nid) ->
             let v = [| Logic.F; Logic.T; Logic.X |].(Rng.int rng 3) in
             Simulator.set_input sim nid v;
             r.r_values.(nid) <- v)
           (Netlist.inputs nl);
         settle ~standby:false
         && begin
              Simulator.clock_edge sim;
              reference_clock_edge nl r;
              agree () && cycles (k - 1)
            end
       end
  in
  cycles active && ((not standby) || settle ~standby:true)

let prop_simulator_matches_reference_active =
  QCheck2.Test.make ~name:"simulator active = Logic.eval oracle" ~count:40
    seed_gen
    (fun seed ->
      let state = if seed mod 3 = 0 then Logic.X else Logic.F in
      simulators_agree ~seed ~state ~active:(3 + (seed mod 4)) ~standby:false
        (random_netlist seed))

let prop_simulator_matches_reference_standby =
  QCheck2.Test.make ~name:"simulator standby = Logic.eval oracle" ~count:8
    (QCheck2.Gen.int_range 0 1000)
    (fun seed ->
      match random_mt_netlist seed with
      | None -> true
      | Some (nl, _) -> simulators_agree ~seed ~state:Logic.F ~active:2 ~standby:true nl)

(* --- compiled STA vs the list-based analysis --- *)

module Nldm = Smt_cell.Nldm
module Wire = Smt_sta.Wire
module Eco = Smt_core.Eco
module Writer = Smt_netlist.Writer

(* Everything an analysis reports, every float as its bits: arrival,
   required time and slew of each net, the delay used for each instance,
   each flip-flop's slack, and each endpoint with its worst path. *)
type sta_view = {
  v_nets : (int64 * int64 * int64) array;
  v_used : int64 array;
  v_ff_slack : int64 list;
  v_endpoints : (Sta.endpoint_kind * int * int64 list * (int option * int * int64) list) list;
}

let sta_view nl ~arrival ~required ~slew ~used_delay ~inst_slack ~endpoints ~path_to =
  let bits = Int64.bits_of_float in
  {
    v_nets =
      Array.init (Netlist.net_count nl) (fun n -> (bits (arrival n), bits (required n), bits (slew n)));
    v_used = Array.init (Netlist.inst_count nl) (fun i -> bits (used_delay i));
    v_ff_slack = List.map (fun i -> bits (inst_slack i)) (reference_ffs nl);
    v_endpoints =
      List.map
        (fun (ep : Sta.endpoint) ->
          ( ep.Sta.kind,
            ep.Sta.net,
            List.map bits [ ep.Sta.arrival; ep.Sta.required; ep.Sta.slack; ep.Sta.hold_slack ],
            List.map
              (fun (s : Sta.path_step) -> (s.Sta.step_inst, s.Sta.step_net, bits s.Sta.step_arrival))
              (path_to ep) ))
        endpoints;
  }

let view_of_sta sta =
  sta_view (Sta.netlist sta) ~arrival:(Sta.arrival sta) ~required:(Sta.required sta)
    ~slew:(Sta.slew sta) ~used_delay:(Sta.used_delay sta) ~inst_slack:(Sta.inst_slack sta)
    ~endpoints:(Sta.endpoints sta) ~path_to:(Sta.path_to sta)

(* The list-based analysis the compiled one replaced, on the public API:
   per-net loads, flip-flops launched from the clock, then the
   topological order walked with live [pin_net] lookups and one
   wire-delay call per use of a pin, endpoints, and required times
   backwards over the reversed order. *)
module Reference_sta = struct
  module Cell = Smt_cell.Cell
  module Func = Smt_cell.Func

  let gate_timing (cfg : Sta.config) nl ~loads iid ~in_slew =
    let cell = Netlist.cell nl iid in
    let load = match Netlist.output_net nl iid with Some out -> loads.(out) | None -> 0.0 in
    let tech = Library.tech (Netlist.lib nl) in
    let derate =
      if Cell.is_mt cell then Cell.bounce_derate tech ~bounce_v:(cfg.Sta.bounce_of iid) else 1.0
    in
    match cfg.Sta.slew_model with
    | None -> (Cell.delay cell ~load_ff:load *. derate, Nldm.default_input_slew)
    | Some store ->
      let arcs = Nldm.arcs_of store cell in
      ( Nldm.lookup arcs.Nldm.delay ~slew:in_slew ~load *. derate,
        Nldm.lookup arcs.Nldm.out_slew ~slew:in_slew ~load )

  let view (cfg : Sta.config) nl =
    let input_arrival = cfg.Sta.input_arrival in
    let wire nid iid pin_name = cfg.Sta.wire.Wire.net_delay nid { Netlist.inst = iid; pin_name } in
    let order = Netlist.topo_order nl in
    let nnets = Netlist.net_count nl and ninsts = Netlist.inst_count nl in
    let at_max = Array.make nnets neg_infinity in
    let at_min = Array.make nnets infinity in
    let at_slew = Array.make nnets 0.0 in
    let inst_delay = Array.make ninsts 0.0 in
    let rat = Array.make nnets infinity in
    let from_net = Array.make nnets (-1) in
    let via_inst = Array.make nnets (-1) in
    let d_slack = Array.make ninsts infinity in
    let loads = Array.init nnets (Sta.load_of_net cfg nl) in
    Netlist.iter_nets nl (fun nid ->
        if Netlist.is_clock_net nl nid then begin
          at_max.(nid) <- 0.0;
          at_min.(nid) <- 0.0;
          at_slew.(nid) <- Nldm.default_input_slew
        end
        else if Netlist.is_pi nl nid then begin
          at_max.(nid) <- input_arrival;
          at_min.(nid) <- input_arrival;
          at_slew.(nid) <- Nldm.default_input_slew
        end);
    Netlist.iter_insts nl (fun iid ->
        let cell = Netlist.cell nl iid in
        if cell.Cell.kind = Func.Dff then
          match Netlist.pin_net nl iid "Q" with
          | Some q ->
            let d, out_slew = gate_timing cfg nl ~loads iid ~in_slew:Nldm.default_input_slew in
            let lat = cfg.Sta.clock_latency iid in
            inst_delay.(iid) <- d;
            at_max.(q) <- lat +. d;
            at_min.(q) <- lat +. cell.Cell.intrinsic_delay;
            at_slew.(q) <- out_slew;
            via_inst.(q) <- iid
          | None -> ());
    List.iter
      (fun iid ->
        let cell = Netlist.cell nl iid in
        match Netlist.output_net nl iid with
        | Some out when not (Netlist.is_clock_net nl out) ->
          let worst = ref neg_infinity and worst_src = ref (-1) in
          let earliest = ref infinity and worst_slew = ref 0.0 in
          Array.iter
            (fun pin_name ->
              match Netlist.pin_net nl iid pin_name with
              | None -> ()
              | Some nid ->
                let a =
                  if at_max.(nid) = neg_infinity then input_arrival +. wire nid iid pin_name
                  else at_max.(nid) +. wire nid iid pin_name
                in
                if a > !worst then begin
                  worst := a;
                  worst_src := nid
                end;
                let s = if at_slew.(nid) > 0.0 then at_slew.(nid) else Nldm.default_input_slew in
                if s > !worst_slew then worst_slew := s;
                let e =
                  if at_min.(nid) = infinity then input_arrival +. wire nid iid pin_name
                  else at_min.(nid) +. wire nid iid pin_name
                in
                if e < !earliest then earliest := e)
            (Func.input_names cell.Cell.kind);
          let in_slew = if !worst_slew > 0.0 then !worst_slew else Nldm.default_input_slew in
          let d, out_slew = gate_timing cfg nl ~loads iid ~in_slew in
          let base_max = if !worst = neg_infinity then input_arrival else !worst in
          let base_min = if !earliest = infinity then input_arrival else !earliest in
          inst_delay.(iid) <- d;
          at_max.(out) <- base_max +. d;
          at_min.(out) <- base_min +. cell.Cell.intrinsic_delay;
          at_slew.(out) <- out_slew;
          from_net.(out) <- !worst_src;
          via_inst.(out) <- iid
        | Some _ | None -> ())
      order;
    let eps = ref [] in
    Netlist.iter_insts nl (fun iid ->
        let cell = Netlist.cell nl iid in
        if cell.Cell.kind = Func.Dff then
          match Netlist.pin_net nl iid "D" with
          | None -> ()
          | Some d_net ->
            let a =
              (if at_max.(d_net) = neg_infinity then input_arrival else at_max.(d_net))
              +. wire d_net iid "D"
            in
            let a_min =
              (if at_min.(d_net) = infinity then input_arrival else at_min.(d_net))
              +. wire d_net iid "D"
            in
            let lat = cfg.Sta.clock_latency iid in
            let req = cfg.Sta.clock_period +. lat -. cell.Cell.setup in
            let hold_slack = a_min -. (lat +. cell.Cell.hold +. cfg.Sta.hold_margin) in
            let slack = req -. a in
            rat.(d_net) <- Float.min rat.(d_net) (req -. wire d_net iid "D");
            d_slack.(iid) <- Float.min d_slack.(iid) slack;
            eps :=
              { Sta.kind = Sta.Ff_data iid; net = d_net; arrival = a; required = req; slack; hold_slack }
              :: !eps);
    List.iter
      (fun (name, nid) ->
        if not (Netlist.is_clock_net nl nid) then begin
          let a = if at_max.(nid) = neg_infinity then input_arrival else at_max.(nid) in
          let req = cfg.Sta.clock_period -. cfg.Sta.output_margin in
          rat.(nid) <- Float.min rat.(nid) req;
          eps :=
            {
              Sta.kind = Sta.Primary_output name;
              net = nid;
              arrival = a;
              required = req;
              slack = req -. a;
              hold_slack = infinity;
            }
            :: !eps
        end)
      (Netlist.outputs nl);
    List.iter
      (fun iid ->
        let cell = Netlist.cell nl iid in
        match Netlist.output_net nl iid with
        | Some out when not (Netlist.is_clock_net nl out) ->
          let d = inst_delay.(iid) in
          Array.iter
            (fun pin_name ->
              match Netlist.pin_net nl iid pin_name with
              | None -> ()
              | Some nid ->
                rat.(nid) <- Float.min rat.(nid) (rat.(out) -. d -. wire nid iid pin_name))
            (Func.input_names cell.Cell.kind)
        | Some _ | None -> ())
      (List.rev order);
    let arrival nid = if at_max.(nid) = neg_infinity then input_arrival else at_max.(nid) in
    let net_slack nid = if rat.(nid) = infinity then infinity else rat.(nid) -. arrival nid in
    let path_to (ep : Sta.endpoint) =
      let rec backtrace nid acc =
        let inst = if via_inst.(nid) >= 0 then Some via_inst.(nid) else None in
        let step = { Sta.step_inst = inst; step_net = nid; step_arrival = arrival nid } in
        if from_net.(nid) >= 0 then backtrace from_net.(nid) (step :: acc) else step :: acc
      in
      backtrace ep.Sta.net []
    in
    sta_view nl ~arrival ~required:(Array.get rat)
      ~slew:(fun nid -> if at_slew.(nid) > 0.0 then at_slew.(nid) else Nldm.default_input_slew)
      ~used_delay:(Array.get inst_delay)
      ~inst_slack:(fun iid ->
        let q = match Netlist.pin_net nl iid "Q" with Some q -> net_slack q | None -> infinity in
        Float.min d_slack.(iid) q)
      ~endpoints:(List.rev !eps) ~path_to
end

(* Extracted wires over the placement, per-flip-flop clock latencies,
   per-instance VGND bounce, a hold margin and a late input arrival; NLDM
   timing on every other seed. *)
let oracle_config ~seed nl place =
  let wire = Parasitics.wire_model (Parasitics.extract place) nl in
  {
    (Sta.config ~wire ~slew_aware:(seed mod 2 = 0) ~clock_period:(400.0 +. float_of_int (seed mod 9 * 60)) ())
    with
    Sta.clock_latency = (fun iid -> float_of_int (((iid * 7919) + seed) mod 23) *. 1.5);
    Sta.bounce_of = (fun iid -> float_of_int (((iid * 31) + seed) mod 11) *. 0.01);
    Sta.hold_margin = 3.0;
    Sta.input_arrival = 7.0;
  }

(* A random circuit placed, or every third seed an improved-MT netlist
   with its switches and holders. *)
let oracle_fixture seed =
  if seed mod 3 = 0 then random_mt_netlist seed
  else
    let nl = random_netlist seed in
    Some (nl, Placement.place ~seed nl)

let prop_sta_matches_reference =
  QCheck2.Test.make ~name:"compiled STA = list-based analysis" ~count:40 ~print:string_of_int
    seed_gen
    (fun seed ->
      match oracle_fixture seed with
      | None -> true
      | Some (nl, place) ->
        let cfg = oracle_config ~seed nl place in
        view_of_sta (Sta.analyze cfg nl) = Reference_sta.view cfg nl)

(* The flow's own sign-off timing of the paper's circuits: clock-tree
   latencies, extracted wires, VGND bounce, MTE and ECO buffers. *)
let test_sta_paper_products () =
  List.iter
    (fun (name, make) ->
      let _, art = Flow.run_with_artifacts Flow.Improved_smt (make lib) in
      let sta = art.Flow.art_sta in
      Alcotest.(check bool)
        (name ^ " bit-identical") true
        (view_of_sta sta = Reference_sta.view art.Flow.art_cfg (Sta.netlist sta)))
    [ ("circuit_a", Suite.circuit_a); ("circuit_b", Suite.circuit_b) ]

(* --- incremental STA over swaps, splices and rewires --- *)

let is_comb_inst nl iid =
  let k = (Netlist.cell nl iid).Smt_cell.Cell.kind in
  (not (Netlist.is_dead nl iid))
  && (not (Smt_cell.Func.is_sequential k))
  && not (Smt_cell.Func.is_infrastructure k)

(* A hold buffer between [pin] and the net it reads. *)
let splice_buffer nl (pin : Netlist.pin) =
  match Netlist.pin_net nl pin.Netlist.inst pin.Netlist.pin_name with
  | None -> ()
  | Some from_net ->
    let new_net = Netlist.fresh_net nl "eco" in
    Netlist.move_sink nl ~from_net pin ~to_net:new_net;
    ignore
      (Netlist.add_inst nl ~name:(Netlist.fresh_inst_name nl "ecobuf") (Library.hold_buffer lib)
         [ ("A", from_net); ("Z", new_net) ])

let connected_data_pins nl iid =
  List.filter
    (fun pin_name -> Netlist.pin_net nl iid pin_name <> None)
    (Array.to_list (Smt_cell.Func.input_names (Netlist.cell nl iid).Smt_cell.Cell.kind))

(* The gate's combinational fanout cone, itself included. *)
let comb_cone nl g =
  let cone = Hashtbl.create 16 in
  let rec visit iid =
    if not (Hashtbl.mem cone iid) then begin
      Hashtbl.add cone iid ();
      match Netlist.output_net nl iid with
      | Some o ->
        List.iter
          (fun (p : Netlist.pin) -> if is_comb_inst nl p.Netlist.inst then visit p.Netlist.inst)
          (Netlist.sinks nl o)
      | None -> ()
    end
  in
  visit g;
  cone

(* [nid] may feed a pin of gate [g] without closing a cycle. *)
let can_feed nl g nid =
  match Netlist.driver nl nid with
  | Some p -> not (Hashtbl.mem (comb_cone nl g) p.Netlist.inst)
  | None -> true

(* Moves one data pin of a gate onto the output of a gate after it in
   the topological order and outside its combinational fanout cone, so
   no cycle closes but the stored order goes stale. *)
let move_input_later nl rng =
  let order = Array.of_list (Netlist.topo_order nl) in
  let n = Array.length order in
  if n >= 2 then begin
    let i = Rng.int rng (n - 1) in
    let g = order.(i) in
    let later =
      List.filter_map
        (fun h ->
          match Netlist.output_net nl h with
          | Some y when can_feed nl g y && not (Netlist.is_clock_net nl y) -> Some y
          | Some _ | None -> None)
        (Array.to_list (Array.sub order (i + 1) (n - i - 1)))
    in
    match (connected_data_pins nl g, later) with
    | pin_name :: _, _ :: _ ->
      let to_net = Rng.pick rng (Array.of_list later) in
      let from_net = Option.get (Netlist.pin_net nl g pin_name) in
      if from_net <> to_net then
        Netlist.move_sink nl ~from_net { Netlist.inst = g; pin_name } ~to_net
    | _ -> ()
  end

(* Two gates trade an input net each: the pin counts per net stay, only
   the compiled rows go stale. *)
let trade_inputs nl rng gates =
  if Array.length gates >= 2 then begin
    let g1 = Rng.pick rng gates and g2 = Rng.pick rng gates in
    match (connected_data_pins nl g1, connected_data_pins nl g2) with
    | p1 :: _, p2 :: _ when g1 <> g2 ->
      let x = Option.get (Netlist.pin_net nl g1 p1) and y = Option.get (Netlist.pin_net nl g2 p2) in
      if x <> y && can_feed nl g1 y && can_feed nl g2 x then begin
        Netlist.move_sink nl ~from_net:x { Netlist.inst = g1; pin_name = p1 } ~to_net:y;
        Netlist.move_sink nl ~from_net:y { Netlist.inst = g2; pin_name = p2 } ~to_net:x
      end
    | _ -> ()
  end

let prop_incremental_sta_exact =
  (* Chained rounds of edits, each followed by [Sta.update] (which reads
     the edits from the netlist's journal) and compared bit for bit with
     a from-scratch analysis.  Each case runs every edit kind once, in a
     seed-rotated order.  Cell swaps (Vth flips, drive steps, DFF <->
     retention-DFF with a heavier D pin) and flip-flop D buffer splices,
     single or a chain of two on one D, keep the stored graph.  The rest
     break it, so [update] must notice and recompile: a buffer spliced
     before a gate input, a gate input moved onto a net driven later in
     the order, a removed gate, a gate input or output disconnected, two
     gates trading input nets, two buffers spliced before a D pin in
     reverse creation order, a new buffer driving a net left undriven, a
     driverless primary input turned into a clock net, and a gate whose
     output was disconnected driving a fresh net. *)
  QCheck2.Test.make ~name:"incremental STA equals full re-analysis" ~count:40
    ~print:string_of_int seed_gen
    (fun seed ->
      let module Cell = Smt_cell.Cell in
      let module Func = Smt_cell.Func in
      let module Vth = Smt_cell.Vth in
      match oracle_fixture seed with
      | None -> true
      | Some (nl, place) ->
        let cfg = oracle_config ~seed nl place in
        let rng = Rng.create seed in
        let retention = Library.retention_dff lib in
        let retention = { retention with Cell.input_cap = retention.Cell.input_cap +. 1.5 } in
        let plain_ffs = Hashtbl.create 17 in
        let swap iid =
          let c = Netlist.cell nl iid in
          let has ~drive vth = Library.has_variant ~drive lib c.Cell.kind vth c.Cell.style in
          if c.Cell.kind = Func.Dff then begin
            match Hashtbl.find_opt plain_ffs iid with
            | Some plain ->
              Hashtbl.remove plain_ffs iid;
              Netlist.replace_cell nl iid plain
            | None ->
              Hashtbl.replace plain_ffs iid c;
              Netlist.replace_cell nl iid retention
          end
          else if Func.is_infrastructure c.Cell.kind then ()
          else if Rng.chance rng 0.5 then begin
            let vth = if c.Cell.vth = Vth.Low then Vth.High else Vth.Low in
            if has ~drive:c.Cell.drive vth then
              Netlist.replace_cell nl iid (Library.restyle lib c vth c.Cell.style)
          end
          else
            let other d = d <> c.Cell.drive && has ~drive:d c.Cell.vth in
            match Array.of_list (List.filter other Library.drives) with
            | [||] -> ()
            | ds -> Netlist.replace_cell nl iid (Library.resize lib c (Rng.pick rng ds))
        in
        let ffs () =
          Array.of_list
            (List.filter (fun iid -> Netlist.pin_net nl iid "D" <> None) (reference_ffs nl))
        in
        let d_pin ff = { Netlist.inst = ff; pin_name = "D" } in
        let gates () = Array.of_list (List.filter (is_comb_inst nl) (Netlist.live_insts nl)) in
        let with_one arr f = if Array.length arr > 0 then f (Rng.pick rng arr) in
        let with_pin g f = match connected_data_pins nl g with p :: _ -> f p | [] -> () in
        (* outputs of removed or disconnected gates, for a new driver *)
        let undriven = ref [] in
        let orphan g =
          Option.iter (fun o -> undriven := o :: !undriven) (Netlist.output_net nl g)
        in
        let outputless = ref [] in
        let data_inputs () =
          Array.of_list
            (List.filter_map
               (fun (_, nid) -> if Netlist.is_clock_net nl nid then None else Some nid)
               (Netlist.inputs nl))
        in
        let edit = function
          | 0 -> List.iter (fun iid -> if Rng.chance rng 0.2 then swap iid) (Netlist.live_insts nl)
          | 1 -> Array.iter (fun ff -> if Rng.chance rng 0.3 then splice_buffer nl (d_pin ff)) (ffs ())
          | 2 ->
            with_one (ffs ()) (fun ff ->
                splice_buffer nl (d_pin ff);
                splice_buffer nl (d_pin ff))
          | 3 ->
            with_one (gates ()) (fun g ->
                with_pin g (fun pin_name -> splice_buffer nl { Netlist.inst = g; pin_name }))
          | 4 -> move_input_later nl rng
          | 5 ->
            with_one (gates ()) (fun g ->
                orphan g;
                Netlist.remove_inst nl g)
          | 6 -> with_one (gates ()) (fun g -> with_pin g (Netlist.disconnect nl g))
          | 7 ->
            with_one (gates ()) (fun g ->
                orphan g;
                outputless := g :: !outputless;
                Netlist.disconnect nl g "Z")
          | 8 -> trade_inputs nl rng (gates ())
          | 9 ->
            with_one (ffs ()) (fun ff ->
                let d_net = Option.get (Netlist.pin_net nl ff "D") in
                let mid = Netlist.fresh_net nl "eco" and out = Netlist.fresh_net nl "eco" in
                let buf from_net to_net =
                  ignore
                    (Netlist.add_inst nl ~name:(Netlist.fresh_inst_name nl "ecobuf")
                       (Library.hold_buffer lib) [ ("A", from_net); ("Z", to_net) ])
                in
                buf mid out;
                buf d_net mid;
                Netlist.move_sink nl ~from_net:d_net (d_pin ff) ~to_net:out)
          | 10 -> (
            match List.filter (fun o -> Netlist.driver nl o = None) !undriven with
            | o :: _ ->
              with_one (data_inputs ()) (fun pi ->
                  ignore
                    (Netlist.add_inst nl ~name:(Netlist.fresh_inst_name nl "ecobuf")
                       (Library.hold_buffer lib) [ ("A", pi); ("Z", o) ]))
            | [] -> ())
          | 11 -> with_one (data_inputs ()) (Netlist.mark_clock nl)
          | _ -> (
            match List.filter (fun g -> Netlist.output_net nl g = None) !outputless with
            | g :: _ -> Netlist.connect nl g "Z" (Netlist.fresh_net nl "eco")
            | [] -> ())
        in
        let sta = Sta.analyze cfg nl in
        List.for_all
          (fun round ->
            edit ((seed + round) mod 13);
            Sta.update sta;
            view_of_sta sta = view_of_sta (Sta.analyze cfg nl))
          (List.init 13 Fun.id))

(* --- the hold ECO vs re-analysis after every batch --- *)

(* The hold-fix loop as it was before the ECO updated its analysis: the
   same batches, with a from-scratch [Sta.analyze] after each. *)
let reference_fix_hold ~max_iterations cfg place =
  let nl = Placement.netlist place in
  let buf_cell = Library.hold_buffer (Netlist.lib nl) in
  let sta = ref (Sta.analyze cfg nl) in
  let hold_before = Sta.worst_hold_slack !sta in
  let added = ref 0 and iterations = ref 0 and progress = ref true in
  let setup_guard = 5.0 in
  while (not (Sta.meets_hold !sta)) && !iterations < max_iterations && !progress do
    incr iterations;
    let before = Sta.worst_hold_slack !sta in
    let violating =
      List.filter_map
        (fun (ep : Sta.endpoint) ->
          match ep.Sta.kind with
          | Sta.Ff_data ff when ep.Sta.hold_slack < 0.0 ->
            let buf_delay =
              Smt_cell.Cell.delay buf_cell
                ~load_ff:(Netlist.cell nl ff).Smt_cell.Cell.input_cap
            in
            if ep.Sta.slack >= buf_delay +. setup_guard then Some (ff, ep.Sta.net) else None
          | Sta.Ff_data _ | Sta.Primary_output _ -> None)
        (Sta.endpoints !sta)
    in
    List.iter
      (fun (ff, d_net) ->
        let new_net = Netlist.fresh_net nl "eco" in
        let name = Netlist.fresh_inst_name nl "ecobuf" in
        let pin = { Netlist.inst = ff; Netlist.pin_name = "D" } in
        Netlist.move_sink nl ~from_net:d_net pin ~to_net:new_net;
        let buf = Netlist.add_inst nl ~name buf_cell [ ("A", d_net); ("Z", new_net) ] in
        (match Placement.inst_point_opt place ff with
        | Some p -> Placement.place_inst place buf p
        | None -> ());
        incr added)
      violating;
    sta := Sta.analyze cfg nl;
    progress := violating <> [] && Sta.worst_hold_slack !sta > before +. 1e-9
  done;
  {
    Eco.buffers_added = !added;
    iterations = !iterations;
    hold_before;
    hold_after = Sta.worst_hold_slack !sta;
    setup_after = Sta.wns !sta;
  }

(* Two identical pre-ECO products (the flow with its ECO capped at zero
   iterations): one fixed by [Eco.fix_hold], one by the re-analyzing
   loop.  Same netlist bytes, same result bits. *)
let test_eco_matches_reanalysis () =
  let max_iterations = Flow.default_options.Flow.max_hold_iterations in
  let options = { Flow.default_options with Flow.max_hold_iterations = 0 } in
  List.iter
    (fun (name, make) ->
      let product () = snd (Flow.run_with_artifacts ~options Flow.Improved_smt (make lib)) in
      let a = product () and b = product () in
      let r = Eco.fix_hold ~max_iterations a.Flow.art_cfg a.Flow.art_place in
      let want = reference_fix_hold ~max_iterations b.Flow.art_cfg b.Flow.art_place in
      Alcotest.(check bool) (name ^ ": the ECO iterates") true (r.Eco.iterations > 0);
      Alcotest.(check string)
        (name ^ ": netlist")
        (Writer.to_string (Placement.netlist b.Flow.art_place))
        (Writer.to_string (Placement.netlist a.Flow.art_place));
      Alcotest.(check (pair int int))
        (name ^ ": buffers, iterations")
        (want.Eco.buffers_added, want.Eco.iterations)
        (r.Eco.buffers_added, r.Eco.iterations);
      List.iter
        (fun (field, got, expected) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s %h = %h" name field got expected)
            true (same_float got expected))
        [
          ("hold_before", r.Eco.hold_before, want.Eco.hold_before);
          ("hold_after", r.Eco.hold_after, want.Eco.hold_after);
          ("setup_after", r.Eco.setup_after, want.Eco.setup_after);
        ])
    [ ("circuit_a", Suite.circuit_a); ("circuit_b", Suite.circuit_b) ]

let prop_checker_clean_on_generated =
  QCheck2.Test.make ~name:"checker finds no errors in generated netlists" ~count:25
    seed_gen
    (fun seed ->
      Violation.errors (Drc.check ~expect_buffered_mte:false (random_netlist seed)) = [])

let prop_checker_agrees_with_validate =
  (* Every injected fault class is caught by its advertised checker: the
     structural classes by a DRC code, the semantic-only classes by a
     standby-verifier rule — and the semantic-only classes must stay
     invisible to the DRC (that is their whole point). *)
  QCheck2.Test.make ~name:"every fault class caught by DRC or the standby verifier"
    ~count:22
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 10))
    (fun (seed, which) ->
      let fault = List.nth Fault.all (which mod List.length Fault.all) in
      let fixture =
        (* Domain-only classes need declared domains and isolation clamps,
           which the random flow product never has. *)
        if Fault.requires_domains fault then
          Some (Suite.multi_domain ~domains:(2 + (seed mod 3)) ~name:"pd" lib, None)
        else
          Option.map (fun (nl, place) -> (nl, Some place)) (random_mt_netlist seed)
      in
      match fixture with
      | None -> true
      | Some (nl, place) ->
        (match Fault.inject ~seed nl fault with
        | None -> not (Fault.requires_domains fault)
        | Some _ ->
          let vs = Drc.check ?place ~expect_buffered_mte:false nl in
          let detected = List.map (fun v -> v.Violation.code) vs in
          let codes_ok =
            match Fault.expected_codes fault with
            | [] -> Violation.errors vs = [] (* DRC-invisible by design *)
            | expected -> List.exists (fun c -> List.mem c detected) expected
          in
          let rules_ok =
            match Fault.expected_rules fault with
            | [] -> true
            | expected ->
              let ids =
                List.map
                  (fun f -> f.Rules.rule.Rules.id)
                  (Verify.analyze nl).Verify.findings
              in
              List.exists (fun r -> List.mem r ids) expected
          in
          codes_ok && rules_ok))

let prop_flow_products_lint_clean =
  (* Whatever circuit the suite generates and whichever technique the
     flow applies, the finished netlist must carry no semantic standby
     errors: the holders, switches, and enable tree the flow inserts are
     exactly what the abstract interpretation demands. *)
  QCheck2.Test.make ~name:"flow products are lint-clean" ~count:8
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 0 23))
    (fun (seed, which) ->
      let name, gen = List.nth Suite.all (which mod List.length Suite.all) in
      let technique =
        match which mod 3 with
        | 0 -> Flow.Dual_vth
        | 1 -> Flow.Conventional_smt
        | _ -> Flow.Improved_smt
      in
      let nl = gen lib in
      (* Multi-domain circuits are generated post-MT: lint them as-is. *)
      if not (Suite.is_multi_domain name) then begin
        let options = { Flow.default_options with Flow.seed; Flow.activity_cycles = 32 } in
        ignore (Flow.run ~options technique nl)
      end;
      (Verify.analyze nl).Verify.findings = [])

let prop_repair_clears_repairable =
  QCheck2.Test.make ~name:"repair clears repairable faults and is idempotent" ~count:15
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 8))
    (fun (seed, which) ->
      match random_mt_netlist seed with
      | None -> true
      | Some (nl, place) ->
        let fault = List.nth Fault.all (which mod List.length Fault.all) in
        if not (Fault.repairable fault) then true
        else begin
          match Fault.inject ~seed nl fault with
          | None -> true
          | Some _ ->
            let vs = Drc.check ~place ~expect_buffered_mte:false nl in
            ignore (Repair.repair ~place nl vs);
            let after = Drc.check ~place ~expect_buffered_mte:false nl in
            let again = Repair.repair ~place nl after in
            Violation.errors after = [] && again.Repair.repaired = 0
        end)

(* One randomized ECO delta: a gate swap, a keeper deletion, or a
   keeper-enable rewire — the edit classes the flow's own repair and
   minimize stages produce. *)
let eco_delta rng nl =
  let module Cell = Smt_cell.Cell in
  let module Func = Smt_cell.Func in
  let pick = function
    | [] -> None
    | xs -> Some (List.nth xs (Rng.int rng (List.length xs)))
  in
  let swap_gate () =
    let comb =
      List.filter
        (fun i ->
          let k = (Netlist.cell nl i).Cell.kind in
          k = Func.Nand2 || k = Func.Nor2)
        (Netlist.live_insts nl)
    in
    match pick comb with
    | None -> ()
    | Some iid ->
      let c = Netlist.cell nl iid in
      let k' = if c.Cell.kind = Func.Nand2 then Func.Nor2 else Func.Nand2 in
      Netlist.replace_cell nl iid
        (Library.variant ~drive:c.Cell.drive (Netlist.lib nl) k' c.Cell.vth c.Cell.style)
  in
  let holders () =
    List.filter
      (fun i -> (Netlist.cell nl i).Cell.kind = Func.Holder)
      (Netlist.live_insts nl)
  in
  match Rng.int rng 3 with
  | 0 -> swap_gate ()
  | 1 -> (
    match pick (holders ()) with
    | None -> swap_gate ()
    | Some h -> Netlist.remove_inst nl h)
  | _ -> (
    let nets = ref [] in
    Netlist.iter_nets nl (fun nid ->
        if not (Netlist.is_clock_net nl nid) then nets := nid :: !nets);
    match (pick (holders ()), pick (List.rev !nets)) with
    | Some h, Some nid -> Netlist.connect nl h "MTE" nid
    | _ -> swap_gate ())

let prop_incremental_matches_full =
  (* The incremental soundness claim: after any chain of ECO deltas,
     [Verify.update] over the journal's dirty set reports byte-identical
     findings and the same value map as a from-scratch analysis.  25
     cases x 4 deltas = 100 randomized deltas per run. *)
  QCheck2.Test.make ~name:"incremental verify matches from-scratch over ECO deltas"
    ~count:25
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 2 4))
    (fun (seed, domains) ->
      let nl = Suite.multi_domain ~domains ~name:"inc" lib in
      let session, _ = Smt_verify.Verify.start nl in
      let rng = Rng.create (0x1ec0 + seed) in
      let ok = ref true in
      for _ = 1 to 4 do
        eco_delta rng nl;
        let ru = Smt_verify.Verify.update session in
        let rf = Verify.analyze nl in
        let render (r : Verify.result) = List.map Rules.to_string r.Verify.findings in
        if render ru <> render rf || ru.Verify.values <> rf.Verify.values then
          ok := false
      done;
      !ok)

let () =
  Alcotest.run "smt_props"
    [
      ( "util",
        [
          qtest prop_spanning_vs_bbox;
          qtest prop_spanning_uniform;
          qtest prop_spanning_row_grid;
          Alcotest.test_case "spanning length = dense Prim (legalized placements)" `Quick
            test_spanning_legalized;
          qtest prop_rng_int_uniformish;
        ] );
      ( "netlist",
        [
          qtest prop_generated_valid;
          qtest prop_topo_respects_edges;
          qtest prop_topo_matches_reference;
          qtest prop_roundtrip_preserves_stats;
          qtest prop_roundtrip_equivalent;
        ] );
      ( "physical",
        [
          qtest prop_placement_in_die;
          qtest prop_placement_matches_reference;
          Alcotest.test_case "circuit_a/b placement = list-based placer" `Quick
            test_placement_paper_circuits;
          qtest prop_sta_arrivals_monotone;
          qtest prop_extraction_nonnegative;
          qtest prop_leakage_positive;
        ] );
      ( "mt-invariants",
        [ qtest prop_cluster_invariants; qtest prop_holder_rule_sound ] );
      ( "check",
        [
          qtest prop_checker_clean_on_generated;
          qtest prop_checker_agrees_with_validate;
          qtest prop_repair_clears_repairable;
          qtest prop_flow_products_lint_clean;
          qtest prop_incremental_matches_full;
        ] );
      ( "extensions",
        [
          qtest prop_router_sound;
          qtest prop_nldm_lookup_bounded;
          qtest prop_standby_protocol_holds;
          qtest prop_simulator_matches_reference_active;
          qtest prop_simulator_matches_reference_standby;
          qtest prop_sta_matches_reference;
          Alcotest.test_case "circuit_a/b flow timing = list-based analysis" `Quick
            test_sta_paper_products;
          qtest prop_incremental_sta_exact;
          Alcotest.test_case "hold ECO updates = re-analysis per iteration" `Quick
            test_eco_matches_reanalysis;
          qtest prop_compose_sound;
        ] );
    ]
