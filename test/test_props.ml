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
      Array.iteri (fun i iid -> Hashtbl.replace pos iid i) order;
      Array.for_all
        (fun iid ->
          List.for_all
            (fun pred ->
              match (Hashtbl.find_opt pos pred, Hashtbl.find_opt pos iid) with
              | Some pp, Some pi -> pp < pi
              | _ -> true (* flip-flops are outside the comb frame *))
            (Netlist.fanin_insts nl iid))
        order)

(* Everything the netlist text carries, keyed by name: the ports in
   order; per net its PI/PO/clock flags, driver, sinks and holder; per
   live instance its cell, pins in order, VGND switch, domain and
   isolation mark; and the domain table. *)
let text_content nl =
  let inst i = Netlist.inst_name nl i and net n = Netlist.net_name nl n in
  let pin (p : Netlist.pin) = (inst p.Netlist.inst, p.Netlist.pin_name) in
  let nets =
    List.init (Netlist.net_count nl) (fun n ->
        ( net n,
          (Netlist.is_pi nl n, Netlist.is_po nl n, Netlist.is_clock_net nl n),
          Option.map pin (Netlist.driver nl n),
          List.sort compare (List.map pin (Netlist.sinks nl n)),
          Option.map inst (Netlist.holder_of nl n) ))
  in
  let insts =
    List.map
      (fun i ->
        ( inst i,
          (Netlist.cell nl i).Smt_cell.Cell.name,
          List.map (fun (p, n) -> (p, net n)) (Netlist.conns nl i),
          Option.map inst (Netlist.vgnd_switch nl i),
          Netlist.inst_domain nl i,
          Netlist.is_isolation nl i ))
      (Netlist.live_insts nl)
  in
  ( (List.map fst (Netlist.inputs nl), List.map fst (Netlist.outputs nl)),
    List.map (fun (d, mte) -> (d, Option.map net mte)) (Netlist.domains nl),
    List.sort compare nets,
    List.sort compare insts )

(* Writing and parsing loses nothing the text carries, and writing the
   parsed netlist gives the same text back: the writer emits nets and
   instances in id order, so the fixed point also pins the parser's id
   order. *)
let roundtrip_faithful nl =
  let text = Smt_netlist.Writer.to_string nl in
  let nl2 = Smt_netlist.Parser.of_string ~lib text in
  Nl_stats.compute nl = Nl_stats.compute nl2
  && text_content nl = text_content nl2
  && Smt_netlist.Writer.to_string nl2 = text

(* Random circuits as generated, and as the dual and improved flows leave
   them: with CTS buffers, sleep switches, holders, MTE and hold buffers. *)
let prop_roundtrip_preserves_stats =
  QCheck2.Test.make ~name:"writer/parser roundtrip preserves structure" ~count:30 seed_gen
    (fun seed ->
      let nl = random_netlist seed in
      (match seed mod 3 with
      | 0 -> ()
      | 1 -> ignore (Smt_core.Flow.run Smt_core.Flow.Dual_vth nl)
      | _ -> ignore (Smt_core.Flow.run Smt_core.Flow.Improved_smt nl));
      roundtrip_faithful nl)

let test_roundtrip_soc () =
  List.iter
    (fun domains ->
      let soc () = Smt_circuits.Suite.multi_domain ~domains ~name:"soc" lib in
      let improved = soc () in
      ignore (Smt_core.Flow.run Smt_core.Flow.Improved_smt improved);
      Alcotest.(check bool)
        (Printf.sprintf "%d domains" domains)
        true (roundtrip_faithful (soc ()));
      Alcotest.(check bool)
        (Printf.sprintf "%d domains, improved" domains)
        true (roundtrip_faithful improved))
    [ 2; 3; 4 ]

let prop_roundtrip_equivalent =
  QCheck2.Test.make ~name:"clone is functionally equivalent" ~count:12 seed_gen
    (fun seed ->
      let nl = random_netlist seed in
      Smt_sim.Equiv.equivalent ~vectors:16 ~cycles:4 nl (Clone.copy nl))

(* Hostile input: a truncated, byte-flipped, line-dropped or
   line-duplicated netlist (a two-domain SoC, so every pragma kind is in
   play) either parses or raises the parser's located [Parse_error]; no
   other exception may escape. *)
let soc_text =
  lazy (Smt_netlist.Writer.to_string (Smt_circuits.Suite.multi_domain ~name:"fz" lib))

let prop_parser_rejects_mutants =
  QCheck2.Test.make ~name:"parser: mutated netlists raise only Parse_error" ~count:300
    QCheck2.Gen.(triple (int_range 0 3) (int_range 0 100_000) (int_range 0 11))
    (fun (kind, at, c) ->
      let text = Lazy.force soc_text in
      let lines = String.split_on_char '\n' text in
      let line = at mod List.length lines in
      let k = at mod String.length text in
      let mutant =
        match kind with
        | 0 -> String.sub text 0 k
        | 1 -> String.mapi (fun i ch -> if i = k then "();,./@a0\n Z".[c] else ch) text
        | 2 -> String.concat "\n" (List.filteri (fun i _ -> i <> line) lines)
        | _ ->
          String.concat "\n"
            (List.concat (List.mapi (fun i l -> if i = line then [ l; l ] else [ l ]) lines))
      in
      match Smt_netlist.Parser.of_string ~lib mutant with
      | _ -> true
      | exception Smt_netlist.Parser.Parse_error _ -> true)

(* Hostile input for every reader of the repo's JSON records (and the
   waiver reader): a valid document truncated, with one bit flipped,
   with a JSON token spliced in, or with a span deleted.  Each reader
   returns [Ok] or [Error] and raises nothing; a JSON [Error] names its
   source and gives a [$] path or a parse offset, and the ledger reader
   takes the torn-line path (every line read or counted skipped). *)
module Obs_json = Smt_obs.Obs_json

let reader_dir =
  lazy
    (let dir = Filename.temp_file "smt_readers" "" in
     Sys.remove dir;
     Unix.mkdir dir 0o755;
     at_exit (fun () ->
         Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
         Unix.rmdir dir);
     dir)

let reader_docs =
  lazy
    (let module Snapshot = Smt_obs.Snapshot in
     let module Rules = Smt_verify.Rules in
     let dir = Lazy.force reader_dir in
     let stats =
       {
         Smt_obs.Prof.minor_words = 1234.5;
         promoted_words = 8.;
         major_words = 16.;
         minor_collections = 2;
         major_collections = 1;
         compactions = 0;
         top_heap_words = 4096;
       }
     in
     let w name =
       {
         (Snapshot.workload ~name
            ~qor:[ ("area_um2", 10712.106000000033); ("wns_ps", Float.nan) ]
            ~counters:[ ("sta.analyses", 9); ("place.moves", 10368) ]
            ~stage_ms:[ ("replace", 1.5); ("route", 20.25) ])
         with
         Snapshot.w_prof = [ ("replace", stats) ];
       }
     in
     let ledger_line t =
       Smt_obs.Ledger.to_json
         (Smt_obs.Ledger.make ~time:t ~tool:"fz" ~jobs:2 ~kind:"run" [ w "a/improved" ])
     in
     let job =
       {
         Smt_campaign.Job.jb_circuit = "a";
         jb_technique = "improved";
         jb_guard = "off";
         jb_seed = 3;
       }
     in
     let file_of write path =
       write ();
       In_channel.with_open_bin path In_channel.input_all
     in
     let finding ?(mode = "") ?(witness = []) rule loc =
       { Rules.rule; loc; mode; message = "m"; witness }
     in
     let waiver =
       { Smt_verify.Waiver.w_rule = "*"; w_loc = "net:c"; w_expires = None; w_line = 2 }
     in
     [
       ("snapshot", Snapshot.to_json (Snapshot.make ~tag:"fz" [ w "a/dual"; w "a/improved" ]));
       ("ledger line", ledger_line 1000.);
       ("ledger", ledger_line 1000. ^ "\n" ^ ledger_line 2000. ^ "\n");
       ( "checkpoint",
         file_of
           (fun () ->
             Smt_campaign.Checkpoint.write ~dir
               (Smt_campaign.Checkpoint.make ~job ~attempt:2 ~duration_s:0.5
                  (Ok (w (Smt_campaign.Job.name job)))))
           (Smt_campaign.Checkpoint.path ~dir job) );
       ( "manifest",
         file_of
           (fun () ->
             Smt_campaign.Manifest.write dir
               (Smt_campaign.Manifest.make ~tag:"fz" ~circuits:[ "a"; "b" ]
                  ~techniques:[ "improved" ] ~guards:[ "off" ] ~seeds:[ 1; 2 ]))
           (Smt_campaign.Manifest.path dir) );
       ( "sarif",
         Smt_verify.Sarif.render
           [
             {
               Smt_verify.Sarif.wl_name = "a/improved";
               wl_findings =
                 [
                   finding ~mode:"sleep{a}" ~witness:[ "inst:g1"; "net:w" ]
                     Rules.float_into_awake "net:w";
                   finding Rules.useless_holder "net:h";
                 ];
               wl_waived = [ (finding Rules.crowbar_risk "net:c", waiver) ];
             };
           ] );
       ( "trace",
         {|{"traceEvents":[|}
         ^ {|{"name":"flow","cat":"smt","ph":"X","ts":0.000,"dur":100.000,"pid":1,"tid":1},|}
         ^ {|{"name":"sta","cat":"smt","ph":"X","ts":10.000,"dur":20.000,"pid":1,"tid":1,|}
         ^ {|"args":{"k":"v"}},|}
         ^ {|{"name":"kill","cat":"smt","ph":"X","ts":50.000,"dur":0.000,"pid":1,"tid":2}],|}
         ^ {|"displayTimeUnit":"ms"}|} );
       ( "waivers",
         "# accepted debt\nuseless-holder net:dp_out_*\n"
         ^ "crowbar-risk * expires=2026-12-31\n* inst:g1\n" );
     ])

let json_tokens =
  [| "null"; "true"; "-1.5"; "1e30"; "9007199254740993"; "0"; "-"; {|""|}; {|"x"|}; "{}"; "[]"; "{";
     "}"; "["; "]"; ","; ":"; {|"\u0000"|} |]

let mutate (kind, at, tok, len) text =
  let n = String.length text in
  let k = at mod (n + 1) in
  match kind with
  | 0 -> String.sub text 0 k
  | 1 when k < n ->
    let flip c = Char.chr (Char.code c lxor (1 lsl (tok mod 8))) in
    String.mapi (fun i c -> if i = k then flip c else c) text
  | 2 ->
    String.sub text 0 k ^ json_tokens.(tok mod Array.length json_tokens) ^ String.sub text k (n - k)
  | _ ->
    let len = min len (n - k) in
    String.sub text 0 k ^ String.sub text (k + len) (n - k - len)

let prop_readers_reject_mutants =
  QCheck2.Test.make ~name:"readers: mutated documents give located errors" ~count:300
    QCheck2.Gen.(quad (int_range 0 3) (int_range 0 100_000) (int_range 0 63) (int_range 1 24))
    (fun m ->
      let dir = Lazy.force reader_dir in
      let doc name = mutate m (List.assoc name (Lazy.force reader_docs)) in
      let has needle e =
        let n = String.length needle in
        let rec at i = i + n <= String.length e && (String.sub e i n = needle || at (i + 1)) in
        at 0
      in
      let located source = function
        | Ok _ -> true
        | Error e -> has (source ^ ": ") e && (has ": $" e || has " offset " e)
      in
      let in_file name text =
        let path = Filename.concat dir name in
        Out_channel.with_open_bin path (fun oc -> output_string oc text);
        path
      in
      let ledger_complete text = function
        | Ok { Smt_obs.Ledger.records; skipped } ->
          let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text) in
          List.length records + List.length skipped = List.length lines
          && List.for_all (fun e -> has "line " e && (has ": $" e || has " offset " e)) skipped
        | Error _ -> false
      in
      let checks =
        [
          ("Snapshot.of_json", located "snapshot" (Smt_obs.Snapshot.of_json (doc "snapshot")));
          ("Ledger.of_line", located "ledger line" (Smt_obs.Ledger.of_line (doc "ledger line")));
          ( "Ledger.read",
            let text = doc "ledger" in
            ledger_complete text (Smt_obs.Ledger.read (in_file "ledger.jsonl" text)) );
          ( "Checkpoint.load",
            let path = in_file "fz.ckpt.json" (doc "checkpoint") in
            located path (Smt_campaign.Checkpoint.load path) );
          ( "Manifest.load",
            let file = Filename.basename (Smt_campaign.Manifest.path dir) in
            let path = in_file file (doc "manifest") in
            located path (Smt_campaign.Manifest.load dir) );
          ( "Sarif.read_baseline",
            let path = in_file "b.sarif" (doc "sarif") in
            located path (Smt_verify.Sarif.read_baseline path) );
          ( "Flame.of_trace_json",
            match Obs_json.parse (doc "trace") with
            | Ok v -> located "trace" (Smt_obs.Flame.of_trace_json v)
            | Error e -> has " offset " e );
          ( "Waiver.parse",
            match Smt_verify.Waiver.parse (doc "waivers") with
            | Ok _ -> true
            | Error e -> has "waiver line " e );
        ]
      in
      List.for_all
        (fun (reader, ok) -> ok || QCheck2.Test.fail_reportf "%s: unlocated result" reader)
        checks)

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
      Array.for_all
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
        (* the switch sits at the clamped centroid and [vgnd_length] reads
           its members in id order, so the two lengths may differ in the
           last bits only *)
        let same_length a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b) in
        List.for_all
          (fun c ->
            List.length c.Smt_core.Cluster.members <= p.Smt_core.Cluster.cell_limit
            && c.Smt_core.Cluster.wire_length <= p.Smt_core.Cluster.length_limit +. 1e-9
            && c.Smt_core.Cluster.bounce <= p.Smt_core.Cluster.bounce_limit +. 1e-9
            && c.Smt_core.Cluster.sustained_ua <= tech.Smt_cell.Tech.em_current_limit
            && same_length c.Smt_core.Cluster.wire_length
                 (Smt_core.Cluster.vgnd_length place c.Smt_core.Cluster.switch))
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
   and a [Queue].  An instance still pending at the end is stuck on or
   behind a cycle: the first one in id order names it. *)
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
  (match List.find_opt (fun iid -> comb.(iid) && pending.(iid) > 0) (List.init n Fun.id) with
  | Some stuck -> raise (Netlist.Combinational_cycle (Netlist.inst_name nl stuck))
  | None -> ());
  Array.of_list (List.rev !order)

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

let test_spanning_inexact () =
  (* Eight points at multiples of 0.1, padded past the crossover with a
     row of integer points from x = 1000: a sweep that compares rounded
     differences drops an edge among the eight and pays a second bridge
     to the row (3099.4 where Prim reads 2099.9).  Then square grids at
     inexact steps, full of ties. *)
  let eight =
    List.map
      (fun (a, b) -> Geom.point (0.1 *. float_of_int a) (0.1 *. float_of_int b))
      [ (2, 2); (3, 2); (3, 0); (0, 0); (0, 4); (2, 0); (2, 3); (4, 1) ]
  in
  let row = List.init 1100 (fun k -> Geom.point (1000.0 +. float_of_int k) 0.0) in
  Alcotest.(check bool) "padded 0.1 grid" true (spanning_matches_prim (eight @ row));
  List.iter
    (fun step ->
      let side = 33 in
      let grid =
        List.init (side * side) (fun k ->
            Geom.point (step *. float_of_int (k mod side)) (step *. float_of_int (k / side)))
      in
      Alcotest.(check bool) (Printf.sprintf "square grid, step %g" step) true
        (spanning_matches_prim grid))
    [ 0.1; 0.7; 1.3 ]

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
    Array.iter
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
let placement_matches_reference ?seed ?utilization ?iterations nl =
  let r, ref_moves = Reference_placer.place ?seed ?utilization ?iterations nl in
  let moves0 = Metrics.counter_value m_place_moves in
  let p = Placement.place ?seed ?utilization ?iterations nl in
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

(* [cells] inverters, each from its own input port to its own output
   port.  The pads sit on the west and east edges, so every cell's
   neighbour centroid lies on the die's vertical midline: cells that
   start a pass at one x end it at one x, and those that land in one row
   tie there, at the flow's utilization of 0.65. *)
let port_bank cells =
  let module B = Smt_netlist.Builder in
  let b = B.create ~name:(Printf.sprintf "bank%d" cells) ~lib in
  for i = 1 to cells do
    B.gate_into b Smt_cell.Func.Inv
      [ B.input b (Printf.sprintf "a%d" i) ]
      (B.output b (Printf.sprintf "y%d" i))
  done;
  B.netlist b

(* One buffer fanning out to [leaves] inverters, each into an output
   buffer.  Its ties need a utilization above full: the first
   legalization's top row then runs past the die's east edge, and from
   the second pass on the refinement clamps several of its cells onto
   that edge. *)
let fanout_star leaves =
  let module B = Smt_netlist.Builder in
  let module Func = Smt_cell.Func in
  let b = B.create ~name:(Printf.sprintf "star%d" leaves) ~lib in
  let hub = B.gate b Func.Buf [ B.input b "a" ] in
  for i = 1 to leaves do
    B.gate_into b Func.Buf [ B.gate b Func.Inv [ hub ] ] (B.output b (Printf.sprintf "y%d" i))
  done;
  B.netlist b

(* Cells of one row on one x, where the legalization's tie order decides
   which goes first: a port bank at the flow's utilization, or a fanout
   star packed at 1.25-2.0. *)
let prop_placement_ties_match_reference =
  QCheck2.Test.make ~name:"placer ties on x = list-based placer" ~count:20
    QCheck2.Gen.(triple seed_gen (int_range 16 48) (int_range 2 14))
    (fun (seed, cells, iterations) ->
      if seed mod 2 = 0 then placement_matches_reference ~seed ~iterations (port_bank cells)
      else
        placement_matches_reference ~seed
          ~utilization:(1.25 +. (0.25 *. float (seed / 2 mod 4)))
          ~iterations (fanout_star cells))

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
  Array.iter
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
   each flip-flop's slack, and each endpoint with its worst path (each
   arc's instance, net and arrival). *)
type sta_view = {
  v_nets : (int64 * int64 * int64) array;
  v_used : int64 array;
  v_ff_slack : int64 list;
  v_endpoints : (Sta.endpoint_kind * int * int64 list * (int option * int * int64) list) list;
}

let sta_view nl ~arrival ~required ~slew ~used_delay ~inst_slack ~endpoints ~path =
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
            List.map (fun (inst, net, a) -> (inst, net, bits a)) (path ep) ))
        endpoints;
  }

let view_of_sta sta =
  sta_view (Sta.netlist sta) ~arrival:(Sta.arrival sta) ~required:(Sta.required sta)
    ~slew:(Sta.slew sta) ~used_delay:(Sta.used_delay sta) ~inst_slack:(Sta.inst_slack sta)
    ~endpoints:(Sta.endpoints sta)
    ~path:(fun ep ->
      List.map
        (fun (a : Sta.path_arc) -> (a.Sta.arc_inst, a.Sta.arc_net, a.Sta.arc_arrival))
        (Sta.path_report sta ep).Sta.path_arcs)

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
    let wire nid iid = cfg.Sta.wire.Wire.net_delay nid iid in
    let order = Array.to_list (Netlist.topo_order nl) in
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
        if Netlist.is_clock_net nl nid || Netlist.is_pi nl nid then begin
          at_max.(nid) <- 0.0;
          at_min.(nid) <- 0.0;
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
                  (if at_max.(nid) = neg_infinity then 0.0 else at_max.(nid)) +. wire nid iid
                in
                if a > !worst then begin
                  worst := a;
                  worst_src := nid
                end;
                let s = if at_slew.(nid) > 0.0 then at_slew.(nid) else Nldm.default_input_slew in
                if s > !worst_slew then worst_slew := s;
                let e = (if at_min.(nid) = infinity then 0.0 else at_min.(nid)) +. wire nid iid in
                if e < !earliest then earliest := e)
            (Func.input_names cell.Cell.kind);
          let in_slew = if !worst_slew > 0.0 then !worst_slew else Nldm.default_input_slew in
          let d, out_slew = gate_timing cfg nl ~loads iid ~in_slew in
          let base_max = if !worst = neg_infinity then 0.0 else !worst in
          let base_min = if !earliest = infinity then 0.0 else !earliest in
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
              (if at_max.(d_net) = neg_infinity then 0.0 else at_max.(d_net)) +. wire d_net iid
            in
            let a_min =
              (if at_min.(d_net) = infinity then 0.0 else at_min.(d_net)) +. wire d_net iid
            in
            let lat = cfg.Sta.clock_latency iid in
            let req = cfg.Sta.clock_period +. lat -. cell.Cell.setup in
            let hold_slack = a_min -. (lat +. cell.Cell.hold +. cfg.Sta.hold_margin) in
            let slack = req -. a in
            rat.(d_net) <- Float.min rat.(d_net) (req -. wire d_net iid);
            d_slack.(iid) <- Float.min d_slack.(iid) slack;
            eps :=
              { Sta.kind = Sta.Ff_data iid; net = d_net; arrival = a; required = req; slack; hold_slack }
              :: !eps);
    List.iter
      (fun (name, nid) ->
        if not (Netlist.is_clock_net nl nid) then begin
          let a = if at_max.(nid) = neg_infinity then 0.0 else at_max.(nid) in
          let req = cfg.Sta.clock_period in
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
                rat.(nid) <- Float.min rat.(nid) (rat.(out) -. d -. wire nid iid))
            (Func.input_names cell.Cell.kind)
        | Some _ | None -> ())
      (List.rev order);
    let arrival nid = if at_max.(nid) = neg_infinity then 0.0 else at_max.(nid) in
    let net_slack nid = if rat.(nid) = infinity then infinity else rat.(nid) -. arrival nid in
    let path (ep : Sta.endpoint) =
      let rec backtrace nid acc =
        let inst = if via_inst.(nid) >= 0 then Some via_inst.(nid) else None in
        let arc = (inst, nid, arrival nid) in
        if from_net.(nid) >= 0 then backtrace from_net.(nid) (arc :: acc) else arc :: acc
      in
      backtrace ep.Sta.net []
    in
    sta_view nl ~arrival ~required:(Array.get rat)
      ~slew:(fun nid -> if at_slew.(nid) > 0.0 then at_slew.(nid) else Nldm.default_input_slew)
      ~used_delay:(Array.get inst_delay)
      ~inst_slack:(fun iid ->
        let q = match Netlist.pin_net nl iid "Q" with Some q -> net_slack q | None -> infinity in
        Float.min d_slack.(iid) q)
      ~endpoints:(List.rev !eps) ~path
end

(* Extracted wires over the placement, per-flip-flop clock latencies,
   per-instance VGND bounce and a hold margin; NLDM timing on every other
   seed. *)
let oracle_config ~seed nl place =
  let wire = Parasitics.wire_model (Parasitics.extract place) nl in
  {
    (Sta.config ~wire ~slew_aware:(seed mod 2 = 0) ~clock_period:(400.0 +. float_of_int (seed mod 9 * 60)) ())
    with
    Sta.clock_latency = (fun iid -> float_of_int (((iid * 7919) + seed) mod 23) *. 1.5);
    Sta.bounce_of = (fun iid -> float_of_int (((iid * 31) + seed) mod 11) *. 0.01);
    Sta.hold_margin = 3.0;
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
   latencies, extracted wires, VGND bounce, MTE and ECO buffers.  The
   conventional products' embedded MT-cells read MTE from a buffered
   enable tree: the only levelizer edges here that are not data pins. *)
let test_sta_paper_products () =
  List.iter
    (fun (technique, (name, make)) ->
      let _, art = Flow.run_with_artifacts technique (make lib) in
      let sta = art.Flow.art_sta in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s bit-identical" name (Flow.technique_name technique))
        true
        (view_of_sta sta = Reference_sta.view art.Flow.art_cfg (Sta.netlist sta)))
    (List.concat_map
       (fun technique ->
         List.map (fun c -> (technique, c))
           [ ("circuit_a", Suite.circuit_a); ("circuit_b", Suite.circuit_b) ])
       [ Flow.Improved_smt; Flow.Conventional_smt ])

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
  let order = Netlist.topo_order nl in
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

(* The edits of the incremental-STA properties on [nl], drawn from [rng]:
   [edit k] for k in 0..16.  Cell swaps (0: Vth flips, drive steps, DFF
   <-> retention-DFF with a heavier D pin) and flip-flop D buffer
   splices, single (1) or a chain of two on one D (2), keep the stored
   graph.  The rest break it, so [Sta.update] must notice and recompile:
   a buffer spliced before a gate input (3), a gate input moved onto a
   net driven later in the order (4), a removed gate (5), a gate input
   (6) or output (7, sometimes a flip-flop's Q, which leaves a D
   endpoint no output leads to; later swaps always include such a
   flip-flop) disconnected, two gates trading input
   nets (8), a new buffer driving a net left undriven (10), a
   driverless primary input turned into a clock net (11), and a gate
   whose output was disconnected driving a fresh net (12).  Two buffers
   spliced before a D pin in reverse creation order (9) keep it: new
   gates join the order after the new gates they read.  The last three
   mix the journal's two kinds of touch: same-kind swaps interleaved
   with D splices, a swap of a new buffer and of the flip-flop it feeds,
   and, every third time, a gate input rewired (13); supply-only edits,
   which touch values and no connection: MT-cells re-hung on other
   switches, a new domain over some cells, isolation marks and a holder
   added to a gate's output (14); a clock-tree insert built bottom-up,
   as CTS builds it, so the parent buffer is newer than the child it
   drives (15); and a swapped gate or flip-flop whose every data-pin net
   gains a new reader, so no net of its inputs is only value-touched
   (16). *)
let sta_editor nl rng =
  let module Cell = Smt_cell.Cell in
  let module Func = Smt_cell.Func in
  let module Vth = Smt_cell.Vth in
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
    Array.of_list (List.filter (fun iid -> Netlist.pin_net nl iid "D" <> None) (reference_ffs nl))
  in
  let d_pin ff = { Netlist.inst = ff; pin_name = "D" } in
  let gates () = Array.of_list (List.filter (is_comb_inst nl) (Netlist.live_insts nl)) in
  let with_one arr f = if Array.length arr > 0 then f (Rng.pick rng arr) in
  let with_pin g f = match connected_data_pins nl g with p :: _ -> f p | [] -> () in
  (* outputs of removed or disconnected gates, for a new driver *)
  let undriven = ref [] in
  let orphan g = Option.iter (fun o -> undriven := o :: !undriven) (Netlist.output_net nl g) in
  let outputless = ref [] in
  let data_inputs () =
    Array.of_list
      (List.filter_map
         (fun (_, nid) -> if Netlist.is_clock_net nl nid then None else Some nid)
         (Netlist.inputs nl))
  in
  (* flip-flops whose Q was disconnected: swaps always include them *)
  let qless = ref [] in
  let swap_some p =
    List.iter (fun iid -> if Rng.chance rng p then swap iid) (Netlist.live_insts nl);
    List.iter swap !qless
  in
  let domains = ref 0 in
  let clock_buffer a z =
    Netlist.add_inst nl ~name:(Netlist.fresh_inst_name nl "ctsbuf") (Library.clock_buffer lib)
      [ ("A", a); ("Z", z) ]
  in
  let clock_net () =
    let n = Netlist.fresh_net nl "clk" in
    Netlist.mark_clock nl n;
    n
  in
  function
  | 0 -> swap_some 0.2
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
    if Rng.chance rng 0.25 then
      with_one (ffs ()) (fun ff ->
          qless := ff :: !qless;
          Netlist.disconnect nl ff "Q")
    else
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
  | 12 -> (
    match List.filter (fun g -> Netlist.output_net nl g = None) !outputless with
    | g :: _ -> Netlist.connect nl g "Z" (Netlist.fresh_net nl "eco")
    | [] -> ())
  | 13 ->
    swap_some 0.1;
    with_one (ffs ()) (fun ff ->
        splice_buffer nl (d_pin ff);
        let d_net = Option.get (Netlist.pin_net nl ff "D") in
        Option.iter (fun (p : Netlist.pin) -> swap p.Netlist.inst) (Netlist.driver nl d_net);
        swap ff);
    swap_some 0.1;
    if Rng.chance rng (1.0 /. 3.0) then move_input_later nl rng;
    swap_some 0.1
  | 14 ->
    let insts = Netlist.live_insts nl in
    (match Array.of_list (Netlist.switches nl) with
    | [||] -> ()
    | sws ->
      List.iter
        (fun iid ->
          if Vth.style_equal (Netlist.cell nl iid).Cell.style Vth.Mt_vgnd && Rng.chance rng 0.3
          then Netlist.set_vgnd_switch nl iid (if Rng.chance rng 0.2 then None else Some (Rng.pick rng sws)))
        insts);
    with_one (data_inputs ()) (fun mte ->
        incr domains;
        let name = Printf.sprintf "dom%d" !domains in
        Netlist.add_domain nl ~name ~mte:(Some mte);
        List.iter
          (fun iid ->
            if Rng.chance rng 0.2 then Netlist.set_inst_domain nl iid (Some name);
            if Rng.chance rng 0.05 then Netlist.set_isolation nl iid true)
          insts;
        with_one (gates ()) (fun g ->
            match Netlist.output_net nl g with
            | Some o when Netlist.holder_of nl o = None ->
              ignore
                (Netlist.add_inst nl ~name:(Netlist.fresh_inst_name nl "holder") (Library.holder lib)
                   [ ("MTE", mte); ("Z", o) ])
            | Some _ | None -> ()))
  | 16 ->
    (* a swap whose every data-pin net gains a reader: with those nets
       rewired, the swapped instance must read its wires again from the
       structural check, not from a value touch *)
    with_one (Array.append (gates ()) (ffs ())) (fun g ->
        swap g;
        let pins =
          if (Netlist.cell nl g).Cell.kind = Func.Dff then [ "D" ] else connected_data_pins nl g
        in
        List.iter
          (fun pin_name ->
            match Netlist.pin_net nl g pin_name with
            | Some nid when not (Netlist.is_clock_net nl nid) ->
              ignore
                (Netlist.add_inst nl ~name:(Netlist.fresh_inst_name nl "tap")
                   (Library.hold_buffer lib)
                   [ ("A", nid); ("Z", Netlist.fresh_net nl "tap") ])
            | Some _ | None -> ())
          pins)
  | _ -> (
    match Netlist.clock_net nl with
    | None -> ()
    | Some root -> (
      match List.filter (fun (p : Netlist.pin) -> p.Netlist.pin_name = "CK") (Netlist.sinks nl root) with
      | [] -> ()
      | cks ->
        let child_in = clock_net () and child_out = clock_net () in
        let child = clock_buffer child_in child_out in
        List.iter
          (fun (p : Netlist.pin) ->
            if Rng.chance rng 0.5 then Netlist.connect nl p.Netlist.inst "CK" child_out)
          cks;
        let parent_in = clock_net () and parent_out = clock_net () in
        let parent = clock_buffer parent_in parent_out in
        Netlist.move_sink nl ~from_net:child_in { Netlist.inst = child; pin_name = "A" }
          ~to_net:parent_out;
        Netlist.move_sink nl ~from_net:parent_in { Netlist.inst = parent; pin_name = "A" }
          ~to_net:root))

(* Chained rounds of edits, each followed by [Sta.update] (which reads
   the edits from the netlist's journal) and compared bit for bit with a
   from-scratch analysis.  Each case runs every edit kind of [sta_editor]
   once, in a seed-rotated order. *)
let incremental_rounds seed nl place =
  let cfg = oracle_config ~seed nl place in
  let edit = sta_editor nl (Rng.create seed) in
  let sta = Sta.analyze cfg nl in
  List.for_all
    (fun round ->
      edit ((seed + round) mod 17);
      Sta.update sta;
      view_of_sta sta = view_of_sta (Sta.analyze cfg nl))
    (List.init 17 Fun.id)

let prop_incremental_sta_exact =
  QCheck2.Test.make ~name:"incremental STA equals full re-analysis" ~count:40
    ~print:string_of_int seed_gen
    (fun seed ->
      match oracle_fixture seed with
      | None -> true
      | Some (nl, place) -> incremental_rounds seed nl place)

(* The same rounds on a graph large enough that most single edits stay
   under [Sta.update]'s quarter-of-the-graph switch, so their required
   times come from the cone walk, not one backward pass. *)
let prop_incremental_sta_exact_large =
  QCheck2.Test.make ~name:"incremental STA equals full re-analysis (large graphs)" ~count:10
    ~print:string_of_int seed_gen
    (fun seed ->
      let nl =
        Generators.layered ~seed ~min_depth:4 ~name:(Printf.sprintf "big%d" seed) ~inputs:16
          ~outputs:12 ~width:40 ~depth:10 lib
      in
      incremental_rounds seed nl (Placement.place ~seed nl))

(* --- re-timing a session under a new config --- *)

let m_sta_analyses = Metrics.counter "sta.analyses"
let m_sta_arrival_evals = Metrics.counter "sta.arrival_evals"
let m_sta_incremental = Metrics.counter "sta.incremental_updates"

let sta_counters () =
  ( Metrics.counter_value m_sta_analyses,
    Metrics.counter_value m_sta_arrival_evals,
    Metrics.counter_value m_sta_incremental )

(* [view_of_sta] plus every instance's slack and the five worst paths as
   structured reports, every float as its bits. *)
let full_view sta =
  let bits = Int64.bits_of_float in
  let nl = Sta.netlist sta in
  ( view_of_sta sta,
    List.init (Netlist.inst_count nl) (fun iid -> bits (Sta.inst_slack sta iid)),
    List.map
      (fun (p : Sta.path) ->
        ( p.Sta.path_endpoint.Sta.net,
          bits p.Sta.path_capture_wire,
          List.map
            (fun (a : Sta.path_arc) ->
              ( a.Sta.arc_inst,
                a.Sta.arc_net,
                List.map bits
                  [ a.Sta.arc_cell_delay; a.Sta.arc_wire_delay; a.Sta.arc_arrival; a.Sta.arc_slew ]
              ))
            p.Sta.path_arcs ))
      (Sta.worst_paths sta 5) )

(* A random circuit or improved-MT netlist under [oracle_config], or,
   every fourth seed, a small suite circuit's flow product under the
   flow's own sign-off config (clock-tree latencies, bounce, extracted
   wires). *)
let reanalyze_fixture seed =
  if seed mod 4 = 3 then begin
    let circuits = [| "c17"; "tiny"; "fig23"; "alu8"; "counter12"; "crc16" |] in
    let name = circuits.(seed / 4 mod Array.length circuits) in
    let technique =
      [| Flow.Dual_vth; Flow.Conventional_smt; Flow.Improved_smt |].(seed / 24 mod 3)
    in
    let _, art = Flow.run_with_artifacts technique ((List.assoc name Suite.all) lib) in
    Some (Placement.netlist art.Flow.art_place, art.Flow.art_place, art.Flow.art_cfg)
  end
  else
    Option.map (fun (nl, place) -> (nl, place, oracle_config ~seed nl place)) (oracle_fixture seed)

(* A wire model extracted anew, at a random detour. *)
let new_wire rng nl place (cfg : Sta.config) =
  let detour = 1.0 +. (float_of_int (Rng.int rng 50) /. 100.0) in
  { cfg with Sta.wire = Parasitics.wire_model (Parasitics.extract ~detour place) nl }

(* One config change: the clock period, the hold margin, the bounce, the
   clock latencies, the slew model, a new wire model, or none. *)
let change_config rng nl place (cfg : Sta.config) =
  let salt = Rng.int rng 1000 in
  match Rng.int rng 7 with
  | 0 -> { cfg with Sta.clock_period = 200.0 +. float_of_int (Rng.int rng 800) }
  | 1 -> { cfg with Sta.hold_margin = float_of_int (Rng.int rng 10) }
  | 2 -> { cfg with Sta.bounce_of = (fun iid -> float_of_int (((iid * 37) + salt) mod 13) *. 0.01) }
  | 3 ->
    { cfg with Sta.clock_latency = (fun iid -> float_of_int (((iid * 7919) + salt) mod 29) *. 1.25) }
  | 4 ->
    {
      cfg with
      Sta.slew_model = (match cfg.Sta.slew_model with Some _ -> None | None -> Some (Nldm.store ()));
    }
  | 5 -> new_wire rng nl place cfg
  | _ -> cfg

let prop_reanalyze_exact =
  (* Rounds of an edit the stored graph keeps (a cell swap, a D-pin
     splice, a chain of two in either order, swaps mixed with splices,
     supply-only edits), an edit it recompiles for (a removed gate), a
     bottom-up clock-tree insert followed at once by a new wire model,
     or none, sometimes an [update], and a config change, then
     [Sta.reanalyze] under the new config.  The session equals a fresh
     analysis bit for bit, and the re-time counts as exactly that
     analysis: one analysis, the same arrival evaluations, no
     incremental update. *)
  QCheck2.Test.make ~name:"reanalyze equals a fresh analysis" ~count:40 ~print:string_of_int
    seed_gen
    (fun seed ->
      match reanalyze_fixture seed with
      | None -> true
      | Some (nl, place, cfg) ->
        let rng = Rng.create (seed + 7) in
        let edit = sta_editor nl rng in
        let sta = Sta.analyze cfg nl in
        let cfg = ref cfg in
        List.for_all
          (fun _ ->
            let clock_insert = Rng.int rng 4 = 0 in
            if clock_insert then edit 15
            else begin
              match Rng.int rng 3 with
              | 0 -> edit (Rng.pick rng [| 0; 1; 2; 9; 13; 14; 16 |])
              | 1 -> edit 5
              | _ -> ()
            end;
            if (not clock_insert) && Rng.chance rng 0.25 then Sta.update sta;
            cfg := (if clock_insert then new_wire rng nl place else change_config rng nl place) !cfg;
            let a0, e0, u0 = sta_counters () in
            Sta.reanalyze sta !cfg;
            let a1, e1, u1 = sta_counters () in
            let fresh = Sta.analyze !cfg nl in
            let _, e2, _ = sta_counters () in
            a1 - a0 = 1 && e1 - e0 = e2 - e1 && u1 = u0 && full_view sta = full_view fresh)
          (List.init 12 Fun.id))

(* --- a cycle is named by its first stuck instance --- *)

let cycle_name f =
  match f () with _ -> None | exception Netlist.Combinational_cycle name -> Some name

(* [nl] re-read with its instance statements shuffled, so instance ids
   no longer follow the logic from inputs to outputs. *)
let shuffle_ids rng nl =
  let lines = Array.of_list (String.split_on_char '\n' (Writer.to_string nl)) in
  let slots =
    List.filter
      (fun i -> String.starts_with ~prefix:" " lines.(i) && String.contains lines.(i) '(')
      (List.init (Array.length lines) Fun.id)
    |> Array.of_list
  in
  let stmts = Array.map (Array.get lines) slots in
  Rng.shuffle rng stmts;
  Array.iteri (fun k i -> lines.(i) <- stmts.(k)) slots;
  Smt_netlist.Parser.of_string ~lib (String.concat "\n" (Array.to_list lines))

let prop_cycles_named =
  (* One loop closed into a random circuit whose instance ids are
     shuffled (so the first stuck instance is not always the gate the
     loop enters): a gate's data pin moved onto the output of a gate in
     its own combinational fanout cone (itself included), or, for every
     other generator round, the gate restyled as an embedded MT-cell
     whose MTE pin reads that output, an edge the levelizer counts and
     STA does not time.  The levelizer, a fresh analysis and an update of
     the analysis taken before the edit each name the reference's first
     stuck instance. *)
  QCheck2.Test.make ~name:"cycles name the reference's first stuck instance" ~count:40
    ~print:string_of_int seed_gen
    (fun seed ->
      let module Cell = Smt_cell.Cell in
      let module Vth = Smt_cell.Vth in
      let rng = Rng.create seed in
      let nl = shuffle_ids rng (random_netlist seed) in
      (* [seed mod 4] picks the generator *)
      let through_mte = seed / 4 mod 2 = 1 in
      let has_embedded g =
        let c = Netlist.cell nl g in
        Library.has_variant ~drive:c.Cell.drive lib c.Cell.kind Vth.Low Vth.Mt_embedded
      in
      let gates =
        List.filter
          (fun g ->
            is_comb_inst nl g && connected_data_pins nl g <> [] && ((not through_mte) || has_embedded g))
          (Netlist.live_insts nl)
      in
      match gates with
      | [] -> true
      | _ -> (
        let g = Rng.pick rng (Array.of_list gates) in
        let cone_outputs =
          Hashtbl.fold
            (fun h () acc -> match Netlist.output_net nl h with Some o -> o :: acc | None -> acc)
            (comb_cone nl g) []
          |> List.sort compare |> Array.of_list
        in
        match cone_outputs with
        | [||] -> true
        | _ ->
          let cfg = Sta.config ~clock_period:1e5 () in
          let sta = Sta.analyze cfg nl in
          let loop = Rng.pick rng cone_outputs in
          if through_mte then begin
            let c = Netlist.cell nl g in
            Netlist.replace_cell nl g
              (Library.variant ~drive:c.Cell.drive lib c.Cell.kind Vth.Low Vth.Mt_embedded);
            Netlist.connect nl g "MTE" loop
          end
          else Netlist.connect nl g (Rng.pick rng (Array.of_list (connected_data_pins nl g))) loop;
          let want = cycle_name (fun () -> reference_topo_order nl) in
          want <> None
          && cycle_name (fun () -> Netlist.topo_order nl) = want
          && cycle_name (fun () -> Sta.analyze cfg nl) = want
          && cycle_name (fun () -> Sta.update sta) = want))

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
    sta = !sta;
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
   minimize stages produce.  Returns the edit's name. *)
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
    (match pick comb with
    | None -> ()
    | Some iid ->
      let c = Netlist.cell nl iid in
      let k' = if c.Cell.kind = Func.Nand2 then Func.Nor2 else Func.Nand2 in
      Netlist.replace_cell nl iid
        (Library.variant ~drive:c.Cell.drive (Netlist.lib nl) k' c.Cell.vth c.Cell.style));
    "gate swap"
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
    | Some h ->
      Netlist.remove_inst nl h;
      "holder removal")
  | _ -> (
    let nets = ref [] in
    Netlist.iter_nets nl (fun nid ->
        if not (Netlist.is_clock_net nl nid) then nets := nid :: !nets);
    match (pick (holders ()), pick (List.rev !nets)) with
    | Some h, Some nid ->
      Netlist.connect nl h "MTE" nid;
      "holder-enable rewire"
    | _ -> swap_gate ())

(* The holders wired to each net by their Z pin, ascending. *)
let keepers nl =
  let tbl = Hashtbl.create 97 in
  List.iter
    (fun i ->
      if (Netlist.cell nl i).Smt_cell.Cell.kind = Smt_cell.Func.Holder then
        Option.iter
          (fun z -> Hashtbl.replace tbl z (Option.value ~default:[] (Hashtbl.find_opt tbl z) @ [ i ]))
          (Netlist.pin_net nl i "Z"))
    (Netlist.live_insts nl);
  fun nid -> Option.value ~default:[] (Hashtbl.find_opt tbl nid)

(* The edit classes the flow itself applies to a delivered product, next
   to [eco_delta]'s three: a hold-buffer splice (fresh net, buffer,
   [move_sink]), a holder added on an MT output, a VGND re-home onto
   another switch, a switch removal and a switch-enable rewire.  Returns
   the edit's name. *)
let flow_delta rng nl =
  let module Cell = Smt_cell.Cell in
  let module Func = Smt_cell.Func in
  let module Vth = Smt_cell.Vth in
  let pick = function
    | [] -> None
    | xs -> Some (List.nth xs (Rng.int rng (List.length xs)))
  in
  let live = Netlist.live_insts nl in
  let kind k i = (Netlist.cell nl i).Cell.kind = k in
  let switches = List.filter (kind Func.Sleep_switch) live in
  let members =
    List.filter
      (fun i ->
        Vth.style_equal (Netlist.cell nl i).Cell.style Vth.Mt_vgnd
        && Netlist.vgnd_switch nl i <> None)
      live
  in
  let nets = ref [] in
  Netlist.iter_nets nl (fun nid -> if not (Netlist.is_clock_net nl nid) then nets := nid :: !nets);
  let nets = List.rev !nets in
  match Rng.int rng 5 with
  | 0 -> (
    (* splice a buffer before a flip-flop's D or a gate's first input *)
    let first_input i =
      match Func.input_names (Netlist.cell nl i).Cell.kind with
      | [||] -> None
      | names -> Option.map (fun n -> (i, names.(0), n)) (Netlist.pin_net nl i names.(0))
    in
    let sites =
      List.filter_map first_input
        (List.filter (fun i -> not (kind Func.Sleep_switch i || kind Func.Holder i)) live)
    in
    match pick sites with
    | None -> eco_delta rng nl
    | Some (iid, pin_name, d) ->
      let fresh = Netlist.fresh_net nl "eco" in
      Netlist.move_sink nl ~from_net:d { Netlist.inst = iid; pin_name } ~to_net:fresh;
      ignore
        (Netlist.add_inst nl ~name:(Netlist.fresh_inst_name nl "ecobuf")
           (Library.variant lib Func.Buf Vth.Low Vth.Plain)
           [ ("A", d); ("Z", fresh) ]);
      "hold-buffer splice")
  | 1 -> (
    (* on an MT output nothing keeps yet, enabled like the flow's holders
       or from any net *)
    let mt_outs =
      let kept = keepers nl in
      List.filter (fun z -> kept z = []) (List.filter_map (Netlist.output_net nl) members)
    in
    let enables =
      if Rng.int rng 2 = 0 then List.filter_map (fun i -> Netlist.pin_net nl i "MTE") switches
      else nets
    in
    match (pick mt_outs, pick enables) with
    | Some nid, Some m ->
      ignore
        (Netlist.add_inst nl ~name:(Netlist.fresh_inst_name nl "holder") (Library.holder lib)
           [ ("MTE", m); ("Z", nid) ]);
      "holder on MT output"
    | _ -> eco_delta rng nl)
  | 2 -> (
    match (pick members, pick switches) with
    | Some m, Some sw ->
      Netlist.set_vgnd_switch nl m (Some sw);
      "VGND re-home"
    | _ -> eco_delta rng nl)
  | 3 -> (
    match pick switches with
    | Some sw ->
      Netlist.remove_inst nl sw;
      "switch removal"
    | None -> eco_delta rng nl)
  | _ -> (
    match (pick switches, pick nets) with
    | Some sw, Some nid ->
      Netlist.connect nl sw "MTE" nid;
      "switch-enable rewire"
    | _ -> eco_delta rng nl)

(* Swaps a Buf driver of [nid] for an Inv or back, so the net's value
   flips while no pin of any of its readers is touched; false when the
   driver is neither. *)
let invert_driver nl nid =
  let module Cell = Smt_cell.Cell in
  let module Func = Smt_cell.Func in
  match Netlist.driver nl nid with
  | None -> false
  | Some p -> (
    let c = Netlist.cell nl p.Netlist.inst in
    let flip = function Func.Buf -> Some Func.Inv | Func.Inv -> Some Func.Buf | _ -> None in
    match flip c.Cell.kind with
    | None -> false
    | Some k ->
      Netlist.replace_cell nl p.Netlist.inst (Library.variant lib k c.Cell.vth c.Cell.style);
      true)

(* The flow's edits on a product, each followed by a change that only a
   correctly kept dependency edge carries to the edited cells: a spliced
   buffer's source loses its keeper; a new keeper's enable flips; a
   member is re-homed onto a switch whose enable was rewired to hang
   from an inverter of the parked clock, and that inverter then becomes
   a buffer (so the enable changes while neither the journal nor the
   member names it); that switch's enable pin is disconnected and
   reconnected; the switch is removed and its old enable flips.  Returns
   one thunk per update, each naming its edit. *)
let flow_scenario rng nl =
  let module Cell = Smt_cell.Cell in
  let module Func = Smt_cell.Func in
  let module Vth = Smt_cell.Vth in
  let pick = function
    | [] -> None
    | xs -> Some (List.nth xs (Rng.int rng (List.length xs)))
  in
  let live () = Netlist.live_insts nl in
  let kind k i = (Netlist.cell nl i).Cell.kind = k in
  let invertible nid =
    match Netlist.driver nl nid with
    | Some p -> kind Func.Buf p.Netlist.inst || kind Func.Inv p.Netlist.inst
    | None -> false
  in
  let mt_outs () =
    List.filter_map
      (fun i ->
        if Vth.style_equal (Netlist.cell nl i).Cell.style Vth.Mt_vgnd then Netlist.output_net nl i
        else None)
      (live ())
  in
  (* kept MT outputs with their keeper *)
  let kept_outs () =
    let kept = keepers nl in
    List.filter_map
      (fun d -> match kept d with h :: _ -> Some (d, h) | [] -> None)
      (mt_outs ())
  in
  let switch_enables () =
    List.filter_map
      (fun sw -> Option.map (fun e -> (sw, e)) (Netlist.pin_net nl sw "MTE"))
      (List.filter (kind Func.Sleep_switch) (live ()))
    |> List.filter (fun (_, e) -> invertible e)
  in
  let enable_of m = Option.bind (Netlist.vgnd_switch nl m) (fun sw -> Netlist.pin_net nl sw "MTE") in
  let step name edit () = if edit () then name else eco_delta rng nl in
  let spliced = ref None and kept = ref None and source = ref None and target = ref None in
  let plain k = Library.variant lib k Vth.Low Vth.Plain in
  [
    step "hold-buffer splice" (fun () ->
        let sites =
          List.filter_map
            (fun (d, h) ->
              match Netlist.sinks nl d with
              | p :: _ when not (Func.is_infrastructure (Netlist.cell nl p.Netlist.inst).Cell.kind) ->
                Some (d, h, p)
              | _ -> None)
            (kept_outs ())
        in
        match pick sites with
        | None -> false
        | Some (d, h, pin) ->
          let fresh = Netlist.fresh_net nl "eco" in
          Netlist.move_sink nl ~from_net:d pin ~to_net:fresh;
          ignore
            (Netlist.add_inst nl ~name:(Netlist.fresh_inst_name nl "ecobuf")
               (Library.variant lib Func.Buf Vth.Low Vth.Plain)
               [ ("A", d); ("Z", fresh) ]);
          spliced := Some h;
          true);
    step "holder removal" (fun () ->
        match !spliced with
        | Some h ->
          Netlist.remove_inst nl h;
          true
        | None -> false);
    step "holder on MT output" (fun () ->
        match
          (let kept = keepers nl in
           pick (List.filter (fun z -> kept z = []) (mt_outs ())),
           pick (switch_enables ()))
        with
        | Some z, Some (_, e) ->
          ignore
            (Netlist.add_inst nl ~name:(Netlist.fresh_inst_name nl "holder") (Library.holder lib)
               [ ("MTE", e); ("Z", z) ]);
          kept := Some e;
          true
        | _ -> false);
    step "enable inversion" (fun () ->
        match !kept with Some e -> invert_driver nl e | None -> false);
    step "enable-source rewire" (fun () ->
        (* the enable still reads 1, now from an inverter of the clock *)
        match (Netlist.clock_net nl, pick (switch_enables ())) with
        | Some clk, Some (sw, e) -> (
          match Netlist.driver nl e with
          | None -> false
          | Some p ->
            let y = Netlist.fresh_net nl "src" in
            source :=
              Some
                (Netlist.add_inst nl ~name:(Netlist.fresh_inst_name nl "srcinv") (plain Func.Inv)
                   [ ("A", clk); ("Z", y) ]);
            Netlist.connect nl p.Netlist.inst "A" y;
            target := Some (sw, e);
            true)
        | _ -> false);
    step "VGND re-home" (fun () ->
        match !target with
        | Some (sw, e) -> (
          let members =
            List.filter
              (fun i ->
                Vth.style_equal (Netlist.cell nl i).Cell.style Vth.Mt_vgnd
                && match enable_of i with Some ei -> ei <> e | None -> false)
              (live ())
          in
          match pick members with
          | None -> false
          | Some m ->
            Netlist.set_vgnd_switch nl m (Some sw);
            true)
        | None -> false);
    step "enable-source flip" (fun () ->
        (* the inverter becomes a buffer: the enable drops to 0 *)
        match !source with
        | Some inv ->
          Netlist.replace_cell nl inv (plain Func.Buf);
          true
        | None -> false);
    step "switch-enable disconnect" (fun () ->
        match !target with
        | Some (sw, _) ->
          Netlist.disconnect nl sw "MTE";
          true
        | None -> false);
    step "switch-enable reconnect" (fun () ->
        match !target with
        | Some (sw, e) ->
          Netlist.connect nl sw "MTE" e;
          true
        | None -> false);
    step "switch removal" (fun () ->
        match !target with
        | Some (sw, _) ->
          Netlist.remove_inst nl sw;
          true
        | None -> false);
    step "enable inversion" (fun () ->
        match !target with Some (_, e) -> invert_driver nl e | None -> false);
  ]

(* circuit_a's single-mode improved product, delivered as text: the
   shape the sign-off benchmark re-verifies. *)
let improved_product =
  lazy
    (let nl = Suite.circuit_a lib in
     ignore (Flow.run Flow.Improved_smt nl);
     Smt_netlist.Writer.to_string nl)

(* The product with a combinational loop behind its MT logic: a NAND fed
   by an MT-cell output and an inverter of its own output, read by a new
   primary output.  Returns the MT-cell output that feeds the loop. *)
let with_loop rng nl =
  let module Cell = Smt_cell.Cell in
  let module Func = Smt_cell.Func in
  let module Vth = Smt_cell.Vth in
  let mt_outs = ref [] in
  Netlist.iter_nets nl (fun nid ->
      match Netlist.driver nl nid with
      | Some p when Vth.style_equal (Netlist.cell nl p.Netlist.inst).Cell.style Vth.Mt_vgnd ->
        mt_outs := nid :: !mt_outs
      | Some _ | None -> ());
  let src = List.nth !mt_outs (Rng.int rng (List.length !mt_outs)) in
  let l1 = Netlist.add_output nl "loop_out" in
  let l2 = Netlist.add_net nl "loop_back" in
  ignore
    (Netlist.add_inst nl ~name:"loop_nand" (Library.variant lib Func.Nand2 Vth.Low Vth.Plain)
       [ ("A", src); ("B", l2); ("Z", l1) ]);
  ignore
    (Netlist.add_inst nl ~name:"loop_inv" (Library.variant lib Func.Inv Vth.Low Vth.Plain)
       [ ("A", l1); ("Z", l2) ]);
  src

(* --- the compiled verifier vs the list-based analysis it replaced --- *)

(* The standby verifier as it was before its compile, for whole-netlist
   analyses: the edges built by a walk over every instance, [L.v option]
   stores, a [Queue] worklist, and live [pin_net], [output_net] and
   [Walk.vgnd_state] lookups with [Lattice.eval] on every transfer.  Its
   edge lists are in instance-id order, so its worklist visits instances
   in the compiled one's order and its transfer counts are the same.  A
   VGND member whose switch has no enable cites the switch, as the
   compiled verifier does. *)
module Reference_verify = struct
  module Cell = Smt_cell.Cell
  module Func = Smt_cell.Func
  module Vth = Smt_cell.Vth
  module Walk = Smt_check.Walk
  module L = Smt_verify.Lattice

  let max_witness = 12

  let extend_path base steps =
    let p = base @ steps in
    if List.length p <= max_witness then p
    else
      let rec take n = function
        | x :: rest when n > 0 -> x :: take (n - 1) rest
        | _ -> [ "..." ]
      in
      take (max_witness - 1) p @ [ List.nth p (List.length p - 1) ]

  type mode = { m_name : string; m_asleep : string list }

  let modes_of nl =
    match
      List.filter_map
        (fun (d, mte) -> match mte with Some _ -> Some d | None -> None)
        (Netlist.domains nl)
    with
    | [] -> [ { m_name = ""; m_asleep = [] } ]
    | doms ->
      List.init
        ((1 lsl List.length doms) - 1)
        (fun i ->
          let asleep = List.filteri (fun j _ -> (i + 1) land (1 lsl j) <> 0) doms in
          { m_name = "sleep{" ^ String.concat "," asleep ^ "}"; m_asleep = asleep })

  let transferable = function Func.Dff | Func.Sleep_switch | Func.Holder -> false | _ -> true
  let net_token nl nid = "net:" ^ Netlist.net_name nl nid
  let inst_token nl iid = "inst:" ^ Netlist.inst_name nl iid

  type structure = {
    nl : Netlist.t;
    dom : string array;
    mte_dom : (Netlist.net_id, string) Hashtbl.t;
    deps : Netlist.inst_id list array;  (* net -> transferable readers, ascending *)
    kept_by : Netlist.inst_id list array;  (* net -> holders wired to it by Z, ascending *)
    keeper : Netlist.inst_id option array;  (* the lowest holder wired by Z *)
    holder_deps : (Netlist.inst_id * Netlist.net_id) list array;
        (* keeper enable -> (keeper, held net), keeper ascending *)
  }

  (* What a live transferable instance reads: its inputs and its
     supply's enable, ascending and duplicate-free. *)
  let reads nl iid =
    let cell = Netlist.cell nl iid in
    let supply =
      match cell.Cell.style with
      | Vth.Mt_embedded -> Netlist.pin_net nl iid "MTE"
      | Vth.Mt_vgnd -> (
        match Walk.vgnd_state nl iid with
        | Walk.Gated sw -> Netlist.pin_net nl sw "MTE"
        | _ -> None)
      | Vth.Plain | Vth.Mt_no_vgnd -> None
    in
    List.sort_uniq compare
      (Option.to_list supply
      @ List.filter_map (Netlist.pin_net nl iid) (Array.to_list (Func.input_names cell.Cell.kind)))

  let build nl =
    let nn = Netlist.net_count nl and ni = Netlist.inst_count nl in
    let g =
      {
        nl;
        dom = Array.init ni (fun iid -> Option.value (Netlist.inst_domain nl iid) ~default:"");
        mte_dom = Hashtbl.create 7;
        deps = Array.make nn [];
        kept_by = Array.make nn [];
        keeper = Array.make nn None;
        holder_deps = Array.make nn [];
      }
    in
    List.iter
      (fun (d, mte) -> Option.iter (fun m -> Hashtbl.replace g.mte_dom m d) mte)
      (Netlist.domains nl);
    let kept_by = g.kept_by in
    for iid = ni - 1 downto 0 do
      if not (Netlist.is_dead nl iid) then begin
        let kind = (Netlist.cell nl iid).Cell.kind in
        if transferable kind then List.iter (fun n -> g.deps.(n) <- iid :: g.deps.(n)) (reads nl iid)
        else if kind = Func.Holder then
          Option.iter (fun z -> kept_by.(z) <- iid :: kept_by.(z)) (Netlist.pin_net nl iid "Z")
      end
    done;
    let kept = ref [] in
    Array.iteri
      (fun z hs ->
        match hs with
        | [] -> ()
        | h :: _ ->
          g.keeper.(z) <- Some h;
          Option.iter (fun m -> kept := (h, z, m) :: !kept) (Netlist.pin_net nl h "MTE"))
      kept_by;
    List.sort (fun (a, _, _) (b, _, _) -> Int.compare b a) !kept
    |> List.iter (fun (h, z, m) -> g.holder_deps.(m) <- (h, z) :: g.holder_deps.(m));
    g

  (* The live instances wired to any net, ascending. *)
  let wired g =
    let nl = g.nl in
    let seen = Array.make (Netlist.inst_count nl) false in
    Netlist.iter_nets nl (fun nid ->
        Option.iter (fun (p : Netlist.pin) -> seen.(p.Netlist.inst) <- true) (Netlist.driver nl nid);
        List.iter (fun (p : Netlist.pin) -> seen.(p.Netlist.inst) <- true) (Netlist.sinks nl nid);
        List.iter (fun h -> seen.(h) <- true) g.kept_by.(nid));
    List.filter (fun iid -> seen.(iid)) (List.init (Netlist.inst_count nl) Fun.id)

  type state = {
    g : structure;
    nl : Netlist.t;
    mode : mode;
    value : L.v option array;
    raw : L.v option array;
    seed_path : string list option array;
    path : string list option array;
    queue : Netlist.inst_id Queue.t;
    queued : bool array;
    mutable transfers : int;
    mutable widened : int;
  }

  let enqueue st iid =
    if not st.queued.(iid) then begin
      st.queued.(iid) <- true;
      Queue.push iid st.queue
    end

  (* join where [None] is bottom *)
  let bot_join old v = match old with None -> v | Some o -> L.join o v

  let rec enqueue_deps st nid =
    List.iter (enqueue st) st.g.deps.(nid);
    List.iter (fun (_, held) -> if st.raw.(held) <> None then settle st held) st.g.holder_deps.(nid)

  and holder_view st nid rv =
    match st.g.keeper.(nid) with
    | None -> Some rv
    | Some h -> (
      match Netlist.pin_net st.nl h "MTE" with
      | None -> Some rv
      | Some m -> (
        match st.value.(m) with
        | None -> None
        | Some L.One -> Some (match rv with L.Float -> L.Held | v -> v)
        | Some L.Zero -> Some rv
        | Some (L.Held | L.Float | L.Top) -> Some (if L.may_float rv then L.Top else rv)))

  and settle st nid =
    match st.raw.(nid) with
    | None -> ()
    | Some rv -> (
      match holder_view st nid rv with
      | None -> ()
      | Some eff ->
        let old = st.value.(nid) in
        let nv = bot_join old eff in
        if old <> Some nv then begin
          st.value.(nid) <- Some nv;
          enqueue_deps st nid
        end)

  let set_raw st nid v =
    let old = st.raw.(nid) in
    let nv = bot_join old v in
    if old <> Some nv then begin
      st.raw.(nid) <- Some nv;
      settle st nid
    end

  type supply =
    | Powered
    | Cut
    | Internally_held
    | Unknown_power of Netlist.net_id
    | No_enable of Netlist.inst_id  (** the VGND switch has no enable *)
    | Defer_supply

  let supply_of st iid (cell : Cell.t) =
    let gate m on =
      match st.value.(m) with
      | None -> Defer_supply
      | Some L.One -> on
      | Some L.Zero -> Powered
      | Some (L.Held | L.Float | L.Top) -> Unknown_power m
    in
    match cell.Cell.style with
    | Vth.Plain -> Powered
    | Vth.Mt_no_vgnd -> Cut
    | Vth.Mt_embedded -> (
      match Netlist.pin_net st.nl iid "MTE" with
      | None -> Powered
      | Some m -> gate m Internally_held)
    | Vth.Mt_vgnd -> (
      match Walk.vgnd_state st.nl iid with
      | Walk.Ungated -> Powered
      | Walk.Floating_vgnd | Walk.Dead_switch _ -> Cut
      | Walk.Gated sw -> (
        match Netlist.pin_net st.nl sw "MTE" with
        | None -> No_enable sw
        | Some m -> gate m Cut))

  let transfer st iid =
    let cell = Netlist.cell st.nl iid in
    match Netlist.output_net st.nl iid with
    | None -> ()
    | Some out -> (
      st.transfers <- st.transfers + 1;
      match supply_of st iid cell with
      | Defer_supply -> ()
      | Cut -> set_raw st out L.Float
      | Internally_held -> set_raw st out L.Held
      | Unknown_power _ | No_enable _ -> set_raw st out L.Top
      | Powered ->
        let names = Func.input_names cell.Cell.kind in
        let ins = Array.make (Array.length names) L.Top in
        let ready = ref true in
        Array.iteri
          (fun i pin ->
            match Netlist.pin_net st.nl iid pin with
            | None -> ins.(i) <- L.Float
            | Some nid -> (
              match st.value.(nid) with None -> ready := false | Some v -> ins.(i) <- v))
          names;
        if !ready then set_raw st out (L.eval cell.Cell.kind ins))

  let seed st =
    let nl = st.nl in
    let legacy = st.mode.m_name = "" in
    let mte_net = if legacy then Netlist.find_net nl "MTE" else None in
    Netlist.iter_nets nl (fun nid ->
        if Netlist.is_pi nl nid then begin
          let v, note =
            if legacy && mte_net = Some nid then (L.One, " (MTE=1 in standby)")
            else
              match Hashtbl.find_opt st.g.mte_dom nid with
              | Some d ->
                ( (if List.mem d st.mode.m_asleep then L.One else L.Zero),
                  Printf.sprintf " (domain %s enable)" d )
              | None ->
                if Netlist.is_clock_net nl nid then (L.Zero, " (clock parked low)")
                else (L.Held, " (primary input, frozen)")
          in
          st.seed_path.(nid) <- Some [ net_token nl nid ^ note ];
          set_raw st nid v
        end
        else if Netlist.driver nl nid = None then begin
          st.seed_path.(nid) <- Some [ net_token nl nid ^ " (no driver)" ];
          set_raw st nid L.Float
        end);
    let flops = ref [] in
    Netlist.iter_nets nl (fun q ->
        match Netlist.driver nl q with
        | Some p when (Netlist.cell nl p.Netlist.inst).Cell.kind = Func.Dff ->
          flops := (p.Netlist.inst, q) :: !flops
        | Some _ | None -> ());
    List.iter
      (fun (iid, q) ->
        st.seed_path.(q) <- Some [ inst_token nl iid ^ " (flip-flop state)"; net_token nl q ];
        set_raw st q L.Held)
      (List.sort compare !flops)

  let fixpoint st =
    let drained = ref false in
    while not !drained do
      while not (Queue.is_empty st.queue) do
        let iid = Queue.pop st.queue in
        st.queued.(iid) <- false;
        transfer st iid
      done;
      let bottom = ref [] in
      Netlist.iter_nets st.nl (fun nid -> if st.value.(nid) = None then bottom := nid :: !bottom);
      match List.rev !bottom with
      | [] -> drained := true
      | nids ->
        st.widened <- st.widened + List.length nids;
        List.iter
          (fun nid ->
            st.value.(nid) <- Some L.Top;
            enqueue_deps st nid)
          nids
    done

  let witness st nid =
    let nl = st.nl in
    let on_chain = Hashtbl.create 8 in
    let rec build nid =
      match st.path.(nid) with
      | Some p -> (p, false)
      | None when Hashtbl.mem on_chain nid -> ([ net_token nl nid ^ " (cyclic)" ], true)
      | None ->
        Hashtbl.add on_chain nid ();
        let ((p, looped) as r) = explain nid in
        Hashtbl.remove on_chain nid;
        if not looped then st.path.(nid) <- Some p;
        r
    and via src steps =
      let p, looped = build src in
      (extend_path p steps, looped)
    and explain nid =
      match st.seed_path.(nid) with
      | Some sp -> (sp, false)
      | None -> (
        match Netlist.driver nl nid with
        | None -> ([ net_token nl nid ], false)
        | Some dp ->
          let iid = dp.Netlist.inst in
          let cell = Netlist.cell nl iid in
          if not (transferable cell.Cell.kind) then ([ inst_token nl iid; net_token nl nid ], false)
          else
            let steps note = [ inst_token nl iid ^ note; net_token nl nid ] in
            match supply_of st iid cell with
            | Cut -> (steps " (VGND cut in standby)", false)
            | Internally_held -> (steps " (embedded holder)", false)
            | Unknown_power m -> via m (steps " (enable undetermined)")
            | No_enable sw ->
              (extend_path [ inst_token nl sw ^ " (no enable)" ] (steps " (enable undetermined)"), false)
            | Defer_supply -> ([ net_token nl nid ^ " (widened: cyclic)" ], false)
            | Powered -> (
              match st.raw.(nid) with
              | None -> ([ net_token nl nid ^ " (widened: cyclic)" ], false)
              | Some v -> (
                (* the first possibly-floating input when contaminated,
                   else the first input *)
                let inputs =
                  List.filter_map
                    (fun pin ->
                      Option.map
                        (fun src -> (src, Option.value st.value.(src) ~default:L.Top))
                        (Netlist.pin_net nl iid pin))
                    (Array.to_list (Func.input_names cell.Cell.kind))
                in
                let floating = List.filter (fun (_, v) -> L.may_float v) inputs in
                match if L.may_float v && floating <> [] then floating else inputs with
                | (src, _) :: _ -> via src (steps "")
                | [] -> (extend_path [] (steps ""), false))))
    in
    fst (build nid)

  let level st nid = Option.value st.value.(nid) ~default:L.Top
  let is_legacy st = st.mode.m_name = ""
  let asleep st d = d <> "" && List.mem d st.mode.m_asleep
  let dom_of st iid = st.g.dom.(iid)

  let powered_reader st (p : Netlist.pin) =
    let c = Netlist.cell st.nl p.Netlist.inst in
    (not (Func.is_infrastructure c.Cell.kind))
    && ((not (Cell.is_mt c)) || ((not (is_legacy st)) && not (asleep st (dom_of st p.Netlist.inst))))

  let crossing_source st nid =
    if is_legacy st then None
    else
      match Netlist.driver st.nl nid with
      | Some p when Cell.is_mt (Netlist.cell st.nl p.Netlist.inst) ->
        let d = dom_of st p.Netlist.inst in
        if asleep st d then Some d else None
      | _ -> None

  let enable_domain st e =
    match Hashtbl.find_opt st.g.mte_dom e with
    | Some d -> d
    | None -> (
      match Netlist.driver st.nl e with Some p -> dom_of st p.Netlist.inst | None -> "")

  let iso_bad st nid =
    match (st.g.keeper.(nid), crossing_source st nid) with
    | Some h, Some d -> (
      match Netlist.pin_net st.nl h "MTE" with
      | Some e ->
        let ed = enable_domain st e in
        if ed <> d then Some (h, e, ed, d) else None
      | None -> None)
    | _ -> None

  let kept_net st h =
    match Netlist.pin_net st.nl h "Z" with
    | Some z when st.g.keeper.(z) = Some h -> Some z
    | Some _ | None -> None

  let finding st rule loc ?(witness = []) fmt =
    Printf.ksprintf
      (fun message -> { Rules.rule; loc; mode = st.mode.m_name; message; witness })
      fmt

  let plural = function 1 -> "" | _ -> "s"

  let eval_net st ~deepest nid =
    let nl = st.nl in
    let out = ref [] in
    let emit f = out := f :: !out in
    let name = Netlist.net_name nl nid in
    let loc = "net:" ^ name in
    let readers = List.filter (powered_reader st) (Netlist.sinks nl nid) in
    let first (rs : Netlist.pin list) =
      let r = List.hd rs in
      (Netlist.inst_name nl r.Netlist.inst, r.Netlist.pin_name, dom_of st r.Netlist.inst)
    in
    let cross = crossing_source st nid in
    let iso = iso_bad st nid in
    let kept = st.g.keeper.(nid) <> None in
    let float_sinks rs =
      let i, p, _ = first rs in
      emit
        (finding st Rules.float_into_awake loc ~witness:(witness st nid)
           "net floats in standby; %d always-on sink%s (first: %s.%s)" (List.length rs)
           (plural (List.length rs)) i p)
    in
    let float_po () =
      if Netlist.is_po nl nid then
        emit
          (finding st Rules.float_into_awake loc ~witness:(witness st nid)
             "net floats in standby and is a primary output")
    in
    (match level st nid with
    | L.Float -> (
      match cross with
      | None -> if Netlist.is_po nl nid then float_po () else if readers <> [] then float_sinks readers
      | Some d -> (
        float_po ();
        let local, foreign =
          List.partition (fun (p : Netlist.pin) -> dom_of st p.Netlist.inst = d) readers
        in
        if local <> [] then float_sinks local;
        if foreign <> [] && iso = None then
          let i, p, rd = first foreign in
          let rdom = if rd = "" then "always-on logic" else "domain " ^ rd in
          let n = List.length foreign in
          if kept then
            emit
              (finding st Rules.cross_domain_float loc ~witness:(witness st nid)
                 "net from sleeping domain %s floats into awake logic: %d powered sink%s \
                  outside the domain (first: %s.%s in %s); the wired holder does not engage"
                 d n (plural n) i p rdom)
          else
            emit
              (finding st Rules.missing_isolation loc ~witness:(witness st nid)
                 "net leaves sleeping domain %s with no isolation holder; %d powered sink%s \
                  in other domains (first: %s.%s in %s)"
                 d n (plural n) i p rdom)))
    | L.Top -> (
      if Netlist.is_po nl nid then
        emit
          (finding st Rules.crowbar_risk loc ~witness:(witness st nid)
             "primary output may float in standby (value top)");
      match cross with
      | Some d
        when iso = None && kept
             && match st.raw.(nid) with Some rv -> L.may_float rv | None -> true ->
        let foreign = List.filter (fun (p : Netlist.pin) -> dom_of st p.Netlist.inst <> d) readers in
        if foreign <> [] then
          let i, p, _ = first foreign in
          let n = List.length foreign in
          emit
            (finding st Rules.cross_domain_float loc ~witness:(witness st nid)
               "net from sleeping domain %s may float into awake logic (holder enable is not \
                a constant); %d powered sink%s outside the domain (first: %s.%s)"
               d n (plural n) i p)
      | _ -> ())
    | L.Zero | L.One | L.Held -> ());
    Option.iter
      (fun (h, e, ed, d) ->
        let edn = if ed = "" then "the always-on domain" else "domain " ^ ed in
        emit
          (finding st Rules.isolation_enable_off_domain ("inst:" ^ Netlist.inst_name nl h)
             ~witness:(witness st e)
             "isolation holder on net %s guards sleeping domain %s but its enable (net %s) \
              belongs to %s"
             name d (Netlist.net_name nl e) edn))
      iso;
    (if deepest then
       match st.g.keeper.(nid) with
       | None -> ()
       | Some h -> (
         let hname = Netlist.inst_name nl h in
         let boundary =
           match cross with
           | None -> false
           | Some d ->
             List.exists
               (fun (p : Netlist.pin) ->
                 (not (Func.is_infrastructure (Netlist.cell nl p.Netlist.inst).Cell.kind))
                 && dom_of st p.Netlist.inst <> d)
               (Netlist.sinks nl nid)
         in
         match st.raw.(nid) with
         | Some ((L.Zero | L.One | L.Held) as r) ->
           emit
             (finding st Rules.useless_holder loc
                "holder %s keeps a net that never floats (driver value %s in standby)" hname
                (L.to_string r))
         | Some L.Float when (not (Netlist.is_po nl nid)) && readers = [] && not boundary ->
           emit
             (finding st Rules.useless_holder loc
                "holder %s keeps a net only floating MT logic reads" hname)
         | Some (L.Float | L.Top) | None -> ()));
    List.rev !out

  let eval_inst st iid =
    let nl = st.nl in
    let out = ref [] in
    let emit f = out := f :: !out in
    let legacy = is_legacy st in
    let cell = Netlist.cell nl iid in
    let loc = "inst:" ^ Netlist.inst_name nl iid in
    let mte_pin_check () =
      match Netlist.pin_net nl iid "MTE" with
      | None -> ()
      | Some m -> (
        let role =
          match cell.Cell.kind with
          | Func.Sleep_switch -> "sleep switch"
          | Func.Holder -> "holder"
          | _ -> "embedded MT-cell"
        in
        let gov =
          if legacy then ""
          else
            match cell.Cell.kind with
            | Func.Holder -> (
              match Option.bind (kept_net st iid) (Netlist.driver nl) with
              | Some p when Cell.is_mt (Netlist.cell nl p.Netlist.inst) -> dom_of st p.Netlist.inst
              | _ -> "")
            | _ -> dom_of st iid
        in
        let mnet = Netlist.net_name nl m in
        if legacy || gov = "" || asleep st gov then
          match level st m with
          | L.One -> ()
          | L.Zero ->
            emit
              (finding st Rules.mte_polarity loc ~witness:(witness st m)
                 "%s enable is 0 in standby (net %s): it never sleeps%s" role mnet
                 (if cell.Cell.kind = Func.Holder then "; the net it keeps is unguarded" else ""))
          | (L.Held | L.Float | L.Top) as v ->
            emit
              (finding st Rules.mte_undetermined loc ~witness:(witness st m)
                 "%s enable is %s in standby (net %s), not a constant" role (L.to_string v) mnet)
        else if cell.Cell.kind <> Func.Holder then
          match level st m with
          | L.Zero -> ()
          | L.One ->
            emit
              (finding st Rules.mte_polarity loc ~witness:(witness st m)
                 "%s enable is 1 while domain %s is awake (net %s): the domain sleeps when it \
                  should run"
                 role gov mnet)
          | (L.Held | L.Float | L.Top) as v ->
            emit
              (finding st Rules.mte_undetermined loc ~witness:(witness st m)
                 "%s enable is %s while domain %s is awake (net %s), not a constant" role
                 (L.to_string v) gov mnet))
    in
    (match cell.Cell.kind with
    | Func.Sleep_switch -> mte_pin_check ()
    | Func.Holder -> (
      match kept_net st iid with
      | Some z when iso_bad st z <> None -> ()
      | Some _ | None -> mte_pin_check ())
    | Func.Dff -> (
      match Netlist.pin_net nl iid "D" with
      | Some d when Library.is_retention cell && L.may_float (level st d) ->
        emit
          (finding st Rules.retention_input_float loc ~witness:(witness st d)
             "retention flip-flop data input is %s in standby (net %s)"
             (L.to_string (level st d)) (Netlist.net_name nl d))
      | Some _ | None -> ())
    | _ -> if Vth.style_equal cell.Cell.style Vth.Mt_embedded then mte_pin_check ());
    let connected =
      List.filter_map
        (fun pin -> Option.map (fun nid -> (pin, nid)) (Netlist.pin_net nl iid pin))
        (Array.to_list (Func.input_names cell.Cell.kind))
    in
    (if Vth.style_equal cell.Cell.style Vth.Plain && transferable cell.Cell.kind then
       match List.find_opt (fun (_, nid) -> level st nid = L.Top) connected with
       | Some (pin, nid) ->
         emit
           (finding st Rules.crowbar_risk loc ~witness:(witness st nid)
              "powered gate input %s may be at an intermediate level in standby (net %s)" pin
              (Netlist.net_name nl nid))
       | None -> ());
    (if (not legacy) && Cell.is_mt cell && transferable cell.Cell.kind then
       let d = dom_of st iid in
       match Netlist.output_net nl iid with
       | Some out when asleep st d -> (
         let powered_src (p : Netlist.pin) =
           let c = Netlist.cell nl p.Netlist.inst in
           (not (Func.is_infrastructure c.Cell.kind))
           && ((not (Cell.is_mt c)) || not (asleep st (dom_of st p.Netlist.inst)))
         in
         let live_in =
           List.find_opt
             (fun (_, src) ->
               match Netlist.driver nl src with
               | Some p -> dom_of st p.Netlist.inst <> d && powered_src p
               | None -> false)
             connected
         in
         match live_in with
         | Some (pin, src)
           when Netlist.is_po nl out
                || List.exists
                     (fun (p : Netlist.pin) -> powered_reader st p && dom_of st p.Netlist.inst <> d)
                     (Netlist.sinks nl out) ->
           emit
             (finding st Rules.always_on_path loc
                ~witness:
                  [
                    net_token nl src;
                    inst_token nl iid ^ " (through sleeping domain " ^ d ^ ")";
                    net_token nl out;
                  ]
                "path through sleeping domain %s: input %s is driven from awake logic and \
                 output %s is read outside the domain"
                d pin (Netlist.net_name nl out))
         | Some _ | None -> ())
       | Some _ | None -> ());
    List.rev !out

  (* One mode: seed, propagate, widen, then the net rules in net-id order
     and the instance rules in instance-id order. *)
  let run (g : structure) insts mode ~deepest =
    let nl = g.nl in
    let nn = Netlist.net_count nl and ni = Netlist.inst_count nl in
    let st =
      {
        g;
        nl;
        mode;
        value = Array.make nn None;
        raw = Array.make nn None;
        seed_path = Array.make nn None;
        path = Array.make nn None;
        queue = Queue.create ();
        queued = Array.make ni false;
        transfers = 0;
        widened = 0;
      }
    in
    seed st;
    Netlist.iter_nets nl (fun nid ->
        match Netlist.driver nl nid with
        | Some p when transferable (Netlist.cell nl p.Netlist.inst).Cell.kind ->
          enqueue st p.Netlist.inst
        | Some _ | None -> ());
    fixpoint st;
    let net_findings = List.concat (List.init nn (eval_net st ~deepest)) in
    (st, net_findings @ List.concat_map (eval_inst st) insts)

  let analyze nl =
    let g = build nl in
    let insts = wired g in
    let modes = modes_of nl in
    let last = List.length modes - 1 in
    let runs = List.mapi (fun i mode -> run g insts mode ~deepest:(i = last)) modes in
    let seen = Hashtbl.create 97 in
    let findings =
      List.concat_map
        (fun (_, fs) ->
          List.filter
            (fun f ->
              let key = Rules.key f in
              (not (Hashtbl.mem seen key)) && (Hashtbl.add seen key (); true))
            fs)
        runs
    in
    let deep, _ = List.nth runs last in
    let sum f = List.fold_left (fun a (st, _) -> a + f st) 0 runs in
    {
      Verify.findings;
      values = List.init (Netlist.net_count nl) (fun nid -> (Netlist.net_name nl nid, level deep nid));
      transfers = sum (fun st -> st.transfers);
      widened = sum (fun st -> st.widened);
      modes = List.map (fun m -> m.m_name) modes;
    }
end

(* Everything a verifier result holds, with findings rendered. *)
let verify_view (r : Verify.result) =
  ( List.map Rules.to_string r.Verify.findings,
    r.Verify.values,
    r.Verify.transfers,
    r.Verify.widened,
    r.Verify.modes )

let matches_reference what nl =
  let fs, vs, t, w, ms = verify_view (Verify.analyze nl)
  and fs', vs', t', w', ms' = verify_view (Reference_verify.analyze nl) in
  let differs =
    List.filter_map
      (fun (field, same) -> if same then None else Some field)
      [
        ("findings", fs = fs');
        ("values", vs = vs');
        ("transfers", t = t');
        ("widened", w = w');
        ("modes", ms = ms');
      ]
  in
  if differs <> [] then
    QCheck2.Test.fail_reportf "%s: compiled verifier differs from the list-based one in %s" what
      (String.concat ", " differs);
  true

let technique_of = function 0 -> Flow.Dual_vth | 1 -> Flow.Conventional_smt | _ -> Flow.Improved_smt

(* A random improved-MT netlist, the same with an injected fault, or a
   2-4-domain SoC with or without one of its domain faults. *)
let prop_verify_matches_reference =
  QCheck2.Test.make ~name:"compiled verify = list-based analysis" ~count:40 ~print:string_of_int
    seed_gen
    (fun seed ->
      let fault = List.nth Fault.all (seed mod List.length Fault.all) in
      match seed mod 3 with
      | 0 -> (
        match random_mt_netlist seed with
        | None -> true
        | Some (nl, _) -> matches_reference "random MT netlist" nl)
      | 1 -> (
        let fixture =
          if Fault.requires_domains fault then
            Some (Suite.multi_domain ~domains:(2 + (seed mod 3)) ~name:"ref" lib)
          else Option.map fst (random_mt_netlist seed)
        in
        match fixture with
        | None -> true
        | Some nl ->
          ignore (Fault.inject ~seed nl fault);
          matches_reference (Fault.name fault) nl)
      | _ ->
        let nl = Suite.multi_domain ~domains:(2 + (seed mod 3)) ~name:"ref" lib in
        if seed mod 2 = 0 then ignore (Fault.inject ~seed nl fault);
        matches_reference "SoC" nl)

(* Flow products of every technique on suite circuits, lint-clean or not. *)
let prop_verify_matches_reference_on_products =
  let circuits = List.length Suite.all in
  QCheck2.Test.make ~name:"compiled verify = list-based analysis on flow products" ~count:6
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 0 ((3 * circuits) - 1)))
    (fun (seed, which) ->
      let name, gen = List.nth Suite.all (which mod circuits) in
      let nl = gen lib in
      if not (Suite.is_multi_domain name) then begin
        let options = { Flow.default_options with Flow.seed; Flow.activity_cycles = 32 } in
        ignore (Flow.run ~options (technique_of (which / circuits)) nl)
      end;
      matches_reference name nl)

(* Every fault class injected into circuit_a's improved product (the
   domain classes into a 3-domain SoC), the product with a switch whose
   enable is unconnected, and the product with a combinational loop
   behind its MT logic. *)
let test_verify_reference_faults () =
  let product () = Smt_netlist.Parser.of_string ~lib (Lazy.force improved_product) in
  List.iter
    (fun fault ->
      let nl =
        if Fault.requires_domains fault then Suite.multi_domain ~domains:3 ~name:"ref" lib
        else product ()
      in
      ignore (Fault.inject ~seed:1 nl fault);
      ignore (matches_reference (Fault.name fault) nl))
    Fault.all;
  let nl = product () in
  Netlist.disconnect nl (List.hd (Netlist.switches nl)) "MTE";
  ignore (matches_reference "switch without enable" nl);
  let nl = product () in
  ignore (with_loop (Rng.create 3) nl);
  ignore (matches_reference "with_loop" nl)

(* --- the verifier vs the concrete simulator --- *)

(* A concrete standby state is one the abstract one covers: with MTE at 1,
   clocks parked at 0, random primary inputs and random flip-flop states,
   every driven net the verifier calls 0 or 1 simulates to F or T, and
   every net that simulates to X is one the verifier calls float or top
   (so a held net never reads X). *)
let prop_verify_covers_simulation =
  QCheck2.Test.make ~name:"verify covers standby simulation" ~count:6
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 0 47))
    (fun (seed, which) ->
      let single = List.filter (fun (name, _) -> not (Suite.is_multi_domain name)) Suite.all in
      let name, gen = List.nth single (which mod List.length single) in
      let technique = technique_of (which mod 3) in
      let nl = gen lib in
      let options = { Flow.default_options with Flow.seed; Flow.activity_cycles = 32 } in
      ignore (Flow.run ~options technique nl);
      let levels = Array.of_list (List.map snd (Verify.analyze nl).Verify.values) in
      let sim = Simulator.create nl in
      let rng = Rng.create seed in
      let bit () = if Rng.int rng 2 = 0 then Logic.F else Logic.T in
      for vector = 1 to 10 do
        List.iter
          (fun (port, nid) ->
            Simulator.set_input sim nid
              (if String.equal port "MTE" then Logic.T
               else if Netlist.is_clock_net nl nid then Logic.F
               else bit ()))
          (Netlist.inputs nl);
        Netlist.iter_insts nl (fun iid ->
            if (Netlist.cell nl iid).Smt_cell.Cell.kind = Smt_cell.Func.Dff then
              Simulator.set_ff_state sim iid (bit ()));
        Simulator.propagate ~mode:Simulator.Standby sim;
        Netlist.iter_nets nl (fun nid ->
            if Netlist.driver nl nid <> None then begin
              let v = Simulator.value sim nid and a = levels.(nid) in
              let covered =
                match (a, v) with
                | Smt_verify.Lattice.Zero, Logic.F | Smt_verify.Lattice.One, Logic.T -> true
                | (Smt_verify.Lattice.Zero | Smt_verify.Lattice.One), _ -> false
                | Smt_verify.Lattice.Held, v -> v <> Logic.X
                | (Smt_verify.Lattice.Float | Smt_verify.Lattice.Top), _ -> true
              in
              if not covered then
                QCheck2.Test.fail_reportf "%s/%s, vector %d: net %s is %s to the verifier but %s"
                  name (Flow.technique_name technique) vector (Netlist.net_name nl nid)
                  (Smt_verify.Lattice.to_string a) (String.make 1 (Logic.to_char v))
            end)
      done;
      true)

let prop_incremental_matches_full =
  (* The incremental soundness claim: after any chain of edits,
     [Verify.update] over the journal's dirty set reports byte-identical
     findings and the same value map as a from-scratch analysis.  Each
     case runs three arms: a 2-4-domain SoC under [eco_delta]; circuit_a's
     improved product under [eco_delta] and [flow_delta]; and that product
     with a combinational loop behind its MT logic under the same edits. *)
  QCheck2.Test.make ~name:"incremental verify matches from-scratch over ECO deltas"
    ~count:25
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 2 4))
    (fun (seed, domains) ->
      let rng = Rng.create (0x1ec0 + seed) in
      let render (r : Verify.result) = List.map Rules.to_string r.Verify.findings in
      let arm name nl edits_to_run =
        let session, _ = Verify.start nl in
        let edits = ref [] in
        List.iter (fun edit ->
          edits := edit () :: !edits;
          let ru = Verify.update session in
          let rf = Verify.analyze nl in
          if render ru <> render rf || ru.Verify.values <> rf.Verify.values then
            QCheck2.Test.fail_reportf "%s arm, seed %d: update differs from analyze after %s"
              name seed
              (String.concat ", " (List.rev !edits)))
          edits_to_run
      in
      let random ~steps edit nl = List.init steps (fun _ () -> edit rng nl) in
      let product () = Smt_netlist.Parser.of_string ~lib (Lazy.force improved_product) in
      let mixed rng nl = if Rng.int rng 2 = 0 then eco_delta rng nl else flow_delta rng nl in
      let soc = Suite.multi_domain ~domains ~name:"inc" lib in
      arm "soc" soc (random ~steps:4 eco_delta soc);
      let nl = product () in
      arm "product" nl (random ~steps:6 mixed nl);
      let nl = product () in
      arm "flow" nl (flow_scenario rng nl @ random ~steps:2 flow_delta nl);
      (* keep the loop's source, then let the keeper's enable flip: the
         loop is re-entered from a value change only its edges carry *)
      let nl = product () in
      let src = with_loop rng nl in
      let enable = ref None in
      let keep_source () =
        let enables =
          List.filter_map
            (fun i -> Netlist.pin_net nl i "MTE")
            (List.filter
               (fun i -> (Netlist.cell nl i).Smt_cell.Cell.kind = Smt_cell.Func.Sleep_switch)
               (Netlist.live_insts nl))
        in
        let e = List.nth enables (Rng.int rng (List.length enables)) in
        List.iter (Netlist.remove_inst nl) (keepers nl src);
        ignore
          (Netlist.add_inst nl ~name:"loop_keeper" (Library.holder lib) [ ("MTE", e); ("Z", src) ]);
        enable := Some e;
        "holder on the loop's source"
      in
      let flip () =
        if invert_driver nl (Option.get !enable) then "enable inversion" else eco_delta rng nl
      in
      arm "loop" nl ([ keep_source; flip; flip ] @ random ~steps:4 mixed nl);
      true)

(* --- switch pricing vs the list-based pricing it replaced --- *)

(* Switch pricing as it was before the current table: every call
   re-derives each member's load, toggle and currents, and the build
   reads each point from the placement on every check.  [feasible] names
   the constraint that refused a candidate, so a test can show that its
   limits make every refusal happen.  It prices members in the order
   given, and the build gives them oldest first. *)
module Reference_switch = struct
  module Cell = Smt_cell.Cell
  module Vth = Smt_cell.Vth
  module Tech = Smt_cell.Tech
  module Bounce = Smt_power.Bounce
  module Em = Smt_power.Em
  module Activity = Smt_sim.Activity
  module Cluster = Smt_core.Cluster

  let toggle_of activity iid =
    match activity with Some a -> Float.max 0.05 (Activity.factor a iid) | None -> 0.5

  let scale_of load_of iid =
    match load_of with Some f -> Bounce.load_scale (f iid) | None -> 1.0

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
      let rest = List.fold_left (fun acc iid -> acc +. expected iid) 0.0 members in
      (match worst_iid with Some w -> peak w +. rest -. expected w | None -> 0.0)

  let sustained_current ?activity ?load_of nl ~members =
    List.fold_left
      (fun acc iid ->
        let c = Netlist.cell nl iid in
        acc +. (c.Cell.avg_current *. toggle_of activity iid *. scale_of load_of iid))
      0.0 members

  let sim_current ?activity ?load_of (p : Cluster.params) nl members =
    if p.Cluster.diversity then simultaneous_current ?activity ?load_of nl ~members
    else
      List.fold_left (fun acc iid -> acc +. (Netlist.cell nl iid).Cell.peak_current) 0.0 members

  type refusal = Cell_cap | Em_current | Vgnd_length | No_width

  let cluster_length ?switch_at place members =
    let pts = List.filter_map (fun iid -> Placement.inst_point_opt place iid) members in
    let pts = match switch_at with Some at -> at :: pts | None -> pts in
    Geom.spanning_length pts

  let feasible ?activity ?load_of place (p : Cluster.params) members =
    let nl = Placement.netlist place in
    let tech = Library.tech (Netlist.lib nl) in
    let n = List.length members in
    if n > p.Cluster.cell_limit then Error Cell_cap
    else begin
      let sustained = sustained_current ?activity ?load_of nl ~members in
      if
        not
          (Em.cluster_ok { tech with Tech.em_cell_limit = p.Cluster.cell_limit } ~cells:n
             ~sustained_ua:sustained)
      then Error Em_current
      else begin
        let centroid = Placement.centroid place members in
        let length = cluster_length ~switch_at:centroid place members in
        if length > p.Cluster.length_limit then Error Vgnd_length
        else
          let current = sim_current ?activity ?load_of p nl members in
          if Cluster.required_width tech p ~current_ua:current ~wire_length:length <> None
          then Ok ()
          else Error No_width
      end
    end

  let sweep_order place members =
    let nl = Placement.netlist place in
    let row_h = (Library.tech (Netlist.lib nl)).Tech.row_height in
    let key iid =
      match Placement.inst_point_opt place iid with
      | Some p ->
        let row = int_of_float (p.Geom.y /. row_h) in
        let x = if row mod 2 = 0 then p.Geom.x else -.p.Geom.x in
        (row, x)
      | None -> (max_int, 0.0)
    in
    List.sort (fun a b -> compare (key a) (key b)) members

  (* [Cluster.build], and the refusals its packing met, each with its
     candidate (oldest member first). *)
  let build ?activity ?load_of (p : Cluster.params) place ~mte_net =
    let nl = Placement.netlist place in
    let lib = Netlist.lib nl in
    let tech = Library.tech lib in
    List.iter
      (fun (sw, members) ->
        List.iter (fun m -> Netlist.set_vgnd_switch nl m None) members;
        Netlist.remove_inst nl sw)
      (Netlist.switch_groups nl);
    let cells =
      List.filter
        (fun iid -> (Netlist.cell nl iid).Cell.style = Vth.Mt_vgnd)
        (Netlist.live_insts nl)
    in
    let refusals = ref [] in
    let fits members =
      match feasible ?activity ?load_of place p members with
      | Ok () -> true
      | Error r ->
        refusals := (r, members) :: !refusals;
        false
    in
    let alone iid =
      invalid_arg
        (Printf.sprintf "Cluster.build: cell %s cannot satisfy constraints alone"
           (Netlist.inst_name nl iid))
    in
    (* A group closes when its next candidate fails. *)
    let groups = ref [] and current = ref [] in
    let close () =
      groups := !current :: !groups;
      current := []
    in
    let rec pack = function
      | [] -> if !current <> [] then close ()
      | iid :: rest as pending ->
        if fits (!current @ [ iid ]) then begin
          current := !current @ [ iid ];
          pack rest
        end
        else if !current = [] then alone iid
        else begin
          close ();
          pack pending
        end
    in
    pack (sweep_order place cells);
    let clusters =
      List.map
        (fun members ->
          let centroid = Placement.centroid place members in
          let length = cluster_length ~switch_at:centroid place members in
          let current = sim_current ?activity ?load_of p nl members in
          let sustained = sustained_current ?activity ?load_of nl ~members in
          let width =
            Option.get (Cluster.required_width tech p ~current_ua:current ~wire_length:length)
          in
          let sw_cell = Library.switch lib ~width in
          let sw =
            Netlist.add_inst nl ~name:(Netlist.fresh_inst_name nl "sw") sw_cell
              [ ("MTE", mte_net) ]
          in
          Placement.place_inst place sw centroid;
          List.iter (fun m -> Netlist.set_vgnd_switch nl m (Some sw)) members;
          {
            Cluster.switch = sw;
            members;
            width = sw_cell.Cell.switch_width;
            wire_length = length;
            sim_current_ua = current;
            sustained_ua = sustained;
            bounce =
              Bounce.bounce_v tech ~switch_width:sw_cell.Cell.switch_width ~wire_length:length
                ~current_ua:current;
          })
        (List.rev !groups)
    in
    (clusters, !refusals)

  let analyze ?activity ?load_of ?limit nl ~wire_length_of =
    let tech = Library.tech (Netlist.lib nl) in
    let limit = match limit with Some l -> l | None -> tech.Tech.bounce_limit in
    List.map
      (fun (sw, members) ->
        let current = simultaneous_current ?activity ?load_of nl ~members in
        let width = (Netlist.cell nl sw).Cell.switch_width in
        let wire_length = wire_length_of sw in
        let b = Bounce.bounce_v tech ~switch_width:width ~wire_length ~current_ua:current in
        {
          Bounce.switch = sw;
          members = List.length members;
          current_ua = current;
          wire_length;
          bounce = b;
          ok = b <= limit;
        })
      (Netlist.switch_groups nl)
end

(* The suite circuits with the most MT-cells: at least 150 each. *)
let pricing_circuits = [| "circuit_a"; "circuit_b"; "soc"; "mult8"; "pipe4x16"; "ks16" |]

(* A random circuit's improved product, an activity profile or none, and
   no, estimated or extracted loads. *)
let pricing_fixture ?circuit seed =
  let rng = Rng.create seed in
  let circuit = match circuit with Some c -> c | None -> Rng.pick rng pricing_circuits in
  let nl = (List.assoc circuit Suite.all) lib in
  let _, art = Flow.run_with_artifacts Flow.Improved_smt nl in
  let place = art.Flow.art_place in
  let activity =
    if Rng.bool rng then Some (Smt_sim.Activity.estimate ~cycles:64 ~seed nl) else None
  in
  let loads parasitics =
    Sta.load_of_inst
      (Sta.config ~wire:(Parasitics.wire_model parasitics nl) ~clock_period:1e3 ())
      nl
  in
  let load_of =
    match Rng.int rng 3 with
    | 0 -> None
    | 1 -> Some (loads (Parasitics.estimate ~seed place))
    | _ -> Some (loads (Parasitics.extract place))
  in
  (rng, nl, place, activity, load_of)

let vgnd_cells nl =
  Array.of_list
    (List.filter
       (fun iid ->
         Smt_cell.Vth.style_equal (Netlist.cell nl iid).Smt_cell.Cell.style Smt_cell.Vth.Mt_vgnd)
       (Netlist.live_insts nl))

(* Edits a netlist may see between two pricing calls: a member swapped to
   another drive strength (its currents and its fanin's loads move), a
   hold buffer spliced in front of one of a member's sinks (its load
   moves), or a member's output pin disconnected, as the fault injector
   does (it drives no net). *)
let pricing_edit rng nl cells =
  let m = Rng.pick rng cells in
  let c = Netlist.cell nl m in
  let drives = List.filter (fun d -> d <> c.Smt_cell.Cell.drive) Library.drives in
  match Rng.int rng 3, Netlist.output_net nl m with
  | 0, _ when drives <> [] -> (
    match Library.resize lib c (List.nth drives (Rng.int rng (List.length drives))) with
    | cell -> Netlist.replace_cell nl m cell
    | exception Not_found -> ())
  | 1, Some out -> (
    match Netlist.sinks nl out with [] -> () | pin :: _ -> splice_buffer nl pin)
  | _, Some _ -> Netlist.disconnect nl m (Smt_cell.Func.output_names c.Smt_cell.Cell.kind).(0)
  | _, None -> ()

(* A table prices random member lists as the reference does, on the
   product and after each of three edits, each round on a table of its
   own, as every pricing entry point makes one per call. *)
let prop_pricing_matches_reference =
  QCheck2.Test.make ~name:"current table = list-based pricing" ~count:10 ~print:string_of_int
    seed_gen (fun seed ->
      let rng, nl, place, activity, load_of = pricing_fixture seed in
      let module R = Reference_switch in
      let cells = vgnd_cells nl in
      let p = Smt_core.Cluster.default_params (Library.tech lib) in
      let agree table members =
        Smt_power.Bounce.simultaneous table members
        = R.simultaneous_current ?activity ?load_of nl ~members
        && Smt_power.Bounce.sustained table members
           = R.sustained_current ?activity ?load_of nl ~members
        && List.for_all
             (fun diversity ->
               Smt_power.Bounce.sizing_current table ~diversity members
               = R.sim_current ?activity ?load_of { p with Smt_core.Cluster.diversity } nl members)
             [ true; false ]
      in
      let random_members () =
        Array.to_list (Rng.sample rng (Rng.int rng (min 30 (Array.length cells) + 1)) cells)
      in
      let lengths = Smt_core.Cluster.vgnd_lengths place in
      List.for_all
        (fun round ->
          if round > 0 then pricing_edit rng nl cells;
          let table = Smt_power.Bounce.currents ?activity ?load_of nl in
          Smt_power.Bounce.analyze ?activity ?load_of nl ~wire_length_of:lengths
          = R.analyze ?activity ?load_of nl ~wire_length_of:lengths
          && List.for_all (fun _ -> agree table (random_members ())) (List.init 20 Fun.id))
        (List.init 4 Fun.id))

(* Limit sets, each but the defaults tight enough that its refusal
   happens: a cell cap of 3, a VGND cap of 30 um and a 0.2 mV bounce
   limit on every pool circuit, and the EM current limit on any product whose
   MT-cells draw more than it in all (no other limit binds that set). *)
let pricing_limits (p : Smt_core.Cluster.params) =
  let module C = Smt_core.Cluster in
  let module R = Reference_switch in
  [
    (p, None);
    ({ p with C.cell_limit = 3 }, Some R.Cell_cap);
    ( { p with C.cell_limit = 100_000; length_limit = 1e6; bounce_limit = 10.0 },
      Some R.Em_current );
    ({ p with C.length_limit = 30.0 }, Some R.Vgnd_length);
    ({ p with C.bounce_limit = 2e-4 }, Some R.No_width);
  ]

(* [Cluster.build] equals the reference build under every limit set, bit
   for bit, and each set's refusal happens ([em] says whether the EM
   limit is within reach). *)
let cluster_prices (c : Smt_core.Cluster.cluster) =
  let module C = Smt_core.Cluster in
  (c.C.members, c.C.width, c.C.wire_length, c.C.sim_current_ua, c.C.sustained_ua, c.C.bounce)

let builds_match_reference ~em (_, nl, place, activity, load_of) ~diversity =
  let module C = Smt_core.Cluster in
  let module R = Reference_switch in
  let mte_net = Option.get (Netlist.find_net nl "MTE") in
  let p = { (C.default_params (Library.tech lib)) with C.diversity } in
  List.for_all
    (fun (params, refusal) ->
      let built = C.build ?activity ?load_of ~params place ~mte_net in
      let expected, refusals = R.build ?activity ?load_of params place ~mte_net in
      List.map cluster_prices built.C.clusters = List.map cluster_prices expected
      &&
      match refusal with
      | Some R.Em_current when not em -> true
      | Some r -> List.mem_assoc r refusals
      | None -> true)
    (pricing_limits p)

let prop_cluster_build_matches_reference =
  QCheck2.Test.make ~name:"cluster build = list-based reference" ~count:6
    ~print:string_of_int seed_gen (fun seed ->
      let ((rng, nl, _, activity, load_of) as fixture) = pricing_fixture seed in
      let drawn =
        Reference_switch.sustained_current ?activity ?load_of nl ~members:(Array.to_list (vgnd_cells nl))
      in
      builds_match_reference fixture ~diversity:(Rng.bool rng)
        ~em:(drawn > (Library.tech lib).Smt_cell.Tech.em_current_limit))

(* circuit_a's MT-cells draw well over the EM limit whatever the profile
   and loads, so there every refusal must happen. *)
let test_cluster_build_refusals () =
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "circuit_a, seed %d: every refusal, reference prices" seed)
        true
        (builds_match_reference ~em:true
           (pricing_fixture ~circuit:"circuit_a" seed)
           ~diversity:(seed mod 2 = 0)))
    [ 1; 2; 3 ]

(* The soc product at fixture seed 3958 (an activity profile, no loads)
   under a 0.2 mV bounce limit meets a candidate whose equal-peak members
   name another worst member newest first than oldest first: priced
   newest member first it finds a width, oldest first it finds none.
   The build prices every candidate oldest first, as its switch is
   priced, so the check itself refuses that member and the group is
   built from its last check. *)
let test_cluster_build_one_order () =
  let module C = Smt_core.Cluster in
  let module R = Reference_switch in
  let _, nl, place, activity, load_of = pricing_fixture 3958 in
  let mte_net = Option.get (Netlist.find_net nl "MTE") in
  let params =
    { (C.default_params (Library.tech lib)) with C.diversity = true; bounce_limit = 2e-4 }
  in
  let built = C.build ?activity ?load_of ~params place ~mte_net in
  let expected, refusals = R.build ?activity ?load_of params place ~mte_net in
  Alcotest.(check bool) "newest first admits a refused candidate" true
    (List.exists
       (fun (r, members) ->
         r = R.No_width && R.feasible ?activity ?load_of place params (List.rev members) = Ok ())
       refusals);
  Alcotest.(check bool) "build = reference" true
    (List.map cluster_prices built.C.clusters = List.map cluster_prices expected)

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
          Alcotest.test_case "spanning length = dense Prim (inexact coordinates)" `Quick
            test_spanning_inexact;
          qtest prop_rng_int_uniformish;
        ] );
      ( "netlist",
        [
          qtest prop_generated_valid;
          qtest prop_topo_respects_edges;
          qtest prop_topo_matches_reference;
          qtest prop_roundtrip_preserves_stats;
          Alcotest.test_case "writer/parser roundtrip preserves 2-4-domain SoCs" `Quick
            test_roundtrip_soc;
          qtest prop_roundtrip_equivalent;
          qtest prop_parser_rejects_mutants;
        ] );
      ( "physical",
        [
          qtest prop_placement_in_die;
          qtest prop_placement_matches_reference;
          qtest prop_placement_ties_match_reference;
          Alcotest.test_case "circuit_a/b placement = list-based placer" `Quick
            test_placement_paper_circuits;
          qtest prop_sta_arrivals_monotone;
          qtest prop_extraction_nonnegative;
          qtest prop_leakage_positive;
        ] );
      ("readers", [ qtest prop_readers_reject_mutants ]);
      ( "mt-invariants",
        [
          qtest prop_cluster_invariants;
          qtest prop_holder_rule_sound;
          qtest prop_pricing_matches_reference;
          qtest prop_cluster_build_matches_reference;
          Alcotest.test_case "cluster build refusals on circuit_a = list-based" `Quick
            test_cluster_build_refusals;
          Alcotest.test_case "cluster build prices in one order" `Quick
            test_cluster_build_one_order;
        ] );
      ( "check",
        [
          qtest prop_checker_clean_on_generated;
          qtest prop_checker_agrees_with_validate;
          qtest prop_repair_clears_repairable;
          qtest prop_flow_products_lint_clean;
          qtest prop_incremental_matches_full;
          qtest prop_verify_matches_reference;
          qtest prop_verify_matches_reference_on_products;
          Alcotest.test_case "every fault class: compiled verify = list-based" `Quick
            test_verify_reference_faults;
          qtest prop_verify_covers_simulation;
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
          qtest prop_incremental_sta_exact_large;
          qtest prop_reanalyze_exact;
          qtest prop_cycles_named;
          Alcotest.test_case "hold ECO updates = re-analysis per iteration" `Quick
            test_eco_matches_reanalysis;
          qtest prop_compose_sound;
        ] );
    ]
