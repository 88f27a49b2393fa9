module Netlist = Smt_netlist.Netlist
module Builder = Smt_netlist.Builder
module Func = Smt_cell.Func
module Library = Smt_cell.Library
module Vth = Smt_cell.Vth
module Rng = Smt_util.Rng

(* Helpers to extend an existing netlist (used to fuse blocks into one
   design sharing a clock). *)

let lv_cell lib kind = Library.variant lib kind Vth.Low Vth.Plain

let add_gate nl lib kind ins out =
  let cell = lv_cell lib kind in
  let names = Func.input_names kind in
  let pins = List.mapi (fun i nid -> (names.(i), nid)) ins @ [ ("Z", out) ] in
  let name = Netlist.fresh_inst_name nl (String.lowercase_ascii (Func.to_string kind)) in
  ignore (Netlist.add_inst nl ~name cell pins)

let fresh_gate nl lib kind ins =
  let out = Netlist.fresh_net nl "n" in
  add_gate nl lib kind ins out;
  out

let add_reg nl lib ~clk d =
  let q = Netlist.fresh_net nl "q" in
  let name = Netlist.fresh_inst_name nl "dff" in
  ignore (Netlist.add_inst nl ~name (lv_cell lib Func.Dff) [ ("D", d); ("CK", clk); ("Q", q) ]);
  q

(* Extend a netlist with a registered block of layered random logic sharing
   the clock: column [c] runs for a depth drawn from [min_depth, depth]. *)
let extend_layered nl lib ~clk ~seed ~prefix ~width ~depth ~min_depth =
  let rng = Rng.create seed in
  let ins = List.init width (fun i -> Netlist.add_input nl (Printf.sprintf "%s%d" prefix i)) in
  let current = Array.of_list (List.map (add_reg nl lib ~clk) ins) in
  let col_depth = Array.init width (fun _ -> Rng.int_in rng min_depth depth) in
  let pool =
    [| Func.Nand2; Func.Nor2; Func.Xor2; Func.Aoi21; Func.Oai21; Func.And2; Func.Or2 |]
  in
  for layer = 1 to depth do
    let prev = Array.copy current in
    for c = 0 to width - 1 do
      if layer <= col_depth.(c) then begin
        let kind = Rng.pick rng pool in
        let srcs =
          List.init (Func.arity kind) (fun i ->
              if i = 0 then prev.(c) else prev.(Rng.int rng width))
        in
        current.(c) <- fresh_gate nl lib kind srcs
      end
    done
  done;
  Array.iteri
    (fun c net ->
      let q = add_reg nl lib ~clk net in
      let po = Netlist.add_output nl (Printf.sprintf "%so%d" prefix c) in
      add_gate nl lib Func.Buf [ q ] po)
    current

let clock_of nl =
  match Netlist.clock_net nl with
  | Some c -> c
  | None -> Netlist.add_input ~clock:true nl "clk"

let circuit_a lib =
  (* Datapath-dominated: a 12x12 array multiplier plus a uniformly deep
     layered block — nearly every path is near-critical, like the paper's
     circuit A. *)
  let nl = Generators.multiplier ~name:"circuit_a" ~bits:12 lib in
  let clk = clock_of nl in
  extend_layered nl lib ~clk ~seed:23 ~prefix:"dx" ~width:24 ~depth:16 ~min_depth:16;
  nl

let circuit_b lib =
  (* Mixed: an 8x8 multiplier core keeps a substantial critical population,
     while wide shallow control logic supplies the slack that Dual-Vth
     converts to high-Vth — circuit B's smaller overheads. *)
  let nl = Generators.multiplier ~name:"circuit_b" ~bits:8 lib in
  let clk = clock_of nl in
  extend_layered nl lib ~clk ~seed:31 ~prefix:"cx" ~width:40 ~depth:8 ~min_depth:2;
  nl

let tiny lib = Generators.ripple_adder ~registered:true ~name:"tiny_adder" ~bits:4 lib

let fig23_example lib =
  let b = Builder.create ~name:"fig23" ~lib in
  let clk = Builder.input ~clock:true b "clk" in
  let d0 = Builder.input b "d0" in
  let d1 = Builder.input b "d1" in
  let d2 = Builder.input b "d2" in
  let q0 = Builder.dff b ~d:d0 ~clk in
  let q1 = Builder.dff b ~d:d1 ~clk in
  let q2 = Builder.dff b ~d:d2 ~clk in
  (* critical cloud: a chain with internal and boundary fanouts *)
  let g1 = Builder.nand_ b q0 q1 in
  let g2 = Builder.xor_ b g1 q2 in
  let g3 = Builder.nand_ b g2 g1 in
  let g4 = Builder.or_ b g3 q1 in
  (* non-critical side logic *)
  let s1 = Builder.and_ b q0 q2 in
  let s2 = Builder.not_ b s1 in
  let q3 = Builder.dff b ~d:g4 ~clk in
  let q4 = Builder.dff b ~d:s2 ~clk in
  let o0 = Builder.output b "o0" in
  let o1 = Builder.output b "o1" in
  Builder.gate_into b Func.Buf [ q3 ] o0;
  Builder.gate_into b Func.Xor2 [ q4; g2 ] o1;
  Builder.netlist b

(* A post-MT multi-domain SoC: 2-4 blocks, each its own sleepable power
   domain with a private enable, sleep switch, and output holders, plus
   a ring of domain crossings (each domain exports one net, through a
   declared isolation holder, to a reader gate in the next domain).
   Healthy by construction: DRC-clean and lint-clean in every sleep
   mode, so tests and faults mutate from a known-good baseline.  The
   netlist is already MT-structured — run the verifier on it directly,
   not the flow. *)
let multi_domain ?(domains = 3) ~name lib =
  if domains < 2 || domains > 4 then invalid_arg "Suite.multi_domain: 2..4 domains";
  let specs =
    [
      ("a", fun lib -> Generators.ripple_adder ~registered:true ~name:"blk" ~bits:4 lib);
      ("b", fun lib -> Generators.counter ~name:"blk" ~bits:4 lib);
      ("c", fun lib -> Generators.crc ~name:"blk" ~bits:4 ~taps:[ 1; 3 ] lib);
      ("d", fun lib -> Generators.kogge_stone ~registered:true ~name:"blk" ~bits:4 lib);
    ]
    |> List.filteri (fun i _ -> i < domains)
  in
  let nl = Smt_netlist.Compose.merge ~name (List.map (fun (p, g) -> (p, g lib)) specs) in
  let doms = List.map fst specs in
  let enable = List.map (fun d -> (d, Netlist.add_input nl ("mte_" ^ d))) doms in
  List.iter (fun (d, e) -> Netlist.add_domain nl ~name:d ~mte:(Some e)) enable;
  (* membership: merge prefixed every block instance with its domain *)
  let dom_of_name nm =
    List.find_opt (fun d -> String.starts_with ~prefix:(d ^ "_") nm) doms
  in
  Netlist.iter_insts nl (fun iid ->
      match dom_of_name (Netlist.inst_name nl iid) with
      | Some d -> Netlist.set_inst_domain nl iid (Some d)
      | None -> ());
  (* every combinational member becomes a VGND-style MT-cell *)
  let is_comb k =
    match k with
    | Func.Dff | Func.Sleep_switch | Func.Holder | Func.Clkbuf -> false
    | _ -> true
  in
  Netlist.iter_insts nl (fun iid ->
      let c = Netlist.cell nl iid in
      if is_comb c.Smt_cell.Cell.kind && Netlist.inst_domain nl iid <> None then
        Netlist.replace_cell nl iid
          (Library.variant ~drive:c.Smt_cell.Cell.drive lib c.Smt_cell.Cell.kind Vth.Low
             Vth.Mt_vgnd));
  let clk = clock_of nl in
  let mt_cell kind = Library.variant lib kind Vth.Low Vth.Mt_vgnd in
  let dff_qs d =
    let qs = ref [] in
    Netlist.iter_insts nl (fun iid ->
        if
          (Netlist.cell nl iid).Smt_cell.Cell.kind = Func.Dff
          && Netlist.inst_domain nl iid = Some d
        then
          match Netlist.output_net nl iid with
          | Some q -> qs := q :: !qs
          | None -> ());
    List.rev !qs
  in
  (* crossing ring: domain i exports one net to a reader in domain i+1 *)
  let holder_cell = Library.holder lib in
  let k = List.length doms in
  List.iteri
    (fun i di ->
      let dj = List.nth doms ((i + 1) mod k) in
      let ei = List.assoc di enable in
      let q1, q2 =
        match dff_qs di with
        | a :: b :: _ -> (a, b)
        | [ a ] -> (a, a)
        | [] -> invalid_arg "Suite.multi_domain: block without flip-flops"
      in
      let xnet = Netlist.fresh_net nl ("xn_" ^ di) in
      let xg =
        Netlist.add_inst nl
          ~name:(Netlist.fresh_inst_name nl ("xg_" ^ di))
          (mt_cell Func.Nand2)
          [ ("A", q1); ("B", q2); ("Z", xnet) ]
      in
      Netlist.set_inst_domain nl xg (Some di);
      (* declared isolation at the boundary, clamped by the source
         domain's own enable *)
      let iso =
        Netlist.add_inst nl
          ~name:(Netlist.fresh_inst_name nl ("iso_" ^ di))
          holder_cell
          [ ("MTE", ei); ("Z", xnet) ]
      in
      Netlist.set_isolation nl iso true;
      let qj =
        match dff_qs dj with q :: _ -> q | [] -> assert false
      in
      let rnet = Netlist.fresh_net nl ("xr_" ^ dj) in
      let rg =
        Netlist.add_inst nl
          ~name:(Netlist.fresh_inst_name nl ("rg_" ^ dj ^ "_" ^ di))
          (mt_cell Func.Nand2)
          [ ("A", xnet); ("B", qj); ("Z", rnet) ]
      in
      Netlist.set_inst_domain nl rg (Some dj);
      (* land the crossing in a register of the reading domain *)
      let qn = Netlist.fresh_net nl ("xq_" ^ dj) in
      let dff =
        Netlist.add_inst nl
          ~name:(Netlist.fresh_inst_name nl ("xdff_" ^ dj))
          (lv_cell lib Func.Dff)
          [ ("D", rnet); ("CK", clk); ("Q", qn) ]
      in
      Netlist.set_inst_domain nl dff (Some dj);
      Netlist.mark_output nl qn)
    doms;
  (* one sleep switch per domain, gating every MT member *)
  List.iter
    (fun (d, e) ->
      let members = ref [] in
      Netlist.iter_insts nl (fun iid ->
          if
            Vth.style_equal (Netlist.cell nl iid).Smt_cell.Cell.style Vth.Mt_vgnd
            && Netlist.inst_domain nl iid = Some d
          then members := iid :: !members);
      let sw =
        Netlist.add_inst nl
          ~name:(Netlist.fresh_inst_name nl ("sw_" ^ d))
          (Library.switch lib ~width:4.0)
          [ ("MTE", e) ]
      in
      Netlist.set_inst_domain nl sw (Some d);
      List.iter (fun m -> Netlist.set_vgnd_switch nl m (Some sw)) (List.rev !members))
    enable;
  (* output holders wherever a held value leaves MT logic, enabled by
     the source domain's own enable *)
  Netlist.iter_nets nl (fun nid ->
      if Smt_check.Walk.holder_required nl nid && Netlist.holder_of nl nid = None then
        match Netlist.driver nl nid with
        | Some dp -> (
          match Netlist.inst_domain nl dp.Netlist.inst with
          | Some d ->
            let e = List.assoc d enable in
            ignore
              (Netlist.add_inst nl
                 ~name:(Netlist.fresh_inst_name nl ("hold_" ^ d))
                 holder_cell
                 [ ("MTE", e); ("Z", nid) ])
          | None -> ())
        | None -> ());
  nl

let all =
  [
    ("circuit_a", circuit_a);
    ("circuit_b", circuit_b);
    ("c17", Generators.c17);
    ("tiny", tiny);
    ("fig23", fig23_example);
    ("mult8", fun lib -> Generators.multiplier ~name:"mult8" ~bits:8 lib);
    ("alu8", fun lib -> Generators.alu ~name:"alu8" ~bits:8 lib);
    ("adder16", fun lib -> Generators.ripple_adder ~name:"adder16" ~bits:16 lib);
    ("counter12", fun lib -> Generators.counter ~name:"counter12" ~bits:12 lib);
    ("ks16", fun lib -> Generators.kogge_stone ~name:"ks16" ~bits:16 lib);
    ("crc16", fun lib -> Generators.crc ~name:"crc16" ~bits:16 ~taps:[ 2; 15 ] lib);
    ( "pipe4x16",
      fun lib -> Generators.pipeline ~name:"pipe4x16" ~stages:4 ~width:16 ~stage_depth:6 lib );
    ( "soc",
      fun lib ->
        Smt_netlist.Compose.merge ~name:"soc"
          [
            ("dp", Generators.multiplier ~name:"mult" ~bits:8 lib);
            ("alu", Generators.alu ~name:"alu" ~bits:8 lib);
            ("crc", Generators.crc ~name:"crc" ~bits:16 ~taps:[ 2; 15 ] lib);
          ] );
    ("domains2", fun lib -> multi_domain ~domains:2 ~name:"domains2" lib);
    ("domains3", fun lib -> multi_domain ~domains:3 ~name:"domains3" lib);
    ("domains4", fun lib -> multi_domain ~domains:4 ~name:"domains4" lib);
  ]

let is_multi_domain name = String.length name > 7 && String.sub name 0 7 = "domains"
