module Netlist = Smt_netlist.Netlist
module Builder = Smt_netlist.Builder
module Func = Smt_cell.Func
module Rng = Smt_util.Rng

let c17 lib =
  let b = Builder.create ~name:"c17" ~lib in
  let i1 = Builder.input b "G1" in
  let i2 = Builder.input b "G2" in
  let i3 = Builder.input b "G3" in
  let i4 = Builder.input b "G4" in
  let i5 = Builder.input b "G5" in
  let o1 = Builder.output b "G22" in
  let o2 = Builder.output b "G23" in
  let n10 = Builder.nand_ b i1 i3 in
  let n11 = Builder.nand_ b i3 i4 in
  let n16 = Builder.nand_ b i2 n11 in
  let n19 = Builder.nand_ b n11 i5 in
  Builder.gate_into b Func.Nand2 [ n10; n16 ] o1;
  Builder.gate_into b Func.Nand2 [ n16; n19 ] o2;
  Builder.netlist b

(* Random 2-3 input gate kinds a synthesizer would map to. *)
let comb_pool =
  [|
    Func.Nand2; Func.Nor2; Func.And2; Func.Or2; Func.Xor2; Func.Xnor2;
    Func.Aoi21; Func.Oai21; Func.Nand3; Func.Nor3; Func.Inv;
  |]

let layered ?(seed = 11) ?min_depth ~name ~inputs ~outputs ~width ~depth lib =
  let min_depth = match min_depth with Some d -> max 1 (min d depth) | None -> depth in
  let rng = Rng.create seed in
  let b = Builder.create ~name ~lib in
  let clk = Builder.input ~clock:true b "clk" in
  let ins = List.init inputs (fun i -> Builder.input b (Printf.sprintf "in%d" i)) in
  (* Register the inputs. *)
  let regs = List.map (fun d -> Builder.dff b ~d ~clk) ins in
  let reg_arr = Array.of_list regs in
  (* Column c runs for a depth drawn from [min_depth, depth]. Every input
     register seeds a column (cyclically) so none dangles; registers beyond
     the width join the parity tree below. *)
  let col_depth = Array.init width (fun _ -> Rng.int_in rng min_depth depth) in
  let current = Array.init width (fun c -> reg_arr.(c mod Array.length reg_arr)) in
  let unseeded_regs =
    if Array.length reg_arr > width then
      Array.to_list (Array.sub reg_arr width (Array.length reg_arr - width))
    else []
  in
  for layer = 1 to depth do
    for c = 0 to width - 1 do
      if layer <= col_depth.(c) then begin
        let kind = Rng.pick rng comb_pool in
        let arity = Func.arity kind in
        let pick_src () =
          (* mostly the same column (chains), sometimes a neighbour *)
          if Rng.chance rng 0.6 then current.(c)
          else current.(Rng.int rng width)
        in
        let srcs = List.init arity (fun i -> if i = 0 then current.(c) else pick_src ()) in
        let out = Builder.gate b kind srcs in
        current.(c) <- out
      end
    done
  done;
  (* Capture: register column tails; named outputs sample the first columns
     and a parity tree observes the rest so no register dangles. *)
  let tails = Array.to_list current in
  let qs = List.map (fun d -> Builder.dff b ~d ~clk) tails in
  let named = List.filteri (fun i _ -> i < outputs) qs in
  let rest = List.filteri (fun i _ -> i >= outputs) qs @ unseeded_regs in
  List.iteri
    (fun i q ->
      let po = Builder.output b (Printf.sprintf "out%d" i) in
      Builder.gate_into b Func.Buf [ q ] po)
    named;
  (match rest with
  | [] -> ()
  | _ :: _ ->
    let parity = Builder.reduce_tree b Builder.xor_ rest in
    let po = Builder.output b "parity" in
    Builder.gate_into b Func.Buf [ parity ] po);
  Builder.netlist b

let ripple_adder ?(registered = true) ~name ~bits lib =
  let b = Builder.create ~name ~lib in
  let clk = if registered then Some (Builder.input ~clock:true b "clk") else None in
  let reg d = match clk with Some clk -> Builder.dff b ~d ~clk | None -> d in
  let a = List.init bits (fun i -> reg (Builder.input b (Printf.sprintf "a%d" i))) in
  let bb = List.init bits (fun i -> reg (Builder.input b (Printf.sprintf "b%d" i))) in
  let cin = reg (Builder.input b "cin") in
  let carry = ref cin in
  let sums =
    List.map2
      (fun ai bi ->
        let s, c = Builder.full_adder b ~a:ai ~b:bi ~cin:!carry in
        carry := c;
        s)
      a bb
  in
  List.iteri
    (fun i s ->
      let po = Builder.output b (Printf.sprintf "s%d" i) in
      Builder.gate_into b Func.Buf [ reg s ] po)
    sums;
  let po = Builder.output b "cout" in
  Builder.gate_into b Func.Buf [ reg !carry ] po;
  Builder.netlist b

let multiplier ?(registered = true) ~name ~bits lib =
  let b = Builder.create ~name ~lib in
  let clk = if registered then Some (Builder.input ~clock:true b "clk") else None in
  let reg d = match clk with Some clk -> Builder.dff b ~d ~clk | None -> d in
  let a = Array.init bits (fun i -> reg (Builder.input b (Printf.sprintf "a%d" i))) in
  let bb = Array.init bits (fun i -> reg (Builder.input b (Printf.sprintf "b%d" i))) in
  (* Shift-add array: accumulate partial-product rows, emitting one product
     bit per row.  Absent operands (beyond the accumulator's top) stand for
     constant 0 and degrade full adders to half adders / pass-throughs. *)
  let partial i = Array.init bits (fun j -> Builder.and_ b a.(j) bb.(i)) in
  let add3 x y cin =
    match (y, cin) with
    | None, None -> (x, None)
    | Some y, None | None, Some y ->
      (Builder.xor_ b x y, Some (Builder.and_ b x y))
    | Some y, Some cin ->
      let s, c = Builder.full_adder b ~a:x ~b:y ~cin in
      (s, Some c)
  in
  let out = Array.make (2 * bits) None in
  let acc = ref (Array.map Option.some (partial 0)) in
  let acc_top = ref None in
  out.(0) <- !acc.(0);
  for i = 1 to bits - 1 do
    let row = partial i in
    let next = Array.make bits None in
    let carry = ref None in
    for j = 0 to bits - 1 do
      let shifted = if j < bits - 1 then !acc.(j + 1) else !acc_top in
      let s, c = add3 row.(j) shifted !carry in
      next.(j) <- Some s;
      carry := c
    done;
    acc := next;
    acc_top := !carry;
    out.(i) <- !acc.(0)
  done;
  for j = 1 to bits - 1 do
    out.(bits - 1 + j) <- !acc.(j)
  done;
  out.((2 * bits) - 1) <- !acc_top;
  Array.iteri
    (fun i net ->
      match net with
      | Some net ->
        let po = Builder.output b (Printf.sprintf "p%d" i) in
        Builder.gate_into b Func.Buf [ reg net ] po
      | None -> ())
    out;
  Builder.netlist b

let alu ?(seed = 5) ~name ~bits lib =
  let rng = Rng.create seed in
  ignore rng;
  let b = Builder.create ~name ~lib in
  let clk = Builder.input ~clock:true b "clk" in
  let reg d = Builder.dff b ~d ~clk in
  let a = Array.init bits (fun i -> reg (Builder.input b (Printf.sprintf "a%d" i))) in
  let bb = Array.init bits (fun i -> reg (Builder.input b (Printf.sprintf "b%d" i))) in
  let op0 = reg (Builder.input b "op0") in
  let op1 = reg (Builder.input b "op1") in
  (* add *)
  let carry = ref None in
  let adds =
    Array.to_list
      (Array.mapi
         (fun i ai ->
           let bi = bb.(i) in
           match !carry with
           | None ->
             let s = Builder.xor_ b ai bi in
             carry := Some (Builder.and_ b ai bi);
             s
           | Some cin ->
             let s, c = Builder.full_adder b ~a:ai ~b:bi ~cin in
             carry := Some c;
             s)
         a)
  in
  let ands = Array.to_list (Array.mapi (fun i ai -> Builder.and_ b ai bb.(i)) a) in
  let ors = Array.to_list (Array.mapi (fun i ai -> Builder.or_ b ai bb.(i)) a) in
  let xors = Array.to_list (Array.mapi (fun i ai -> Builder.xor_ b ai bb.(i)) a) in
  List.iteri
    (fun i (((add, andv), orv), xorv) ->
      let m0 = Builder.mux_ b ~sel:op0 add andv in
      let m1 = Builder.mux_ b ~sel:op0 orv xorv in
      let m = Builder.mux_ b ~sel:op1 m0 m1 in
      let po = Builder.output b (Printf.sprintf "y%d" i) in
      Builder.gate_into b Func.Buf [ reg m ] po)
    (List.combine (List.combine (List.combine adds ands) ors) xors);
  (match !carry with
  | Some c ->
    let po = Builder.output b "cout" in
    Builder.gate_into b Func.Buf [ reg c ] po
  | None -> ());
  Builder.netlist b

let counter ~name ~bits lib =
  let b = Builder.create ~name ~lib in
  let clk = Builder.input ~clock:true b "clk" in
  let en = Builder.input b "en" in
  let nl = Builder.netlist b in
  (* state bits with feedback: q[i]' = q[i] xor (en and q[0..i-1]) *)
  let qs = Array.init bits (fun i -> Netlist.add_net nl (Printf.sprintf "q%d" i)) in
  let carry = ref en in
  Array.iteri
    (fun i q ->
      let d = Builder.xor_ b q !carry in
      if i < bits - 1 then carry := Builder.and_ b !carry q;
      Builder.dff_into b ~d ~clk q)
    qs;
  Array.iteri
    (fun i q ->
      let po = Builder.output b (Printf.sprintf "count%d" i) in
      Builder.gate_into b Func.Buf [ q ] po)
    qs;
  nl

let kogge_stone ?(registered = true) ~name ~bits lib =
  let b = Builder.create ~name ~lib in
  let clk = if registered then Some (Builder.input ~clock:true b "clk") else None in
  let reg d = match clk with Some clk -> Builder.dff b ~d ~clk | None -> d in
  let a = Array.init bits (fun i -> reg (Builder.input b (Printf.sprintf "a%d" i))) in
  let bb = Array.init bits (fun i -> reg (Builder.input b (Printf.sprintf "b%d" i))) in
  (* generate/propagate pairs, then the log-depth prefix network *)
  let g = Array.init bits (fun i -> Builder.and_ b a.(i) bb.(i)) in
  let p = Array.init bits (fun i -> Builder.xor_ b a.(i) bb.(i)) in
  let gk = Array.copy g and pk = Array.copy p in
  let span = ref 1 in
  while !span < bits do
    let g' = Array.copy gk and p' = Array.copy pk in
    for i = bits - 1 downto !span do
      (* (g,p) o (g',p') = (g or (p and g'), p and p') *)
      let carry_from_below = Builder.and_ b pk.(i) gk.(i - !span) in
      g'.(i) <- Builder.or_ b gk.(i) carry_from_below;
      (* the combined propagate is only consumed by the next level, and
         there only at positions >= 2*span: skip the rest so no gate
         dangles (a synthesizer would prune them the same way) *)
      if (2 * !span) < bits && i >= 2 * !span then
        p'.(i) <- Builder.and_ b pk.(i) pk.(i - !span)
    done;
    Array.blit g' 0 gk 0 bits;
    Array.blit p' 0 pk 0 bits;
    span := !span * 2
  done;
  (* sum_i = p_i xor carry_in_i, carry_in_i = gk_{i-1} *)
  Array.iteri
    (fun i pi ->
      let s = if i = 0 then pi else Builder.xor_ b pi gk.(i - 1) in
      let po = Builder.output b (Printf.sprintf "s%d" i) in
      Builder.gate_into b Func.Buf [ reg s ] po)
    p;
  let po = Builder.output b "cout" in
  Builder.gate_into b Func.Buf [ reg gk.(bits - 1) ] po;
  Builder.netlist b

let crc ~name ~bits ~taps lib =
  let b = Builder.create ~name ~lib in
  let clk = Builder.input ~clock:true b "clk" in
  let din = Builder.input b "din" in
  let nl = Builder.netlist b in
  let state = Array.init bits (fun i -> Netlist.add_net nl (Printf.sprintf "s%d" i)) in
  (* Galois form: feedback = state[msb] xor din; bit i gets bit i-1, xored
     with the feedback on tap positions. *)
  let feedback = Builder.xor_ b state.(bits - 1) din in
  Array.iteri
    (fun i s ->
      let d =
        if i = 0 then feedback
        else if List.mem i taps then Builder.xor_ b state.(i - 1) feedback
        else state.(i - 1)
      in
      Builder.dff_into b ~d ~clk s)
    state;
  Array.iteri
    (fun i s ->
      let po = Builder.output b (Printf.sprintf "crc%d" i) in
      Builder.gate_into b Func.Buf [ s ] po)
    state;
  nl

let pipeline ?(seed = 17) ~name ~stages ~width ~stage_depth lib =
  let rng = Rng.create seed in
  let b = Builder.create ~name ~lib in
  let clk = Builder.input ~clock:true b "clk" in
  let ins = List.init width (fun i -> Builder.input b (Printf.sprintf "in%d" i)) in
  let bank nets = List.map (fun d -> Builder.dff b ~d ~clk) nets in
  let stage nets =
    let current = Array.of_list nets in
    for _layer = 1 to stage_depth do
      let prev = Array.copy current in
      Array.iteri
        (fun c _ ->
          let kind = Rng.pick rng comb_pool in
          let srcs =
            List.init (Func.arity kind) (fun i ->
                if i = 0 then prev.(c) else prev.(Rng.int rng width))
          in
          current.(c) <- Builder.gate b kind srcs)
        current
    done;
    Array.to_list current
  in
  let data = ref (bank ins) in
  for _stage = 1 to stages do
    data := bank (stage !data)
  done;
  List.iteri
    (fun i q ->
      let po = Builder.output b (Printf.sprintf "out%d" i) in
      Builder.gate_into b Func.Buf [ q ] po)
    !data;
  Builder.netlist b
