module Vec = Smt_util.Vec
module Cell = Smt_cell.Cell
module Func = Smt_cell.Func
module Vth = Smt_cell.Vth
module Library = Smt_cell.Library

type inst_id = int
type net_id = int

type pin = { inst : inst_id; pin_name : string }

type net = {
  net_name : string;
  mutable driver : pin option;
  mutable n_is_pi : bool;
  mutable n_is_po : bool;
  mutable n_is_clock : bool;
  mutable sinks : pin list;
  mutable holder : inst_id option;
  (* journal stamp: the netlist [version] of this net's last touch *)
  mutable stamp : int;
}

type instance = {
  i_name : string;
  mutable i_cell : Cell.t;
  mutable i_conns : (string * net_id) list;
  mutable i_vgnd : inst_id option;
  mutable i_dead : bool;
  mutable i_domain : string option;
  mutable i_isolation : bool;
}

type t = {
  d_name : string;
  d_lib : Library.t;
  insts : instance Vec.t;
  nets : net Vec.t;
  net_index : (string, net_id) Hashtbl.t;
  inst_index : (string, inst_id) Hashtbl.t;
  (* Newest first: ports prepend on add (O(1), not O(ports)) and the
     [inputs]/[outputs] accessors reverse into declaration order. *)
  mutable ports_in : (string * net_id) list;
  mutable ports_out : (string * net_id) list;
  mutable clock : net_id option;
  mutable uniq : int;
  (* Power-domain table, in declaration order (newest first, reversed by
     [domains]); [None] = an always-on domain with no sleep enable. *)
  mutable doms : (string * net_id option) list;
  (* Touched-net journal: every structural mutation bumps the version and
     stamps the nets whose standby value or load could change with it, so
     an incremental re-analysis knows where to re-seed.  Reading it
     ([touched_since]) clears nothing: each analysis keeps its own
     version. *)
  mutable version : int;
}

exception Combinational_cycle of string

let create ~name ~lib =
  {
    d_name = name;
    d_lib = lib;
    insts = Vec.create ();
    nets = Vec.create ();
    net_index = Hashtbl.create 997;
    inst_index = Hashtbl.create 997;
    ports_in = [];
    ports_out = [];
    clock = None;
    uniq = 0;
    doms = [];
    version = 0;
  }

let design_name t = t.d_name
let lib t = t.d_lib

(* --- touched-net journal --- *)

let touch t nid =
  t.version <- t.version + 1;
  (Vec.get t.nets nid).stamp <- t.version

let version t = t.version

let touched_since t v =
  let acc = ref [] in
  for nid = Vec.length t.nets - 1 downto 0 do
    if (Vec.get t.nets nid).stamp > v then acc := nid :: !acc
  done;
  !acc

(* --- nets --- *)

let add_net ?(clock = false) t name =
  if Hashtbl.mem t.net_index name then
    invalid_arg (Printf.sprintf "Netlist.add_net: duplicate net %s" name);
  let id =
    Vec.push t.nets
      {
        net_name = name;
        driver = None;
        n_is_pi = false;
        n_is_po = false;
        n_is_clock = clock;
        sinks = [];
        holder = None;
        stamp = 0;
      }
  in
  Hashtbl.add t.net_index name id;
  if clock && t.clock = None then t.clock <- Some id;
  touch t id;
  id

let fresh_net t stem =
  let rec try_name () =
    t.uniq <- t.uniq + 1;
    let name = Printf.sprintf "%s_%d" stem t.uniq in
    if Hashtbl.mem t.net_index name then try_name () else name
  in
  add_net t (try_name ())

let add_input ?(clock = false) t name =
  let id = add_net ~clock t name in
  (Vec.get t.nets id).n_is_pi <- true;
  t.ports_in <- (name, id) :: t.ports_in;
  id

let add_output t name =
  let id = add_net t name in
  (Vec.get t.nets id).n_is_po <- true;
  t.ports_out <- (name, id) :: t.ports_out;
  id

let mark_output t nid =
  let n = Vec.get t.nets nid in
  if not n.n_is_po then begin
    n.n_is_po <- true;
    t.ports_out <- (n.net_name, nid) :: t.ports_out;
    touch t nid
  end

let mark_clock t nid =
  let n = Vec.get t.nets nid in
  n.n_is_clock <- true;
  if t.clock = None then t.clock <- Some nid;
  touch t nid

let net_count t = Vec.length t.nets
let net_name t nid = (Vec.get t.nets nid).net_name
let find_net t name = Hashtbl.find_opt t.net_index name
let is_pi t nid = (Vec.get t.nets nid).n_is_pi
let is_po t nid = (Vec.get t.nets nid).n_is_po
let is_clock_net t nid = (Vec.get t.nets nid).n_is_clock
let driver t nid = (Vec.get t.nets nid).driver
let sinks t nid = (Vec.get t.nets nid).sinks
let holder_of t nid = (Vec.get t.nets nid).holder
let inputs t = List.rev t.ports_in
let outputs t = List.rev t.ports_out
let clock_net t = t.clock

(* --- pin directions --- *)

type dir = Dir_in | Dir_out | Dir_holder_z

let pin_dir (cell : Cell.t) pin_name =
  let outs = Func.output_names cell.Cell.kind in
  if Array.exists (String.equal pin_name) outs then Dir_out
  else if String.equal pin_name "MTE" && Vth.style_equal cell.Cell.style Vth.Mt_embedded then
    (* conventional MT-cells carry their own switch, controlled by MTE *)
    Dir_in
  else
    match cell.Cell.kind with
    | Func.Holder when String.equal pin_name "Z" -> Dir_holder_z
    | Func.Holder when String.equal pin_name "MTE" -> Dir_in
    | Func.Sleep_switch when String.equal pin_name "MTE" -> Dir_in
    | Func.Dff when String.equal pin_name "CK" -> Dir_in
    | k ->
      let ins = Func.input_names k in
      if Array.exists (String.equal pin_name) ins then Dir_in
      else
        invalid_arg
          (Printf.sprintf "Netlist: cell %s has no pin %s" cell.Cell.name pin_name)

(* --- instances --- *)

let inst_count t = Vec.length t.insts
let inst_name t iid = (Vec.get t.insts iid).i_name
let find_inst t name = Hashtbl.find_opt t.inst_index name
let cell t iid = (Vec.get t.insts iid).i_cell
let conns t iid = (Vec.get t.insts iid).i_conns
let is_dead t iid = (Vec.get t.insts iid).i_dead

let pin_net t iid pin_name =
  List.assoc_opt pin_name (Vec.get t.insts iid).i_conns

let output_net t iid =
  let inst = Vec.get t.insts iid in
  match Func.output_names inst.i_cell.Cell.kind with
  | [||] -> None
  | outs -> List.assoc_opt outs.(0) inst.i_conns

let attach t iid pin_name nid =
  let inst = Vec.get t.insts iid in
  let n = Vec.get t.nets nid in
  match pin_dir inst.i_cell pin_name with
  | Dir_out ->
    (match n.driver with
    | Some p when not (Vec.get t.insts p.inst).i_dead ->
      invalid_arg
        (Printf.sprintf "Netlist: net %s already driven by %s.%s" n.net_name
           (Vec.get t.insts p.inst).i_name p.pin_name)
    | Some _ | None ->
      if n.n_is_pi then
        invalid_arg (Printf.sprintf "Netlist: net %s is a primary input" n.net_name);
      n.driver <- Some { inst = iid; pin_name };
      touch t nid)
  | Dir_in ->
    n.sinks <- { inst = iid; pin_name } :: n.sinks;
    touch t nid
  | Dir_holder_z ->
    n.holder <- Some iid;
    touch t nid

let detach t iid pin_name nid =
  let inst = Vec.get t.insts iid in
  let n = Vec.get t.nets nid in
  match pin_dir inst.i_cell pin_name with
  | Dir_out -> (
    match n.driver with
    | Some p when p.inst = iid && String.equal p.pin_name pin_name ->
      n.driver <- None;
      touch t nid
    | Some _ | None -> ())
  | Dir_in ->
    n.sinks <-
      List.filter (fun p -> not (p.inst = iid && String.equal p.pin_name pin_name)) n.sinks;
    touch t nid
  | Dir_holder_z ->
    if n.holder = Some iid then begin
      n.holder <- None;
      touch t nid
    end

let add_inst t ~name cell pins =
  if Hashtbl.mem t.inst_index name then
    invalid_arg (Printf.sprintf "Netlist.add_inst: duplicate instance %s" name);
  let iid =
    Vec.push t.insts
      {
        i_name = name;
        i_cell = cell;
        i_conns = [];
        i_vgnd = None;
        i_dead = false;
        i_domain = None;
        i_isolation = false;
      }
  in
  Hashtbl.add t.inst_index name iid;
  let add_pin (pin_name, nid) =
    let inst = Vec.get t.insts iid in
    if List.mem_assoc pin_name inst.i_conns then
      invalid_arg (Printf.sprintf "Netlist: duplicate pin %s on %s" pin_name name);
    attach t iid pin_name nid;
    inst.i_conns <- inst.i_conns @ [ (pin_name, nid) ]
  in
  List.iter add_pin pins;
  iid

let fresh_inst_name t stem =
  let rec try_name () =
    t.uniq <- t.uniq + 1;
    let name = Printf.sprintf "%s_%d" stem t.uniq in
    if Hashtbl.mem t.inst_index name then try_name () else name
  in
  try_name ()

let replace_cell t iid new_cell =
  let inst = Vec.get t.insts iid in
  let same_pins =
    List.for_all
      (fun (p, _) ->
        match pin_dir new_cell p with
        | Dir_in | Dir_out | Dir_holder_z -> true
        | exception Invalid_argument _ -> false)
      inst.i_conns
  in
  if not same_pins then
    invalid_arg
      (Printf.sprintf "Netlist.replace_cell: %s -> %s changes pin interface"
         inst.i_cell.Cell.name new_cell.Cell.name);
  inst.i_cell <- new_cell;
  (* a style/strength swap can change the standby supply of every pin net *)
  List.iter (fun (_, nid) -> touch t nid) inst.i_conns

let connect t iid pin_name nid =
  let inst = Vec.get t.insts iid in
  (match List.assoc_opt pin_name inst.i_conns with
  | Some old -> detach t iid pin_name old
  | None -> ());
  attach t iid pin_name nid;
  inst.i_conns <- (pin_name, nid) :: List.remove_assoc pin_name inst.i_conns

let disconnect t iid pin_name =
  let inst = Vec.get t.insts iid in
  match List.assoc_opt pin_name inst.i_conns with
  | None -> ()
  | Some nid ->
    detach t iid pin_name nid;
    inst.i_conns <- List.remove_assoc pin_name inst.i_conns

let move_sink t ~from_net pin ~to_net =
  let n_from = Vec.get t.nets from_net in
  if not (List.exists (fun p -> p.inst = pin.inst && String.equal p.pin_name pin.pin_name) n_from.sinks)
  then
    invalid_arg
      (Printf.sprintf "Netlist.move_sink: %s.%s is not a sink of %s"
         (inst_name t pin.inst) pin.pin_name n_from.net_name);
  connect t pin.inst pin.pin_name to_net

let remove_inst t iid =
  let inst = Vec.get t.insts iid in
  if not inst.i_dead then begin
    List.iter (fun (p, nid) -> detach t iid p nid) inst.i_conns;
    (* removing a sleep switch changes the standby supply of every member:
       their outputs must re-seed on an incremental re-analysis *)
    (if inst.i_cell.Cell.kind = Func.Sleep_switch then
       Vec.iteri
         (fun _ m ->
           if (not m.i_dead) && m.i_vgnd = Some iid then
             List.iter (fun (_, nid) -> touch t nid) m.i_conns)
         t.insts);
    inst.i_conns <- [];
    inst.i_vgnd <- None;
    inst.i_dead <- true;
    Hashtbl.remove t.inst_index inst.i_name
  end

let set_vgnd_switch t iid sw =
  let inst = Vec.get t.insts iid in
  (match inst.i_cell.Cell.style with
  | Vth.Mt_vgnd -> ()
  | Vth.Plain | Vth.Mt_embedded | Vth.Mt_no_vgnd ->
    invalid_arg
      (Printf.sprintf "Netlist.set_vgnd_switch: %s has no VGND port (%s)" inst.i_name
         (Vth.style_to_string inst.i_cell.Cell.style)));
  (match sw with
  | Some sw_id ->
    let sw_inst = Vec.get t.insts sw_id in
    (match sw_inst.i_cell.Cell.kind with
    | Func.Sleep_switch -> ()
    | _ ->
      invalid_arg
        (Printf.sprintf "Netlist.set_vgnd_switch: %s is not a sleep switch" sw_inst.i_name))
  | None -> ());
  inst.i_vgnd <- sw;
  List.iter (fun (_, nid) -> touch t nid) inst.i_conns

let vgnd_switch t iid = (Vec.get t.insts iid).i_vgnd

let set_holder t nid h =
  (Vec.get t.nets nid).holder <- h;
  touch t nid

(* --- power domains --- *)

let add_domain t ~name ~mte =
  if List.mem_assoc name t.doms then
    invalid_arg (Printf.sprintf "Netlist.add_domain: duplicate domain %s" name);
  t.doms <- (name, mte) :: t.doms;
  match mte with Some nid -> touch t nid | None -> ()

let domains t = List.rev t.doms

let set_inst_domain t iid dom =
  (match dom with
  | Some d when not (List.mem_assoc d t.doms) ->
    invalid_arg (Printf.sprintf "Netlist.set_inst_domain: unknown domain %s" d)
  | Some _ | None -> ());
  let inst = Vec.get t.insts iid in
  inst.i_domain <- dom;
  List.iter (fun (_, nid) -> touch t nid) inst.i_conns

let inst_domain t iid = (Vec.get t.insts iid).i_domain

let set_isolation t iid iso =
  let inst = Vec.get t.insts iid in
  inst.i_isolation <- iso;
  List.iter (fun (_, nid) -> touch t nid) inst.i_conns

let is_isolation t iid = (Vec.get t.insts iid).i_isolation

(* --- traversal --- *)

let live_insts t =
  let acc = ref [] in
  Vec.iteri (fun i inst -> if not inst.i_dead then acc := i :: !acc) t.insts;
  List.rev !acc

let iter_insts t f = Vec.iteri (fun i inst -> if not inst.i_dead then f i) t.insts

let iter_nets t f = Vec.iteri (fun i _ -> f i) t.nets

let fanin_insts t iid =
  let inst = Vec.get t.insts iid in
  inst.i_conns
  |> List.filter_map (fun (pin_name, nid) ->
         match pin_dir inst.i_cell pin_name with
         | Dir_in -> (
           match (Vec.get t.nets nid).driver with Some p -> Some p.inst | None -> None)
         | Dir_out | Dir_holder_z -> None)
  |> List.sort_uniq compare

let is_comb_kind kind =
  (not (Func.is_sequential kind)) && not (Func.is_infrastructure kind)

let topo_order t =
  (* Kahn levelization over the combinational frame: flip-flop outputs and
     primary inputs are sources; flip-flop inputs and primary outputs are
     sinks.  Remaining instances at the end expose a combinational cycle.
     A combinational cell's one output pin is [Z] and every other pin it
     has connected is an input ([attach] and [replace_cell] reject
     anything else), so no pin needs its direction looked up. *)
  let n = Vec.length t.insts in
  let pending = Array.make n 0 in
  let comb = Array.make n false in
  let is_live_comb inst = (not inst.i_dead) && is_comb_kind inst.i_cell.Cell.kind in
  Vec.iteri
    (fun i inst ->
      if is_live_comb inst then begin
        comb.(i) <- true;
        pending.(i) <-
          List.fold_left
            (fun acc (pin_name, nid) ->
              if String.equal pin_name "Z" then acc
              else
                match (Vec.get t.nets nid).driver with
                | Some p when is_live_comb (Vec.get t.insts p.inst) -> acc + 1
                | Some _ | None -> acc)
            0 inst.i_conns
      end)
    t.insts;
  (* FIFO over one array: [order.(0 .. tail - 1)] is the order so far *)
  let order = Array.make n 0 in
  let tail = ref 0 in
  let push i =
    order.(!tail) <- i;
    incr tail
  in
  for i = 0 to n - 1 do
    if comb.(i) && pending.(i) = 0 then push i
  done;
  let head = ref 0 in
  while !head < !tail do
    let i = order.(!head) in
    incr head;
    match List.assoc_opt "Z" (Vec.get t.insts i).i_conns with
    | None -> ()
    | Some nid ->
      List.iter
        (fun p ->
          if comb.(p.inst) then begin
            pending.(p.inst) <- pending.(p.inst) - 1;
            if pending.(p.inst) = 0 then push p.inst
          end)
        (Vec.get t.nets nid).sinks
  done;
  let total = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 comb in
  if !tail <> total then begin
    let stuck = ref "" in
    for i = 0 to n - 1 do
      if comb.(i) && pending.(i) > 0 && String.equal !stuck "" then
        stuck := (Vec.get t.insts i).i_name
    done;
    raise (Combinational_cycle !stuck)
  end;
  List.init !tail (Array.get order)

let switch_members t sw_id =
  let acc = ref [] in
  Vec.iteri
    (fun i inst -> if (not inst.i_dead) && inst.i_vgnd = Some sw_id then acc := i :: !acc)
    t.insts;
  List.rev !acc

let switches t =
  let acc = ref [] in
  Vec.iteri
    (fun i inst ->
      if (not inst.i_dead) && inst.i_cell.Cell.kind = Func.Sleep_switch then acc := i :: !acc)
    t.insts;
  List.rev !acc

let switch_groups t =
  (* One pass over the instances instead of a [switch_members] scan per
     switch: collect members keyed by their switch, then emit in the
     [switches] order with members ascending (both as [switch_members]
     reports them). *)
  let members : (inst_id, inst_id list) Hashtbl.t = Hashtbl.create 97 in
  Vec.iteri
    (fun i inst ->
      if not inst.i_dead then
        match inst.i_vgnd with
        | Some sw -> Hashtbl.replace members sw (i :: Option.value (Hashtbl.find_opt members sw) ~default:[])
        | None -> ())
    t.insts;
  List.map
    (fun sw -> (sw, List.rev (Option.value (Hashtbl.find_opt members sw) ~default:[])))
    (switches t)

let total_area t =
  Vec.fold (fun acc inst -> if inst.i_dead then acc else acc +. inst.i_cell.Cell.area) 0.0 t.insts
