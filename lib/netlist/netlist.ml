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
  mutable flags : int;  (* [pi_flag], [po_flag], [clock_flag] *)
  mutable sinks : pin list;
  mutable holder : inst_id option;
  (* journal: the netlist [version] of this net's last structural touch
     (its last touch of either kind is in [stamps]) *)
  mutable wired : int;
}

let pi_flag = 1
let po_flag = 2
let clock_flag = 4
let has n flag = n.flags land flag <> 0
let set_flag n flag = n.flags <- n.flags lor flag

type instance = {
  i_name : string;
  mutable i_cell : Cell.t;
  mutable i_conns : (string * net_id) list;
  mutable i_vgnd : inst_id option;
  mutable i_dead : bool;
  mutable i_domain : string option;
  mutable i_isolation : bool;
}

(* name indexes, compared with [String.equal] rather than [compare] *)
module Names = Hashtbl.Make (String)

type t = {
  d_name : string;
  d_lib : Library.t;
  insts : instance Vec.t;
  nets : net Vec.t;
  net_index : net_id Names.t;
  inst_index : inst_id Names.t;
  (* Newest first: ports prepend on add (O(1), not O(ports)) and the
     [inputs]/[outputs] accessors reverse into declaration order. *)
  mutable ports_in : (string * net_id) list;
  mutable ports_out : (string * net_id) list;
  mutable clock : net_id option;
  mutable uniq : int;
  (* Power-domain table, in declaration order (newest first, reversed by
     [domains]); [None] = an always-on domain with no sleep enable. *)
  mutable doms : (string * net_id option) list;
  (* Touched-net journal: every mutation bumps the version and stamps the
     nets whose standby value or load could change with it, so an
     incremental re-analysis knows where to re-seed; a structural touch
     (driver, sinks, clock or port status) stamps [wired] too.  Reading it
     ([touched_since], [rewired_since]) clears nothing: each analysis
     keeps its own version.  Each net's last touch is kept in a flat
     array indexed by net id, so [touched_since] scans ints. *)
  mutable version : int;
  mutable stamps : int array;
}

exception Combinational_cycle of string

let create ?(nets = 0) ?(insts = 0) ~name ~lib () =
  {
    d_name = name;
    d_lib = lib;
    insts = Vec.create ();
    nets = Vec.create ();
    net_index = Names.create (max 997 nets);
    inst_index = Names.create (max 997 insts);
    ports_in = [];
    ports_out = [];
    clock = None;
    uniq = 0;
    doms = [];
    version = 0;
    stamps = Array.make (max 16 nets) 0;
  }

let design_name t = t.d_name
let lib t = t.d_lib

(* --- touched-net journal --- *)

(* A value touch: what flows through the net may change, its
   connections do not. *)
let touch t nid =
  t.version <- t.version + 1;
  t.stamps.(nid) <- t.version

(* A structural touch: the net's driver, sinks, or clock or port status
   changed. *)
let rewire t nid =
  t.version <- t.version + 1;
  t.stamps.(nid) <- t.version;
  (Vec.get t.nets nid).wired <- t.version

let version t = t.version

let rewired_since t v nid = (Vec.get t.nets nid).wired > v

let touched_since t v =
  let stamps = t.stamps in
  let acc = ref [] in
  for nid = Vec.length t.nets - 1 downto 0 do
    if stamps.(nid) > v then acc := nid :: !acc
  done;
  !acc

(* --- nets --- *)

let add_net ?(clock = false) t name =
  if Names.mem t.net_index name then
    invalid_arg (Printf.sprintf "Netlist.add_net: duplicate net %s" name);
  let id =
    Vec.push t.nets
      {
        net_name = name;
        driver = None;
        flags = (if clock then clock_flag else 0);
        sinks = [];
        holder = None;
        wired = 0;
      }
  in
  if id >= Array.length t.stamps then begin
    let grown = Array.make (id + (id / 2) + 16) 0 in
    Array.blit t.stamps 0 grown 0 id;
    t.stamps <- grown
  end;
  Names.add t.net_index name id;
  if clock && t.clock = None then t.clock <- Some id;
  rewire t id;
  id

let fresh_net t stem =
  let rec try_name () =
    t.uniq <- t.uniq + 1;
    let name = stem ^ "_" ^ string_of_int t.uniq in
    if Names.mem t.net_index name then try_name () else name
  in
  add_net t (try_name ())

let add_input ?(clock = false) t name =
  let id = add_net ~clock t name in
  set_flag (Vec.get t.nets id) pi_flag;
  t.ports_in <- (name, id) :: t.ports_in;
  id

let add_output t name =
  let id = add_net t name in
  set_flag (Vec.get t.nets id) po_flag;
  t.ports_out <- (name, id) :: t.ports_out;
  id

let mark_output t nid =
  let n = Vec.get t.nets nid in
  if not (has n po_flag) then begin
    set_flag n po_flag;
    t.ports_out <- (n.net_name, nid) :: t.ports_out;
    rewire t nid
  end

let mark_clock t nid =
  set_flag (Vec.get t.nets nid) clock_flag;
  if t.clock = None then t.clock <- Some nid;
  rewire t nid

let net_count t = Vec.length t.nets
let net_name t nid = (Vec.get t.nets nid).net_name
let find_net t name = Names.find_opt t.net_index name
let is_pi t nid = has (Vec.get t.nets nid) pi_flag
let is_po t nid = has (Vec.get t.nets nid) po_flag
let is_clock_net t nid = has (Vec.get t.nets nid) clock_flag
let driver t nid = (Vec.get t.nets nid).driver
let sinks t nid = (Vec.get t.nets nid).sinks
let holder_of t nid = (Vec.get t.nets nid).holder
let inputs t = List.rev t.ports_in
let outputs t = List.rev t.ports_out
let clock_net t = t.clock

(* --- pin directions --- *)

type dir = Dir_in | Dir_out | Dir_holder_z

let rec mem_name names name i =
  i < Array.length names && (String.equal names.(i) name || mem_name names name (i + 1))

let pin_dir (cell : Cell.t) pin_name =
  if mem_name (Func.output_names cell.Cell.kind) pin_name 0 then Dir_out
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
      if mem_name (Func.input_names k) pin_name 0 then Dir_in
      else
        invalid_arg
          (Printf.sprintf "Netlist: cell %s has no pin %s" cell.Cell.name pin_name)

(* --- instances --- *)

let inst_count t = Vec.length t.insts
let inst_name t iid = (Vec.get t.insts iid).i_name
let find_inst t name = Names.find_opt t.inst_index name
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

let rec index_of names name i =
  if i = Array.length names then -1
  else if String.equal names.(i) name then i
  else index_of names name (i + 1)

(* Pin names in a connection list are distinct, so one walk finds each. *)
let rec read_conns row names out_name out = function
  | [] -> out
  | (pin_name, nid) :: rest ->
    if String.equal pin_name out_name then read_conns row names out_name nid rest
    else begin
      let j = index_of names pin_name 0 in
      if j >= 0 then row.(j) <- nid;
      read_conns row names out_name out rest
    end

let read_pins t iid row =
  let inst = Vec.get t.insts iid in
  let kind = inst.i_cell.Cell.kind in
  let out_name = match Func.output_names kind with [||] -> "" | outs -> outs.(0) in
  read_conns row (Func.input_names kind) out_name (-1) inst.i_conns

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
      if has n pi_flag then
        invalid_arg (Printf.sprintf "Netlist: net %s is a primary input" n.net_name);
      n.driver <- Some { inst = iid; pin_name };
      rewire t nid)
  | Dir_in ->
    n.sinks <- { inst = iid; pin_name } :: n.sinks;
    rewire t nid
  | Dir_holder_z ->
    (* a keeper adds load, not a driver or a sink *)
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
      rewire t nid
    | Some _ | None -> ())
  | Dir_in ->
    n.sinks <-
      List.filter (fun p -> not (p.inst = iid && String.equal p.pin_name pin_name)) n.sinks;
    rewire t nid
  | Dir_holder_z ->
    (* the keeper leaves the wire even when the record names another *)
    if n.holder = Some iid then n.holder <- None;
    touch t nid

(* Is [pin_name] a pin of [pins] before the cell [stop]? *)
let rec pin_before pins stop pin_name =
  pins != stop
  &&
  match pins with
  | (p, _) :: rest -> String.equal p pin_name || pin_before rest stop pin_name
  | [] -> false

(* Attaches [here], the pins of [inst] from the [attached]-th on; a
   refused pin leaves [inst] with the pins attached before it. *)
let rec attach_from t iid inst attached here =
  match here with
  | [] -> ()
  | (pin_name, nid) :: rest -> (
    match
      if pin_before inst.i_conns here pin_name then
        invalid_arg (Printf.sprintf "Netlist: duplicate pin %s on %s" pin_name inst.i_name);
      attach t iid pin_name nid
    with
    | () -> attach_from t iid inst (attached + 1) rest
    | exception e ->
      inst.i_conns <- List.filteri (fun i _ -> i < attached) inst.i_conns;
      raise e)

let add_inst t ~name cell pins =
  if Names.mem t.inst_index name then
    invalid_arg (Printf.sprintf "Netlist.add_inst: duplicate instance %s" name);
  (* [i_conns] is [pins] itself *)
  let inst =
    {
      i_name = name;
      i_cell = cell;
      i_conns = pins;
      i_vgnd = None;
      i_dead = false;
      i_domain = None;
      i_isolation = false;
    }
  in
  let iid = Vec.push t.insts inst in
  Names.add t.inst_index name iid;
  attach_from t iid inst 0 pins;
  iid

let fresh_inst_name t stem =
  let rec try_name () =
    t.uniq <- t.uniq + 1;
    let name = stem ^ "_" ^ string_of_int t.uniq in
    if Names.mem t.inst_index name then try_name () else name
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
  let same_kind = inst.i_cell.Cell.kind = new_cell.Cell.kind in
  inst.i_cell <- new_cell;
  (* a style/strength swap can change the standby supply of every pin net;
     a swap within the kind keeps every pin's direction, so only a change
     of kind is structural *)
  List.iter (fun (_, nid) -> if same_kind then touch t nid else rewire t nid) inst.i_conns

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
    Names.remove t.inst_index inst.i_name
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

let fold_fanin_drivers t iid f acc =
  let inst = Vec.get t.insts iid in
  let rec fold acc = function
    | [] -> acc
    | (pin_name, nid) :: rest -> (
      match pin_dir inst.i_cell pin_name with
      | Dir_in -> (
        match (Vec.get t.nets nid).driver with
        | Some p -> fold (f acc p.inst) rest
        | None -> fold acc rest)
      | Dir_out | Dir_holder_z -> fold acc rest)
  in
  fold acc inst.i_conns

let fanin_insts t iid = List.sort_uniq compare (fold_fanin_drivers t iid (fun acc d -> d :: acc) [])

let is_comb_kind kind =
  (not (Func.is_sequential kind)) && not (Func.is_infrastructure kind)

let topo_order t =
  (* Kahn levelization over the combinational frame: flip-flop outputs and
     primary inputs are sources; flip-flop inputs and primary outputs are
     sinks.  Instances left pending at the end expose a combinational
     cycle.  The edges are read off the nets in id order: one runs from a
     net's live combinational driver to each live combinational sink pin
     (a combinational cell's one output pin is [Z] and every other pin it
     has connected is a sink, so no pin needs its direction looked up). *)
  let n = Vec.length t.insts in
  let comb = Bytes.make n '\000' in
  let total = ref 0 in
  Vec.iteri
    (fun i inst ->
      if (not inst.i_dead) && is_comb_kind inst.i_cell.Cell.kind then begin
        Bytes.set comb i '\001';
        incr total
      end)
    t.insts;
  let is_comb i = Bytes.get comb i <> '\000' in
  let rec sink_edges f d = function
    | [] -> ()
    | s :: rest ->
      if is_comb s.inst then f d s.inst;
      sink_edges f d rest
  in
  let iter_edges f =
    Vec.iter
      (fun net ->
        match net.driver with
        | Some d when is_comb d.inst -> sink_edges f d.inst net.sinks
        | Some _ | None -> ())
      t.nets
  in
  (* Each gate's fanins not yet visited, one byte each: a combinational
     cell has at most five input pins (four data inputs and an embedded
     MT-cell's MTE).  Its fanout is a CSR row in sink-list order:
     [start.(d + 2)] counts [d]'s edges, the prefix sums turn
     [start.(d + 1)] into where its row begins, and filling advances it to
     where the row ends, so the row is [fanout.(start.(d)) ..
     fanout.(start.(d + 1) - 1)]. *)
  let pending = Bytes.make n '\000' and start = Array.make (n + 2) 0 in
  let pending_of i = Bytes.get_uint8 pending i in
  iter_edges (fun d s ->
      Bytes.set_uint8 pending s (pending_of s + 1);
      start.(d + 2) <- start.(d + 2) + 1);
  for i = 2 to n + 1 do
    start.(i) <- start.(i) + start.(i - 1)
  done;
  let fanout = Array.make start.(n + 1) 0 in
  iter_edges (fun d s ->
      fanout.(start.(d + 1)) <- s;
      start.(d + 1) <- start.(d + 1) + 1);
  (* FIFO over the result: [order.(0 .. tail - 1)] is the order so far *)
  let order = Array.make !total 0 in
  let tail = ref 0 in
  let push i =
    order.(!tail) <- i;
    incr tail
  in
  for i = 0 to n - 1 do
    if is_comb i && pending_of i = 0 then push i
  done;
  let head = ref 0 in
  while !head < !tail do
    let d = order.(!head) in
    incr head;
    for e = start.(d) to start.(d + 1) - 1 do
      let s = fanout.(e) in
      Bytes.set_uint8 pending s (pending_of s - 1);
      if pending_of s = 0 then push s
    done
  done;
  if !tail < !total then begin
    let rec first_stuck i = if is_comb i && pending_of i > 0 then i else first_stuck (i + 1) in
    raise (Combinational_cycle (Vec.get t.insts (first_stuck 0)).i_name)
  end;
  order

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
