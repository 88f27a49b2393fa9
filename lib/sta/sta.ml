module Netlist = Smt_netlist.Netlist
module Cell = Smt_cell.Cell
module Func = Smt_cell.Func
module Nldm = Smt_cell.Nldm
module Metrics = Smt_obs.Metrics

let m_analyses = Metrics.counter "sta.analyses"
let m_incremental = Metrics.counter "sta.incremental_updates"
let m_arrival_evals = Metrics.counter "sta.arrival_evals"

(* Arrival evaluations per incremental update: the cost distribution of
   [update] calls, deterministic where wall-clock is not.  Buckets span
   one touched gate to full-netlist recompute territory. *)
let m_update_evals =
  Metrics.histogram
    ~buckets:[ 1.0; 3.0; 10.0; 30.0; 100.0; 300.0; 1000.0; 3000.0; 10000.0; 30000.0 ]
    "sta.update_evals"

type config = {
  clock_period : float;
  wire : Wire.t;
  bounce_of : Netlist.inst_id -> float;
  clock_latency : Netlist.inst_id -> float;
  input_arrival : float;
  output_margin : float;
  hold_margin : float;
  slew_model : Nldm.store option;
}

let config ?(wire = Wire.zero) ?(slew_aware = false) ~clock_period () =
  {
    clock_period;
    wire;
    bounce_of = (fun _ -> 0.0);
    clock_latency = (fun _ -> 0.0);
    input_arrival = 0.0;
    output_margin = 0.0;
    hold_margin = 0.0;
    slew_model = (if slew_aware then Some (Nldm.store ()) else None);
  }

type endpoint_kind = Ff_data of Netlist.inst_id | Primary_output of string

type endpoint = {
  kind : endpoint_kind;
  net : Netlist.net_id;
  arrival : float;
  required : float;
  slack : float;
  hold_slack : float;
}

(* A timing session: the netlist's timing graph compiled into flat
   arrays, and the values propagated over it.  Arrays indexed by net or
   instance id can be longer than [n_nets] / [n_insts]: they grow with
   headroom as [update] and [reanalyze] follow a growing netlist. *)
type t = {
  mutable cfg : config;
  nl : Netlist.t;
  tech : Smt_cell.Tech.t;
  mutable version : int;  (* the netlist journal version these arrays reflect *)
  mutable n_nets : int;
  mutable n_insts : int;
  (* per net *)
  mutable loads : float array;  (* capacitive load seen by the driver *)
  mutable at_max : float array;  (* at driver output *)
  mutable at_min : float array;
  mutable at_slew : float array;  (* output slew at the driver *)
  mutable rat : float array;  (* setup-based required *)
  mutable from_net : int array;  (* worst predecessor net, -1 if source *)
  mutable via_inst : int array;  (* the gate or flip-flop that timed the net, -1 at sources *)
  mutable readers : int array;  (* data-pin slots on the net *)
  mutable net_mark : Bytes.t;  (* scratch: [touched] / [retimed], zero between calls *)
  (* per instance *)
  mutable inst_delay : float array;  (* the delay forward used *)
  mutable out : int array;  (* timed output net: Z (-1 on a clock net) or Q; -1 if none *)
  mutable row : int array;  (* data-pin slots of instance i: row.(i) .. row.(i + 1) - 1 *)
  mutable inst_mark : Bytes.t;  (* scratch: [checked] / [seeded], zero between calls *)
  (* the combinational instances, fanin first *)
  mutable order : int array;
  mutable n_order : int;
  (* data-pin slots: each connected data input, in [Func.input_names]
     order per instance *)
  mutable slot_net : int array;
  mutable slot_wire : float array;  (* wire delay from the net's driver to the pin *)
  mutable n_slots : int;
  (* the flip-flops, ascending id (one removed since the last compile
     keeps its slot, inert: it has no D and no Q) *)
  mutable ffs : int array;
  mutable ff_d : int array;  (* D net, -1 if unconnected *)
  mutable ff_wire : float array;  (* wire delay into D *)
  mutable ff_slack : float array;  (* setup slack at D, infinity if unconnected *)
  mutable n_ffs : int;
  mutable eps : endpoint list;
  pin_nets : int array;  (* scratch for [read_pins], one entry per data input *)
}

let netlist t = t.nl

let po_pin_cap = 4.0

let load_of_net cfg nl nid =
  let pin_caps =
    List.fold_left
      (fun acc (p : Netlist.pin) -> acc +. (Netlist.cell nl p.Netlist.inst).Cell.input_cap)
      0.0 (Netlist.sinks nl nid)
  in
  let holder_cap =
    match Netlist.holder_of nl nid with
    | Some h -> (Netlist.cell nl h).Cell.input_cap
    | None -> 0.0
  in
  let po_cap = if Netlist.is_po nl nid then po_pin_cap else 0.0 in
  pin_caps +. holder_cap +. po_cap +. cfg.wire.Wire.net_cap nid

let load_of_inst cfg nl iid =
  match Netlist.output_net nl iid with
  | Some out -> load_of_net cfg nl out
  | None -> 0.0

let cell_delay cfg nl iid =
  Cell.delay_with_bounce
    (Smt_cell.Library.tech (Netlist.lib nl))
    (Netlist.cell nl iid) ~load_ff:(load_of_inst cfg nl iid) ~bounce_v:(cfg.bounce_of iid)

(* --- scratch marks --- *)

let touched = 1 (* net: stamped since [t.version] *)
let retimed = 2 (* net: its arrival was recomputed by this update *)
let checked = 1 (* instance: re-read by this update *)
let seeded = 2 (* instance: drives a touched net *)

let marked b i bit = Char.code (Bytes.get b i) land bit <> 0
let mark b i bit = Bytes.set b i (Char.unsafe_chr (Char.code (Bytes.get b i) lor bit))

(* --- growth --- *)

(* [a] with room for [n] entries: the first [len] kept, the rest [fill].
   Grows by half again, so a netlist growing edit by edit reallocates
   rarely. *)
let grow a ~len n fill =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (Array.length a + (Array.length a / 2) + 16)) fill in
    Array.blit a 0 b 0 len;
    b
  end

let grow_bytes b n =
  if n <= Bytes.length b then b
  else begin
    let c = Bytes.make (max n (Bytes.length b + (Bytes.length b / 2) + 16)) '\000' in
    Bytes.blit b 0 c 0 (Bytes.length b);
    c
  end

let grow_nets t n =
  if n > t.n_nets then begin
    let len = t.n_nets in
    t.loads <- grow t.loads ~len n 0.0;
    t.at_max <- grow t.at_max ~len n neg_infinity;
    t.at_min <- grow t.at_min ~len n infinity;
    t.at_slew <- grow t.at_slew ~len n 0.0;
    t.rat <- grow t.rat ~len n infinity;
    t.from_net <- grow t.from_net ~len n (-1);
    t.via_inst <- grow t.via_inst ~len n (-1);
    t.readers <- grow t.readers ~len n 0;
    t.net_mark <- grow_bytes t.net_mark n;
    t.n_nets <- n
  end

let grow_insts t n =
  if n > t.n_insts then begin
    let len = t.n_insts in
    t.inst_delay <- grow t.inst_delay ~len n 0.0;
    t.out <- grow t.out ~len n (-1);
    t.row <- grow t.row ~len:(len + 1) (n + 1) 0;
    t.inst_mark <- grow_bytes t.inst_mark n;
    t.n_insts <- n
  end

(* --- compiling instances --- *)

let is_comb (c : Cell.t) =
  (not (Func.is_sequential c.Cell.kind)) && not (Func.is_infrastructure c.Cell.kind)

let max_inputs =
  List.fold_left (fun m k -> max m (Array.length (Func.input_names k))) 0 Func.all

let rec index_of names name i =
  if i = Array.length names then -1
  else if String.equal names.(i) name then i
  else index_of names name (i + 1)

(* Reads a combinational gate's or flip-flop's pins in one walk over its
   connection list.  Returns the net its timing writes: a flip-flop's Q,
   or a combinational output unless it is a clock net (which stays a
   clock source); -1 if none.  Leaves in [t.pin_nets.(j)] the net on its
   [j]th [Func.input_names] pin, -1 if unconnected (a flip-flop's one
   input is D). *)
let read_pins t iid (c : Cell.t) =
  let nl = t.nl and kind = c.Cell.kind in
  Array.fill t.pin_nets 0 max_inputs (-1);
  let out = Netlist.read_pins nl iid t.pin_nets in
  if out >= 0 && (Func.is_sequential kind || not (Netlist.is_clock_net nl out)) then out else -1

let pin_wire t iid nid pin_name = t.cfg.wire.Wire.net_delay nid { Netlist.inst = iid; pin_name }

let push_slot t iid nid pin_name =
  let k = t.n_slots in
  t.slot_net <- grow t.slot_net ~len:k (k + 1) 0;
  t.slot_wire <- grow t.slot_wire ~len:k (k + 1) 0.0;
  t.slot_net.(k) <- nid;
  t.slot_wire.(k) <- pin_wire t iid nid pin_name;
  t.readers.(nid) <- t.readers.(nid) + 1;
  t.n_slots <- k + 1

let push_ff t iid d =
  let k = t.n_ffs in
  t.ffs <- grow t.ffs ~len:k (k + 1) 0;
  t.ff_d <- grow t.ff_d ~len:k (k + 1) (-1);
  t.ff_wire <- grow t.ff_wire ~len:k (k + 1) 0.0;
  t.ff_slack <- grow t.ff_slack ~len:k (k + 1) infinity;
  t.ffs.(k) <- iid;
  t.ff_d.(k) <- d;
  if d >= 0 then t.ff_wire.(k) <- pin_wire t iid d "D";
  t.n_ffs <- k + 1

(* Compiles instance [iid], the next id after those compiled: its timed
   output, its data-pin row if combinational, its D slot if a flip-flop.
   The caller places a combinational instance in [order]. *)
let add_inst t iid =
  let nl = t.nl in
  if not (Netlist.is_dead nl iid) then begin
    let c = Netlist.cell nl iid in
    if Func.is_sequential c.Cell.kind then begin
      t.out.(iid) <- read_pins t iid c;
      push_ff t iid t.pin_nets.(0)
    end
    else if is_comb c then begin
      t.out.(iid) <- read_pins t iid c;
      let ins = Func.input_names c.Cell.kind in
      for j = 0 to Array.length ins - 1 do
        if t.pin_nets.(j) >= 0 then push_slot t iid t.pin_nets.(j) ins.(j)
      done
    end
  end;
  t.row.(iid + 1) <- t.n_slots

let push_order t iid =
  let k = t.n_order in
  t.order <- grow t.order ~len:k (k + 1) 0;
  t.order.(k) <- iid;
  t.n_order <- k + 1

(* --- propagation --- *)

(* The analysis-start state of a net: clock nets at 0, primary inputs at
   [input_arrival], anything else unreached until its driver is timed. *)
let reset_net t nid =
  let nl = t.nl in
  t.from_net.(nid) <- -1;
  t.via_inst.(nid) <- -1;
  if Netlist.is_clock_net nl nid || Netlist.is_pi nl nid then begin
    let a = if Netlist.is_clock_net nl nid then 0.0 else t.cfg.input_arrival in
    t.at_max.(nid) <- a;
    t.at_min.(nid) <- a;
    t.at_slew.(nid) <- Nldm.default_input_slew
  end
  else begin
    t.at_max.(nid) <- neg_infinity;
    t.at_min.(nid) <- infinity;
    t.at_slew.(nid) <- 0.0
  end

(* Gate delay under the configured model at the given worst input slew,
   the VGND bounce derate included; writes the output slew of [out]. *)
let gate_delay t iid out ~in_slew =
  let cell = Netlist.cell t.nl iid in
  let load = t.loads.(out) in
  let derate =
    if Cell.is_mt cell then Cell.bounce_derate t.tech ~bounce_v:(t.cfg.bounce_of iid) else 1.0
  in
  match t.cfg.slew_model with
  | None ->
    t.at_slew.(out) <- Nldm.default_input_slew;
    Cell.delay cell ~load_ff:load *. derate
  | Some store ->
    let arcs = Nldm.arcs_of store cell in
    t.at_slew.(out) <- Nldm.lookup arcs.Nldm.out_slew ~slew:in_slew ~load;
    Nldm.lookup arcs.Nldm.delay ~slew:in_slew ~load *. derate

(* A flip-flop launches Q from its clock pin. *)
let time_ff t ff q =
  let d = gate_delay t ff q ~in_slew:Nldm.default_input_slew in
  let lat = t.cfg.clock_latency ff in
  t.inst_delay.(ff) <- d;
  t.at_max.(q) <- lat +. d;
  t.at_min.(q) <- lat +. (Netlist.cell t.nl ff).Cell.intrinsic_delay;
  t.via_inst.(q) <- ff

(* A combinational gate from its data pins: worst (first-max) and
   earliest arrival plus wire, and the worst input slew. *)
let time_gate t g out =
  let input_arrival = t.cfg.input_arrival in
  let worst = ref neg_infinity and worst_src = ref (-1) in
  let earliest = ref infinity in
  let worst_slew = ref 0.0 in
  for s = t.row.(g) to t.row.(g + 1) - 1 do
    let nid = t.slot_net.(s) and w = t.slot_wire.(s) in
    let a = (if t.at_max.(nid) = neg_infinity then input_arrival else t.at_max.(nid)) +. w in
    if a > !worst then begin
      worst := a;
      worst_src := nid
    end;
    let sl = if t.at_slew.(nid) > 0.0 then t.at_slew.(nid) else Nldm.default_input_slew in
    if sl > !worst_slew then worst_slew := sl;
    let e = (if t.at_min.(nid) = infinity then input_arrival else t.at_min.(nid)) +. w in
    if e < !earliest then earliest := e
  done;
  let in_slew = if !worst_slew > 0.0 then !worst_slew else Nldm.default_input_slew in
  let d = gate_delay t g out ~in_slew in
  let base_max = if !worst = neg_infinity then input_arrival else !worst in
  let base_min = if !earliest = infinity then input_arrival else !earliest in
  t.inst_delay.(g) <- d;
  t.at_max.(out) <- base_max +. d;
  t.at_min.(out) <- base_min +. (Netlist.cell t.nl g).Cell.intrinsic_delay;
  t.from_net.(out) <- !worst_src;
  t.via_inst.(out) <- g

let rec reads_retimed t s stop =
  s < stop && (marked t.net_mark t.slot_net.(s) retimed || reads_retimed t (s + 1) stop)

(* Times the combinational frame in order: every gate with [all], else
   the cone of the seeded gates (a gate is retimed when seeded or when a
   data pin reads a retimed net).  Returns the gates timed. *)
let forward t ~all =
  let timed = ref 0 in
  for k = 0 to t.n_order - 1 do
    let g = t.order.(k) in
    let out = t.out.(g) in
    if out >= 0
       && (all || marked t.inst_mark g seeded || reads_retimed t t.row.(g) t.row.(g + 1))
    then begin
      time_gate t g out;
      incr timed;
      if not all then mark t.net_mark out retimed
    end
  done;
  !timed

(* Endpoint list plus seed of the required-time array; [ff_slack]
   collects each flip-flop's D-endpoint slack for [inst_slack]. *)
let time_endpoints t =
  let cfg = t.cfg and nl = t.nl in
  Array.fill t.rat 0 t.n_nets infinity;
  Array.fill t.ff_slack 0 t.n_ffs infinity;
  let eps = ref [] in
  for k = 0 to t.n_ffs - 1 do
    let ff = t.ffs.(k) and d_net = t.ff_d.(k) in
    if d_net >= 0 then begin
      let cell = Netlist.cell nl ff and w = t.ff_wire.(k) in
      let a =
        (if t.at_max.(d_net) = neg_infinity then cfg.input_arrival else t.at_max.(d_net)) +. w
      in
      let a_min =
        (if t.at_min.(d_net) = infinity then cfg.input_arrival else t.at_min.(d_net)) +. w
      in
      let lat = cfg.clock_latency ff in
      let req = cfg.clock_period +. lat -. cell.Cell.setup in
      let hold_slack = a_min -. (lat +. cell.Cell.hold +. cfg.hold_margin) in
      let slack = req -. a in
      t.rat.(d_net) <- Float.min t.rat.(d_net) (req -. w);
      t.ff_slack.(k) <- slack;
      eps := { kind = Ff_data ff; net = d_net; arrival = a; required = req; slack; hold_slack }
             :: !eps
    end
  done;
  List.iter
    (fun (name, nid) ->
      if not (Netlist.is_clock_net nl nid) then begin
        let a = if t.at_max.(nid) = neg_infinity then cfg.input_arrival else t.at_max.(nid) in
        let req = cfg.clock_period -. cfg.output_margin in
        t.rat.(nid) <- Float.min t.rat.(nid) req;
        eps :=
          {
            kind = Primary_output name;
            net = nid;
            arrival = a;
            required = req;
            slack = req -. a;
            hold_slack = infinity;
          }
          :: !eps
      end)
    (Netlist.outputs nl);
  t.eps <- List.rev !eps

let backward t =
  for k = t.n_order - 1 downto 0 do
    let g = t.order.(k) in
    let out = t.out.(g) in
    if out >= 0 then begin
      let r = t.rat.(out) -. t.inst_delay.(g) in
      for s = t.row.(g) to t.row.(g + 1) - 1 do
        let nid = t.slot_net.(s) in
        t.rat.(nid) <- Float.min t.rat.(nid) (r -. t.slot_wire.(s))
      done
    end
  done

(* Times the compiled graph from scratch under [t.cfg]: every net from
   its analysis-start state, every flip-flop launched, every gate in
   order, then the endpoints and the required times. *)
let time_all t =
  for nid = 0 to t.n_nets - 1 do
    reset_net t nid
  done;
  let evals = ref 0 in
  for k = 0 to t.n_ffs - 1 do
    let ff = t.ffs.(k) in
    if t.out.(ff) >= 0 then begin
      time_ff t ff t.out.(ff);
      incr evals
    end
  done;
  evals := !evals + forward t ~all:true;
  Metrics.incr ~by:!evals m_arrival_evals;
  time_endpoints t;
  backward t

(* Compiles the whole netlist into [t] and times it from scratch.  Until
   it completes, [t.version] is -1: a session whose recompile raised has
   nothing left to extend. *)
let compile t =
  Metrics.incr m_analyses;
  let nl = t.nl in
  t.version <- -1;
  let order = Netlist.topo_order nl in
  let nnets = Netlist.net_count nl and ninsts = Netlist.inst_count nl in
  let max_slots = ref 0 and n_ffs = ref 0 in
  Array.iter
    (fun iid ->
      max_slots := !max_slots + Array.length (Func.input_names (Netlist.cell nl iid).Cell.kind))
    order;
  Netlist.iter_insts nl (fun iid ->
      if Func.is_sequential (Netlist.cell nl iid).Cell.kind then incr n_ffs);
  t.n_nets <- nnets;
  t.n_insts <- ninsts;
  t.loads <- Array.init nnets (load_of_net t.cfg nl);
  t.at_max <- Array.make nnets neg_infinity;
  t.at_min <- Array.make nnets infinity;
  t.at_slew <- Array.make nnets 0.0;
  t.rat <- Array.make nnets infinity;
  t.from_net <- Array.make nnets (-1);
  t.via_inst <- Array.make nnets (-1);
  t.readers <- Array.make nnets 0;
  t.net_mark <- Bytes.make nnets '\000';
  t.inst_delay <- Array.make ninsts 0.0;
  t.out <- Array.make ninsts (-1);
  t.row <- Array.make (ninsts + 1) 0;
  t.inst_mark <- Bytes.make ninsts '\000';
  t.order <- order;
  t.n_order <- Array.length order;
  t.slot_net <- Array.make !max_slots 0;
  t.slot_wire <- Array.make !max_slots 0.0;
  t.n_slots <- 0;
  t.ffs <- Array.make !n_ffs 0;
  t.ff_d <- Array.make !n_ffs (-1);
  t.ff_wire <- Array.make !n_ffs 0.0;
  t.ff_slack <- Array.make !n_ffs infinity;
  t.n_ffs <- 0;
  for iid = 0 to ninsts - 1 do
    add_inst t iid
  done;
  time_all t;
  t.version <- Netlist.version nl

let analyze cfg nl =
  let t =
    {
      cfg;
      nl;
      tech = Smt_cell.Library.tech (Netlist.lib nl);
      version = 0;
      n_nets = 0;
      n_insts = 0;
      loads = [||];
      at_max = [||];
      at_min = [||];
      at_slew = [||];
      rat = [||];
      from_net = [||];
      via_inst = [||];
      readers = [||];
      net_mark = Bytes.empty;
      inst_delay = [||];
      out = [||];
      row = [||];
      inst_mark = Bytes.empty;
      order = [||];
      n_order = 0;
      slot_net = [||];
      slot_wire = [||];
      n_slots = 0;
      ffs = [||];
      ff_d = [||];
      ff_wire = [||];
      ff_slack = [||];
      n_ffs = 0;
      eps = [];
      pin_nets = Array.make max_inputs (-1);
    }
  in
  compile t;
  t

(* --- incremental update --- *)

exception Stale

(* Re-reads an old instance: its timed output must be the compiled one
   (a removed instance has none), and a combinational gate's data-pin
   nets must be its compiled row; the wire delays of its pins on touched
   nets are refreshed. *)
let recheck t g =
  if not (marked t.inst_mark g checked) then begin
    mark t.inst_mark g checked;
    let c = Netlist.cell t.nl g in
    if not (Func.is_sequential c.Cell.kind || is_comb c) then begin
      if t.out.(g) >= 0 then raise_notrace Stale
    end
    else begin
      if read_pins t g c <> t.out.(g) then raise_notrace Stale;
      if is_comb c then begin
        let ins = Func.input_names c.Cell.kind in
        let s = ref t.row.(g) and stop = t.row.(g + 1) in
        for j = 0 to Array.length ins - 1 do
          let nid = t.pin_nets.(j) in
          if nid >= 0 then begin
            if !s >= stop || t.slot_net.(!s) <> nid then raise_notrace Stale;
            if marked t.net_mark nid touched then t.slot_wire.(!s) <- pin_wire t g nid ins.(j);
            incr s
          end
        done;
        if !s <> stop then raise_notrace Stale
      end
    end
  end

(* Brings the compiled graph up to the netlist when the edits since
   [t.version] keep it valid (the splice rule in sta.mli); raises
   [Stale] when one breaks it.  [ninsts0] and [nnets0] are the sizes the
   graph was compiled for. *)
let extend t ~ninsts0 ~nnets0 touched_nets =
  let nl = t.nl in
  (* New instances append in id order.  A new gate reads nets driven
     before it and drives a new net, so the order stays topological. *)
  for iid = ninsts0 to Netlist.inst_count nl - 1 do
    if not (Netlist.is_dead nl iid) then begin
      (match Netlist.output_net nl iid with
      | Some o when o < nnets0 -> raise_notrace Stale
      | Some _ | None -> ());
      let c = Netlist.cell nl iid in
      if is_comb c then begin
        Array.iter
          (fun pin_name ->
            match Netlist.pin_net nl iid pin_name with
            | Some nid -> (
              match Netlist.driver nl nid with
              | Some p when p.Netlist.inst >= iid -> raise_notrace Stale
              | Some _ | None -> ())
            | None -> ())
          (Func.input_names c.Cell.kind);
        push_order t iid
      end
    end;
    add_inst t iid
  done;
  (* Old instances on a touched net re-read their pins: the net's
     compiled driver and its driver now, and its data-pin readers, which
     must be exactly its compiled slots.  A gate driving the net into a
     gate's other input (an embedded MT-cell's MTE) orders the
     levelization without being timed, so the edit could close a cycle
     only [Netlist.topo_order] sees: that recompiles too. *)
  List.iter
    (fun nid ->
      if t.via_inst.(nid) >= 0 then recheck t t.via_inst.(nid);
      let comb_driver =
        match Netlist.driver nl nid with
        | Some p ->
          if p.Netlist.inst < ninsts0 then recheck t p.Netlist.inst;
          is_comb (Netlist.cell nl p.Netlist.inst)
        | None -> false
      in
      let readers = ref 0 in
      List.iter
        (fun (p : Netlist.pin) ->
          let c = Netlist.cell nl p.Netlist.inst in
          if is_comb c then
            if index_of (Func.input_names c.Cell.kind) p.Netlist.pin_name 0 >= 0 then begin
              incr readers;
              if p.Netlist.inst < ninsts0 then recheck t p.Netlist.inst
            end
            else if comb_driver then raise_notrace Stale)
        (Netlist.sinks nl nid);
      if !readers <> t.readers.(nid) then raise_notrace Stale)
    touched_nets;
  (* Flip-flops re-read D. *)
  for k = 0 to t.n_ffs - 1 do
    let ff = t.ffs.(k) in
    match Netlist.pin_net nl ff "D" with
    | Some d ->
      if d <> t.ff_d.(k) || marked t.net_mark d touched then t.ff_wire.(k) <- pin_wire t ff d "D";
      t.ff_d.(k) <- d
    | None -> t.ff_d.(k) <- -1
  done

let clear_marks t =
  Bytes.fill t.net_mark 0 t.n_nets '\000';
  Bytes.fill t.inst_mark 0 t.n_insts '\000'

(* The journal step of [update] and [reanalyze]: reads the nets touched
   since [t.version], grows the arrays for the new nets and instances,
   and extends the compiled graph over the edits when they keep it valid
   (re-folding the touched nets' loads), else recompiles, which times it.
   Returns the touched nets, still marked [touched], when the graph was
   extended; [None] when it was recompiled. *)
let sync t =
  let nl = t.nl in
  let ninsts0 = t.n_insts and nnets0 = t.n_nets in
  let touched_nets = Netlist.touched_since nl t.version in
  grow_nets t (Netlist.net_count nl);
  grow_insts t (Netlist.inst_count nl);
  List.iter (fun nid -> mark t.net_mark nid touched) touched_nets;
  let extended =
    t.version >= 0
    && match extend t ~ninsts0 ~nnets0 touched_nets with () -> true | exception Stale -> false
  in
  if extended then begin
    t.version <- Netlist.version nl;
    List.iter (fun nid -> t.loads.(nid) <- load_of_net t.cfg nl nid) touched_nets;
    Some touched_nets
  end
  else begin
    compile t;
    None
  end

(* Re-times the cone of the touched nets' drivers over the extended
   graph.  Returns the arrival evaluations. *)
let retime t touched_nets =
  let nl = t.nl in
  let evals = ref 0 in
  List.iter
    (fun nid ->
      let a = t.at_max.(nid) and e = t.at_min.(nid) and s = t.at_slew.(nid) in
      reset_net t nid;
      (* a driverless net that became a clock net reads differently *)
      if not (Float.equal a t.at_max.(nid) && Float.equal e t.at_min.(nid)
              && Float.equal s t.at_slew.(nid))
      then mark t.net_mark nid retimed)
    touched_nets;
  List.iter
    (fun nid ->
      match Netlist.driver nl nid with
      | Some p ->
        let d = p.Netlist.inst in
        if Func.is_sequential (Netlist.cell nl d).Cell.kind then begin
          time_ff t d nid;
          incr evals;
          mark t.net_mark nid retimed
        end
        else mark t.inst_mark d seeded
      | None -> ())
    touched_nets;
  !evals + forward t ~all:false

let update t =
  match sync t with
  | None -> ()
  | Some touched_nets ->
    Metrics.incr m_incremental;
    let evals = retime t touched_nets in
    clear_marks t;
    Metrics.incr ~by:evals m_arrival_evals;
    Metrics.observe m_update_evals (float_of_int evals);
    time_endpoints t;
    backward t

(* A wire model is kept only when it is the session's own: two models
   cannot be compared, and the slot wire delays and loads came from it. *)
let reanalyze t cfg =
  let rewired = cfg.wire != t.cfg.wire in
  t.cfg <- cfg;
  if rewired then compile t
  else
    match sync t with
    | None -> ()
    | Some _ ->
      clear_marks t;
      Metrics.incr m_analyses;
      time_all t

let arrival t nid = if t.at_max.(nid) = neg_infinity then t.cfg.input_arrival else t.at_max.(nid)

let slew t nid =
  if t.at_slew.(nid) > 0.0 then t.at_slew.(nid) else Nldm.default_input_slew

let used_delay t iid =
  if iid >= 0 && iid < t.n_insts then t.inst_delay.(iid) else 0.0
let required t nid = t.rat.(nid)

let net_slack t nid =
  if t.rat.(nid) = infinity then infinity else t.rat.(nid) -. arrival t nid

(* The slot of flip-flop [iid] in the ascending [t.ffs], -1 if none. *)
let ff_slot t iid =
  let rec find lo hi =
    if lo >= hi then -1
    else
      let m = (lo + hi) / 2 in
      if t.ffs.(m) = iid then m else if t.ffs.(m) < iid then find (m + 1) hi else find lo m
  in
  find 0 t.n_ffs

let inst_slack t iid =
  let cell = Netlist.cell t.nl iid in
  if cell.Cell.kind = Func.Dff then begin
    let q_slack =
      match Netlist.pin_net t.nl iid "Q" with Some q -> net_slack t q | None -> infinity
    in
    let k = ff_slot t iid in
    Float.min (if k >= 0 then t.ff_slack.(k) else infinity) q_slack
  end
  else
    match Netlist.output_net t.nl iid with
    | Some out -> net_slack t out
    | None -> infinity

let endpoints t = t.eps

let wns t =
  List.fold_left (fun acc ep -> Float.min acc ep.slack) infinity t.eps

let tns t =
  List.fold_left (fun acc ep -> acc +. Float.min 0.0 ep.slack) 0.0 t.eps

let worst_hold_slack t =
  List.fold_left (fun acc ep -> Float.min acc ep.hold_slack) infinity t.eps

let meets_timing t = wns t >= 0.0
let meets_hold t = worst_hold_slack t >= 0.0

type path_step = {
  step_inst : Netlist.inst_id option;
  step_net : Netlist.net_id;
  step_arrival : float;
}

let path_to t ep =
  let rec backtrace nid acc =
    let inst = if t.via_inst.(nid) >= 0 then Some t.via_inst.(nid) else None in
    let step = { step_inst = inst; step_net = nid; step_arrival = arrival t nid } in
    let prev = t.from_net.(nid) in
    if prev >= 0 then backtrace prev (step :: acc) else step :: acc
  in
  backtrace ep.net []

let critical_path t =
  match List.fold_left (fun acc ep -> match acc with
      | None -> Some ep
      | Some best -> if ep.slack < best.slack then Some ep else Some best)
      None t.eps
  with
  | None -> []
  | Some ep -> path_to t ep

let worst_endpoints t k =
  let sorted = List.sort (fun a b -> compare a.slack b.slack) t.eps in
  List.filteri (fun i _ -> i < k) sorted

(* --- structured critical-path reports ------------------------------- *)

type path_arc = {
  arc_inst : Netlist.inst_id option;
  arc_net : Netlist.net_id;
  arc_cell_delay : float;
  arc_wire_delay : float;
  arc_arrival : float;
  arc_slew : float;
}

type path = {
  path_endpoint : endpoint;
  path_arcs : path_arc list;
  path_capture_wire : float;
}

let endpoint_name t ep =
  match ep.kind with
  | Ff_data ff -> Netlist.inst_name t.nl ff ^ "/D"
  | Primary_output name -> name

let path_report t ep =
  let steps = path_to t ep in
  let arcs, _ =
    List.fold_left
      (fun (acc, prev_arrival) (s : path_step) ->
        let cell_delay =
          match s.step_inst with Some iid -> t.inst_delay.(iid) | None -> 0.0
        in
        (* The launch arc's residual over its cell delay is clock latency
           (flip-flop sources) or the configured input arrival; later arcs'
           residual is the wire delay of the hop that fed the gate. *)
        let wire_delay = s.step_arrival -. prev_arrival -. cell_delay in
        let arc =
          {
            arc_inst = s.step_inst;
            arc_net = s.step_net;
            arc_cell_delay = cell_delay;
            arc_wire_delay = wire_delay;
            arc_arrival = s.step_arrival;
            arc_slew = slew t s.step_net;
          }
        in
        (arc :: acc, s.step_arrival))
      ([], 0.0) steps
  in
  let last_arrival = match arcs with a :: _ -> a.arc_arrival | [] -> 0.0 in
  {
    path_endpoint = ep;
    path_arcs = List.rev arcs;
    path_capture_wire = ep.arrival -. last_arrival;
  }

let worst_paths t k = List.map (path_report t) (worst_endpoints t k)
