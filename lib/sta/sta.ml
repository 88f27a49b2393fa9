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
  hold_margin : float;
  slew_model : Nldm.store option;
}

let config ?(wire = Wire.zero) ?(slew_aware = false) ~clock_period () =
  {
    clock_period;
    wire;
    bounce_of = (fun _ -> 0.0);
    clock_latency = (fun _ -> 0.0);
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
   headroom as [update] and [reanalyze] follow a growing netlist, and a
   recompile refills them in place when they have room. *)
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
  mutable first_reader : int array;  (* the first slot of the net's reader list, -1 if none *)
  mutable net_mark : Bytes.t;  (* scratch: [retimed] / [required], zero between calls *)
  (* per instance *)
  mutable inst_delay : float array;  (* the delay forward used *)
  mutable out : int array;  (* timed output net: Z (-1 on a clock net) or Q; -1 if none *)
  mutable row : int array;  (* slots of instance i: row.(i) .. row.(i + 1) - 1 *)
  mutable inst_kind : Bytes.t;  (* compiled as a [gate] (so in [order]) or a flip-flop [ff] *)
  mutable inst_cell : Cell.t array;  (* a gate's or flip-flop's cell when its slot wires were read *)
  mutable inst_mark : Bytes.t;  (* scratch: [checked] / [queued] / [placing] / [placed] / [slowed], zero between calls *)
  (* the combinational instances, fanin first *)
  mutable order : int array;
  mutable n_order : int;
  (* slots: each connected data input of a combinational instance, in
     [Func.input_names] order per instance, and each flip-flop's D (on
     net -1 while unconnected); the slots reading one net are linked
     into its reader list *)
  mutable slot_net : int array;
  mutable slot_wire : float array;  (* wire delay from the net's driver to the pin *)
  mutable next_reader : int array;  (* the next slot of the same reader list, -1 at its end *)
  mutable slot_inst : int array;  (* the instance whose row holds the slot *)
  mutable n_slots : int;
  (* the flip-flops, ascending id (one removed since the last compile
     keeps its slot, inert: it has no D and no Q) *)
  mutable ffs : int array;
  mutable ff_slack : float array;  (* setup slack at D, infinity if unconnected *)
  mutable n_ffs : int;
  mutable eps : endpoint list;
  pin_nets : int array;  (* scratch for [read_pins], one entry per data input *)
}

let netlist t = t.nl

let po_pin_cap = 4.0

let load_of_net cfg nl nid =
  (* a loop, not a fold: the fold boxes its accumulator once per sink *)
  let pin_caps = ref 0.0 and sinks = ref (Netlist.sinks nl nid) and more = ref true in
  while !more do
    match !sinks with
    | (p : Netlist.pin) :: rest ->
      pin_caps := !pin_caps +. (Netlist.cell nl p.Netlist.inst).Cell.input_cap;
      sinks := rest
    | [] -> more := false
  done;
  let pin_caps = !pin_caps in
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

let load t iid =
  let o = if iid < t.n_insts then t.out.(iid) else -1 in
  if o >= 0 then t.loads.(o)
  else
    match Netlist.output_net t.nl iid with
    | Some o when o < t.n_nets -> t.loads.(o)
    | Some _ -> invalid_arg "Sta.load: an output net the session has not timed"
    | None -> 0.0

let cell_delay cfg nl iid =
  Cell.delay_with_bounce
    (Smt_cell.Library.tech (Netlist.lib nl))
    (Netlist.cell nl iid) ~load_ff:(load_of_inst cfg nl iid) ~bounce_v:(cfg.bounce_of iid)

(* --- scratch marks --- *)

let retimed = 1 (* net: its arrival was recomputed by this update *)
let required = 2 (* net: queued for its required time *)
let checked = 1 (* instance: re-read by this update *)
let queued = 2 (* instance: queued to be timed *)
let placing = 4 (* instance: a new gate being placed in the order *)
let placed = 8 (* instance: a new gate placed in the order *)
let slowed = 16 (* instance: timed by this update, its delay may have changed *)

(* [inst_kind] entries; any other instance reads zero *)
let gate = '\001'
let ff = '\002'

let marked b i bit = Char.code (Bytes.get b i) land bit <> 0
let mark b i bit = Bytes.set b i (Char.unsafe_chr (Char.code (Bytes.get b i) lor bit))

(* --- growth --- *)

(* [a] with room for [n] entries: the first [len] kept, the next ones up
   to [n] set to [fill].  Grows by half again, so a netlist growing edit
   by edit reallocates rarely. *)
let grow a ~len n fill =
  if n <= Array.length a then begin
    if n > len then Array.fill a len (n - len) fill;
    a
  end
  else begin
    let b = Array.make (max n (Array.length a + (Array.length a / 2) + 16)) fill in
    Array.blit a 0 b 0 len;
    b
  end

let grow_bytes b ~len n =
  if n <= Bytes.length b then begin
    if n > len then Bytes.fill b len (n - len) '\000';
    b
  end
  else begin
    let c = Bytes.make (max n (Bytes.length b + (Bytes.length b / 2) + 16)) '\000' in
    Bytes.blit b 0 c 0 len;
    c
  end

(* [a] with room for [n] entries, kept when it has it: a recompile
   reuses the arrays it has.  A new one has a third to spare, so the
   edits that grow the netlist after an analysis (switch and holder
   insertion, the clock and enable trees, most of the hold ECO's
   buffers) do not reallocate.  [refill] also sets the first [n] to
   [fill]. *)
let spare n = n + (n / 3)

let room a n fill = if n <= Array.length a then a else Array.make (spare n) fill

let refill a n fill =
  let a = room a n fill in
  Array.fill a 0 n fill;
  a

let refill_bytes b n =
  let b = if n <= Bytes.length b then b else Bytes.create (spare n) in
  Bytes.fill b 0 n '\000';
  b

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
    t.first_reader <- grow t.first_reader ~len n (-1);
    t.net_mark <- grow_bytes t.net_mark ~len n;
    t.n_nets <- n
  end

let grow_insts t n =
  if n > t.n_insts then begin
    let len = t.n_insts in
    t.inst_delay <- grow t.inst_delay ~len n 0.0;
    t.out <- grow t.out ~len n (-1);
    t.row <- grow t.row ~len:(len + 1) (n + 1) 0;
    t.inst_kind <- grow_bytes t.inst_kind ~len n;
    t.inst_cell <- grow t.inst_cell ~len n (Netlist.cell t.nl (n - 1));
    t.inst_mark <- grow_bytes t.inst_mark ~len n;
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

(* Reads an instance's pins in one walk over its connection list.
   Returns the net on its output pin, -1 if none, and leaves in
   [t.pin_nets.(j)] the net on its [j]th [Func.input_names] pin, -1 if
   unconnected (a flip-flop's one input is D). *)
let read_pins t iid =
  Array.fill t.pin_nets 0 max_inputs (-1);
  Netlist.read_pins t.nl iid t.pin_nets

(* The net a combinational gate's or flip-flop's timing writes, given
   the net on its output pin: a flip-flop's Q, or a combinational output
   unless it is a clock net (which stays a clock source); -1 if none. *)
let timed_out t (c : Cell.t) out =
  if out >= 0 && (Func.is_sequential c.Cell.kind || not (Netlist.is_clock_net t.nl out)) then out
  else -1

let link t s nid =
  t.next_reader.(s) <- t.first_reader.(nid);
  t.first_reader.(nid) <- s

let unlink t s nid =
  if t.first_reader.(nid) = s then t.first_reader.(nid) <- t.next_reader.(s)
  else begin
    let rec after p =
      if t.next_reader.(p) = s then t.next_reader.(p) <- t.next_reader.(s)
      else after t.next_reader.(p)
    in
    after t.first_reader.(nid)
  end

let push_slot t iid nid =
  let k = t.n_slots in
  if k >= Array.length t.slot_net || k >= Array.length t.slot_wire
     || k >= Array.length t.next_reader || k >= Array.length t.slot_inst
  then begin
    t.slot_net <- grow t.slot_net ~len:k (k + 1) (-1);
    t.slot_wire <- grow t.slot_wire ~len:k (k + 1) 0.0;
    t.next_reader <- grow t.next_reader ~len:k (k + 1) (-1);
    t.slot_inst <- grow t.slot_inst ~len:k (k + 1) 0
  end;
  t.slot_net.(k) <- nid;
  t.slot_inst.(k) <- iid;
  t.n_slots <- k + 1;
  if nid >= 0 then begin
    t.slot_wire.(k) <- t.cfg.wire.Wire.net_delay nid iid;
    link t k nid
  end

let push_ff t iid =
  let k = t.n_ffs in
  if k >= Array.length t.ffs || k >= Array.length t.ff_slack then begin
    t.ffs <- grow t.ffs ~len:k (k + 1) 0;
    t.ff_slack <- grow t.ff_slack ~len:k (k + 1) infinity
  end;
  t.ffs.(k) <- iid;
  t.n_ffs <- k + 1

exception Stale

(* Compiles instance [iid], the next id after those compiled: its timed
   output, and its slots: its data-pin row if combinational, its D if a
   flip-flop.  The caller places a combinational instance in [order].
   Raises [Stale] when its output pin is on a net below [nnets0]. *)
let add_inst t ~nnets0 iid =
  let nl = t.nl in
  if not (Netlist.is_dead nl iid) then begin
    let c = Netlist.cell nl iid in
    let seq = Func.is_sequential c.Cell.kind in
    if seq || is_comb c then begin
      let out = read_pins t iid in
      if out >= 0 && out < nnets0 then raise_notrace Stale;
      t.out.(iid) <- timed_out t c out
    end;
    if seq then begin
      Bytes.set t.inst_kind iid ff;
      t.inst_cell.(iid) <- c;
      push_slot t iid t.pin_nets.(0);
      push_ff t iid
    end
    else if is_comb c then begin
      Bytes.set t.inst_kind iid gate;
      t.inst_cell.(iid) <- c;
      for j = 0 to Array.length (Func.input_names c.Cell.kind) - 1 do
        if t.pin_nets.(j) >= 0 then push_slot t iid t.pin_nets.(j)
      done
    end
  end;
  t.row.(iid + 1) <- t.n_slots

let push_order t iid =
  let k = t.n_order in
  if k >= Array.length t.order then t.order <- grow t.order ~len:k (k + 1) 0;
  t.order.(k) <- iid;
  t.n_order <- k + 1

(* --- propagation --- *)

(* The analysis-start state of a net: clock nets and primary inputs at 0,
   anything else unreached until its driver is timed. *)
let reset_net t nid =
  let nl = t.nl in
  t.from_net.(nid) <- -1;
  t.via_inst.(nid) <- -1;
  if Netlist.is_clock_net nl nid || Netlist.is_pi nl nid then begin
    t.at_max.(nid) <- 0.0;
    t.at_min.(nid) <- 0.0;
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
   earliest arrival plus wire, and the worst input slew.  An unreached
   net reads as launched at 0. *)
let time_gate t g out =
  let worst = ref neg_infinity and worst_src = ref (-1) in
  let earliest = ref infinity in
  let worst_slew = ref 0.0 in
  for s = t.row.(g) to t.row.(g + 1) - 1 do
    let nid = t.slot_net.(s) and w = t.slot_wire.(s) in
    let a = (if t.at_max.(nid) = neg_infinity then 0.0 else t.at_max.(nid)) +. w in
    if a > !worst then begin
      worst := a;
      worst_src := nid
    end;
    let sl = if t.at_slew.(nid) > 0.0 then t.at_slew.(nid) else Nldm.default_input_slew in
    if sl > !worst_slew then worst_slew := sl;
    let e = (if t.at_min.(nid) = infinity then 0.0 else t.at_min.(nid)) +. w in
    if e < !earliest then earliest := e
  done;
  let in_slew = if !worst_slew > 0.0 then !worst_slew else Nldm.default_input_slew in
  let d = gate_delay t g out ~in_slew in
  let base_max = if !worst = neg_infinity then 0.0 else !worst in
  let base_min = if !earliest = infinity then 0.0 else !earliest in
  t.inst_delay.(g) <- d;
  t.at_max.(out) <- base_max +. d;
  t.at_min.(out) <- base_min +. (Netlist.cell t.nl g).Cell.intrinsic_delay;
  t.from_net.(out) <- !worst_src;
  t.via_inst.(out) <- g

(* The setup requirement at flip-flop [ff]'s D pin. *)
let ff_required t ff =
  t.cfg.clock_period +. t.cfg.clock_latency ff -. (Netlist.cell t.nl ff).Cell.setup

(* The endpoint list, and each flip-flop's D-endpoint slack in [ff_slack]
   for [inst_slack]; with [seed], also the endpoints' required times into
   [rat], which the caller has filled with [infinity]. *)
let time_endpoints t ~seed =
  let cfg = t.cfg and nl = t.nl in
  let eps = ref [] in
  for k = 0 to t.n_ffs - 1 do
    let ff = t.ffs.(k) in
    let s = t.row.(ff) in
    let d_net = t.slot_net.(s) in
    if d_net < 0 then t.ff_slack.(k) <- infinity
    else begin
      let cell = Netlist.cell nl ff and w = t.slot_wire.(s) in
      let a = (if t.at_max.(d_net) = neg_infinity then 0.0 else t.at_max.(d_net)) +. w in
      let a_min = (if t.at_min.(d_net) = infinity then 0.0 else t.at_min.(d_net)) +. w in
      let lat = cfg.clock_latency ff in
      let req = cfg.clock_period +. lat -. cell.Cell.setup in
      let hold_slack = a_min -. (lat +. cell.Cell.hold +. cfg.hold_margin) in
      let slack = req -. a in
      if seed then t.rat.(d_net) <- Float.min t.rat.(d_net) (req -. w);
      t.ff_slack.(k) <- slack;
      eps := { kind = Ff_data ff; net = d_net; arrival = a; required = req; slack; hold_slack }
             :: !eps
    end
  done;
  List.iter
    (fun (name, nid) ->
      if not (Netlist.is_clock_net nl nid) then begin
        let a = if t.at_max.(nid) = neg_infinity then 0.0 else t.at_max.(nid) in
        let req = cfg.clock_period in
        if seed then t.rat.(nid) <- Float.min t.rat.(nid) req;
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
  for k = 0 to t.n_order - 1 do
    let g = t.order.(k) in
    let out = t.out.(g) in
    if out >= 0 then begin
      time_gate t g out;
      incr evals
    end
  done;
  Metrics.incr ~by:!evals m_arrival_evals;
  Array.fill t.rat 0 t.n_nets infinity;
  time_endpoints t ~seed:true;
  backward t

(* Compiles the whole netlist into [t], in the arrays it already has
   where they have room, and times it from scratch.  Until it completes,
   [t.version] is -1: a session whose recompile raised has nothing left
   to extend. *)
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
  t.loads <- refill t.loads nnets 0.0;
  for nid = 0 to nnets - 1 do
    t.loads.(nid) <- load_of_net t.cfg nl nid
  done;
  (* [time_all] resets every net's arrivals, source and required time *)
  t.at_max <- room t.at_max nnets neg_infinity;
  t.at_min <- room t.at_min nnets infinity;
  t.at_slew <- room t.at_slew nnets 0.0;
  t.rat <- room t.rat nnets infinity;
  t.from_net <- room t.from_net nnets (-1);
  t.via_inst <- room t.via_inst nnets (-1);
  t.first_reader <- refill t.first_reader nnets (-1);
  t.net_mark <- refill_bytes t.net_mark nnets;
  t.inst_delay <- refill t.inst_delay ninsts 0.0;
  t.out <- refill t.out ninsts (-1);
  t.row <- refill t.row (ninsts + 1) 0;
  t.inst_kind <- refill_bytes t.inst_kind ninsts;
  if ninsts > 0 then t.inst_cell <- room t.inst_cell ninsts (Netlist.cell nl 0);
  t.inst_mark <- refill_bytes t.inst_mark ninsts;
  t.order <- order;
  t.n_order <- Array.length order;
  let n_slots = !max_slots + !n_ffs in
  t.slot_net <- room t.slot_net n_slots (-1);
  t.slot_wire <- room t.slot_wire n_slots 0.0;
  t.next_reader <- room t.next_reader n_slots (-1);
  t.slot_inst <- room t.slot_inst n_slots 0;
  t.n_slots <- 0;
  t.ffs <- room t.ffs !n_ffs 0;
  t.ff_slack <- room t.ff_slack !n_ffs infinity;
  t.n_ffs <- 0;
  for iid = 0 to ninsts - 1 do
    add_inst t ~nnets0:0 iid
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
      first_reader = [||];
      net_mark = Bytes.empty;
      inst_delay = [||];
      out = [||];
      row = [||];
      inst_kind = Bytes.empty;
      inst_cell = [||];
      inst_mark = Bytes.empty;
      order = [||];
      n_order = 0;
      slot_net = [||];
      slot_wire = [||];
      next_reader = [||];
      slot_inst = [||];
      n_slots = 0;
      ffs = [||];
      ff_slack = [||];
      n_ffs = 0;
      eps = [];
      pin_nets = Array.make max_inputs (-1);
    }
  in
  compile t;
  t

(* --- the journal step --- *)

(* Reads the wire delay into each of instance [g]'s slots again. *)
let read_wires t g =
  for s = t.row.(g) to t.row.(g + 1) - 1 do
    let nid = t.slot_net.(s) in
    if nid >= 0 then t.slot_wire.(s) <- t.cfg.wire.Wire.net_delay nid g
  done

(* The wire delay into a pin follows its net and its instance's cell
   (Parasitics' Elmore delay reads the sink's input capacitance): an
   instance whose cell was swapped reads them all again. *)
let refresh_row t g =
  let c = Netlist.cell t.nl g in
  if c != t.inst_cell.(g) then begin
    t.inst_cell.(g) <- c;
    read_wires t g
  end

(* Re-reads an old instance: its timed output must be the compiled one
   (a removed instance has none), and a combinational gate's data-pin
   nets must be its compiled row.  A flip-flop's D may have moved: its
   slot follows it into the new net's reader list and reads its wire.
   A swapped instance reads its wires again. *)
let recheck t g =
  if not (marked t.inst_mark g checked) then begin
    mark t.inst_mark g checked;
    let c = Netlist.cell t.nl g in
    let seq = Func.is_sequential c.Cell.kind in
    if not (seq || is_comb c) then begin
      if t.out.(g) >= 0 then raise_notrace Stale
    end
    else begin
      if timed_out t c (read_pins t g) <> t.out.(g) then raise_notrace Stale;
      let s0 = t.row.(g) and stop = t.row.(g + 1) in
      if seq then begin
        if stop - s0 <> 1 then raise_notrace Stale;
        let d = t.pin_nets.(0) and was = t.slot_net.(s0) in
        if d <> was then begin
          if was >= 0 then unlink t s0 was;
          t.slot_net.(s0) <- d;
          if d >= 0 then link t s0 d
        end;
        if d >= 0 && d <> was then t.slot_wire.(s0) <- t.cfg.wire.Wire.net_delay d g
      end
      else begin
        let ins = Func.input_names c.Cell.kind in
        let s = ref s0 in
        for j = 0 to Array.length ins - 1 do
          let nid = t.pin_nets.(j) in
          if nid >= 0 then begin
            if !s >= stop || t.slot_net.(!s) <> nid then raise_notrace Stale;
            incr s
          end
        done;
        if !s <> stop then raise_notrace Stale
      end;
      refresh_row t g
    end
  end

(* A structurally touched net: its data-pin readers must be exactly its
   compiled slots, each pin on the slot compiled for it, and the gate or
   flip-flop that timed it must still drive it.  A reader whose row holds
   every data pin of its kind has pin [j] at slot [j] (a swapped one
   reads its wires again); any other instance involved re-reads its
   pins.  A flip-flop whose D is here, or was at the last step, re-reads
   it; one whose clock pin moved needs nothing.  A gate driving the net
   into a gate's other input (an embedded MT-cell's MTE) orders the
   levelization without being timed, so the edit could close a cycle
   only [Netlist.topo_order] sees: that recompiles too. *)
let check_net t nid =
  let nl = t.nl in
  let via = t.via_inst.(nid) in
  let comb_driver =
    match Netlist.driver nl nid with
    | Some p ->
      let d = p.Netlist.inst in
      if d <> via || Netlist.is_clock_net nl nid then begin
        if via >= 0 then recheck t via;
        recheck t d
      end;
      is_comb (Netlist.cell nl d)
    | None ->
      if via >= 0 then recheck t via;
      false
  in
  let readers = ref 0 in
  List.iter
    (fun (p : Netlist.pin) ->
      let g = p.Netlist.inst in
      let c = Netlist.cell nl g in
      if is_comb c then begin
        let names = Func.input_names c.Cell.kind in
        let j = index_of names p.Netlist.pin_name 0 in
        if j >= 0 then begin
          incr readers;
          let r = t.row.(g) in
          if t.row.(g + 1) - r = Array.length names && t.slot_net.(r + j) = nid then
            refresh_row t g
          else recheck t g
        end
        else if comb_driver then raise_notrace Stale
      end
      else if Func.is_sequential c.Cell.kind && String.equal p.Netlist.pin_name "D"
              && t.slot_net.(t.row.(g)) <> nid
      then recheck t g)
    (Netlist.sinks nl nid);
  let s = ref t.first_reader.(nid) and compiled = ref 0 in
  while !s >= 0 do
    let next = t.next_reader.(!s) in
    let g = t.slot_inst.(!s) in
    if Bytes.get t.inst_kind g = gate then incr compiled else recheck t g;
    s := next
  done;
  if !readers <> !compiled then raise_notrace Stale

(* A value-touched net keeps its connections, and so does every
   instance on it: only a swapped reader's wires change. *)
let refresh_readers t nid =
  let s = ref t.first_reader.(nid) in
  while !s >= 0 do
    refresh_row t t.slot_inst.(!s);
    s := t.next_reader.(!s)
  done

(* Places new gate [g] in the order after the new gates it reads; a loop
   among them raises [Stale]. *)
let rec place t ~ninsts0 g =
  if not (marked t.inst_mark g placed) then begin
    if marked t.inst_mark g placing then raise_notrace Stale;
    mark t.inst_mark g placing;
    for s = t.row.(g) to t.row.(g + 1) - 1 do
      match Netlist.driver t.nl t.slot_net.(s) with
      | Some p when p.Netlist.inst >= ninsts0 && is_comb (Netlist.cell t.nl p.Netlist.inst) ->
        place t ~ninsts0 p.Netlist.inst
      | Some _ | None -> ()
    done;
    mark t.inst_mark g placed;
    push_order t g
  end

(* Brings the compiled graph up to the netlist when the edits since
   [t.version] keep it valid (the splice rule in sta.mli); raises
   [Stale] when one breaks it.  [ninsts0] and [nnets0] are the sizes the
   graph was compiled for.  A swap touches every net the cell pins, and
   each of its slots is in one of those nets' reader lists, so every
   touched net refreshing its readers' rows reaches every swapped
   instance whose wires were read. *)
let extend t ~ninsts0 ~nnets0 touched_nets =
  let nl = t.nl in
  let ninsts = Netlist.inst_count nl in
  (* New instances compile in id order; a new gate drives a new net. *)
  for iid = ninsts0 to ninsts - 1 do
    add_inst t ~nnets0 iid;
    mark t.inst_mark iid checked
  done;
  (* ... and join the order after every gate they read, which keeps it
     topological. *)
  for iid = ninsts0 to ninsts - 1 do
    if (not (Netlist.is_dead nl iid)) && is_comb (Netlist.cell nl iid) then place t ~ninsts0 iid
  done;
  List.iter
    (fun nid ->
      if Netlist.rewired_since nl t.version nid then check_net t nid else refresh_readers t nid)
    touched_nets

let clear_marks t =
  Bytes.fill t.net_mark 0 t.n_nets '\000';
  Bytes.fill t.inst_mark 0 t.n_insts '\000'

(* The journal step of [update] and [reanalyze]: reads the nets touched
   since [t.version], grows the arrays for the new nets and instances,
   and extends the compiled graph over the edits when they keep it valid
   (re-folding the touched nets' loads), else recompiles, which times it.
   Returns the touched nets when the graph was extended; [None] when it
   was recompiled. *)
let sync t =
  let nl = t.nl in
  let ninsts0 = t.n_insts and nnets0 = t.n_nets in
  let touched_nets = Netlist.touched_since nl t.version in
  grow_nets t (Netlist.net_count nl);
  grow_insts t (Netlist.inst_count nl);
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

(* --- incremental update --- *)

let queue_gate t g =
  if Bytes.get t.inst_kind g = gate && t.out.(g) >= 0 then mark t.inst_mark g queued

(* Marks net [nid] retimed and queues the gates reading it. *)
let retimed_net t nid =
  if not (marked t.net_mark nid retimed) then begin
    mark t.net_mark nid retimed;
    let s = ref t.first_reader.(nid) in
    while !s >= 0 do
      queue_gate t t.slot_inst.(!s);
      s := t.next_reader.(!s)
    done
  end

(* Re-times the cone of the touched nets' drivers over the extended
   graph, in order: the touched nets' drivers, and every gate reading a
   retimed net.  Marks [slowed] the gates whose delay may have changed.
   Returns the arrival evaluations and how many gates it marked. *)
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
      then retimed_net t nid)
    touched_nets;
  List.iter
    (fun nid ->
      match Netlist.driver nl nid with
      | Some p ->
        let d = p.Netlist.inst in
        if Func.is_sequential (Netlist.cell nl d).Cell.kind then begin
          time_ff t d nid;
          incr evals;
          retimed_net t nid
        end
        else queue_gate t d
      | None -> ())
    touched_nets;
  (* a queued gate only queues gates later in the order *)
  let changed = ref 0 in
  for k = 0 to t.n_order - 1 do
    let g = t.order.(k) in
    if marked t.inst_mark g queued then begin
      let out = t.out.(g) and d0 = t.inst_delay.(g) in
      time_gate t g out;
      incr evals;
      (* a zero may have changed sign *)
      if t.inst_delay.(g) <> d0 || d0 = 0.0 then begin
        mark t.inst_mark g slowed;
        incr changed
      end;
      retimed_net t out
    end
  done;
  (!evals, !changed)

(* Required time of net [nid] from its readers: the endpoint
   requirements of the flip-flops whose D it is and of its output port,
   and each timed gate reading it. *)
let net_required t nid =
  let nl = t.nl in
  let r =
    ref
      (if Netlist.is_po nl nid && not (Netlist.is_clock_net nl nid) then t.cfg.clock_period
       else infinity)
  in
  let s = ref t.first_reader.(nid) in
  while !s >= 0 do
    let g = t.slot_inst.(!s) in
    if Bytes.get t.inst_kind g = ff then r := Float.min !r (ff_required t g -. t.slot_wire.(!s))
    else begin
      let out = t.out.(g) in
      if out >= 0 then r := Float.min !r (t.rat.(out) -. t.inst_delay.(g) -. t.slot_wire.(!s))
    end;
    s := t.next_reader.(!s)
  done;
  !r

(* Re-derives required times behind the edit: at the touched nets, at
   the inputs of the [slowed] gates, and at the inputs of every gate
   whose output's required time changed, latest gate first.  Each is the
   [min] of the same terms [backward] folds, so it is the same float.
   Nets no timed gate drives come last. *)
let update_required t touched_nets =
  let sources = ref [] in
  let queue nid =
    if not (marked t.net_mark nid required) then begin
      mark t.net_mark nid required;
      let v = t.via_inst.(nid) in
      if not (v >= 0 && Bytes.get t.inst_kind v = gate) then sources := nid :: !sources
    end
  in
  let queue_inputs g =
    for s = t.row.(g) to t.row.(g + 1) - 1 do
      queue t.slot_net.(s)
    done
  in
  List.iter queue touched_nets;
  for k = t.n_order - 1 downto 0 do
    let g = t.order.(k) in
    let out = t.out.(g) in
    if marked t.inst_mark g slowed then queue_inputs g;
    if out >= 0 && marked t.net_mark out required then begin
      let r = net_required t out in
      let was = t.rat.(out) in
      t.rat.(out) <- r;
      if r <> was || r = 0.0 then queue_inputs g
    end
  done;
  List.iter (fun nid -> t.rat.(nid) <- net_required t nid) !sources

let update t =
  match sync t with
  | None -> ()
  | Some touched_nets ->
    Metrics.incr m_incremental;
    let evals, changed = retime t touched_nets in
    Metrics.incr ~by:evals m_arrival_evals;
    Metrics.observe m_update_evals (float_of_int evals);
    (* past a quarter of the graph, one backward pass is cheaper than
       the cone walk (measured in EXPERIMENTS.md, "STA at the cost of the
       edit"), and gives the same floats *)
    if 4 * (List.length touched_nets + changed) > t.n_nets then begin
      Array.fill t.rat 0 t.n_nets infinity;
      time_endpoints t ~seed:true;
      backward t
    end
    else begin
      time_endpoints t ~seed:false;
      update_required t touched_nets
    end;
    clear_marks t

(* Every slot's wire delay and every net's load under [t.cfg.wire]. *)
let refresh_wires t =
  for nid = 0 to t.n_nets - 1 do
    t.loads.(nid) <- load_of_net t.cfg t.nl nid
  done;
  for g = 0 to t.n_insts - 1 do
    read_wires t g
  done

(* Slot wire delays and loads are baked in from the wire model: a new
   one (two models cannot be compared) refreshes them all. *)
let reanalyze t cfg =
  let rewired = cfg.wire != t.cfg.wire in
  t.cfg <- cfg;
  match sync t with
  | None -> ()
  | Some _ ->
    clear_marks t;
    if rewired then refresh_wires t;
    Metrics.incr m_analyses;
    time_all t

let arrival t nid = if t.at_max.(nid) = neg_infinity then 0.0 else t.at_max.(nid)

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

(* Walks the worst predecessors back from the endpoint's net, so the
   arcs come out launch first.  An arc's residual over its cell delay is
   the wire delay of the hop that fed its gate; on the launch arc it is
   the clock latency of a flip-flop (a primary input launches at 0). *)
let path_report t ep =
  let rec back nid arcs =
    let via = t.via_inst.(nid) and prev = t.from_net.(nid) in
    let cell_delay = if via >= 0 then t.inst_delay.(via) else 0.0 in
    let a = arrival t nid in
    let arc =
      {
        arc_inst = (if via >= 0 then Some via else None);
        arc_net = nid;
        arc_cell_delay = cell_delay;
        arc_wire_delay = a -. (if prev >= 0 then arrival t prev else 0.0) -. cell_delay;
        arc_arrival = a;
        arc_slew = slew t nid;
      }
    in
    if prev >= 0 then back prev (arc :: arcs) else arc :: arcs
  in
  {
    path_endpoint = ep;
    path_arcs = back ep.net [];
    path_capture_wire = ep.arrival -. arrival t ep.net;
  }

let worst_paths t k =
  List.sort (fun a b -> compare a.slack b.slack) t.eps
  |> List.filteri (fun i _ -> i < k)
  |> List.map (path_report t)
