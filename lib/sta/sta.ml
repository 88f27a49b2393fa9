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

type t = {
  cfg : config;
  nl : Netlist.t;
  order : Netlist.inst_id list;
  loads : float array;  (* per net, capacitive load seen by the driver *)
  at_max : float array;  (* per net, at driver output *)
  at_min : float array;
  at_slew : float array;  (* per net, output slew at the driver *)
  inst_delay : float array;  (* per inst, the delay forward used *)
  rat : float array;  (* per net, setup-based required *)
  from_net : int array;  (* worst predecessor net, -1 if source *)
  via_inst : int array;  (* instance between from_net and this net, -1 at sources *)
  eps : endpoint list;
  d_slack : float array;  (* per inst, the slack of its D endpoints (infinity if none) *)
  version : int;  (* the netlist journal version these arrays reflect *)
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

let cell_delay cfg nl iid =
  let cell = Netlist.cell nl iid in
  let load = match Netlist.output_net nl iid with
    | Some out -> load_of_net cfg nl out
    | None -> 0.0
  in
  Cell.delay_with_bounce
    (Smt_cell.Library.tech (Netlist.lib nl))
    cell ~load_ff:load ~bounce_v:(cfg.bounce_of iid)

(* Per-net loads for one (re)analysis: every [gate_timing] call during
   seed/forward used to re-fold its output net's sink list; one pass here
   makes that an array read, and [update] re-folds only the touched
   nets. *)
let compute_loads cfg nl =
  let loads = Array.make (Netlist.net_count nl) 0.0 in
  Netlist.iter_nets nl (fun nid -> loads.(nid) <- load_of_net cfg nl nid);
  loads

(* Gate delay and output slew under the configured model, at the given
   worst input slew.  The VGND bounce derate applies to either model. *)
let gate_timing cfg nl ~loads iid ~in_slew =
  Metrics.incr m_arrival_evals;
  let cell = Netlist.cell nl iid in
  let load = match Netlist.output_net nl iid with
    | Some out -> loads.(out)
    | None -> 0.0
  in
  let tech = Smt_cell.Library.tech (Netlist.lib nl) in
  let derate =
    if Cell.is_mt cell then Cell.bounce_derate tech ~bounce_v:(cfg.bounce_of iid) else 1.0
  in
  match cfg.slew_model with
  | None -> (Cell.delay cell ~load_ff:load *. derate, Nldm.default_input_slew)
  | Some store ->
    let arcs = Nldm.arcs_of store cell in
    ( Nldm.lookup arcs.Nldm.delay ~slew:in_slew ~load *. derate,
      Nldm.lookup arcs.Nldm.out_slew ~slew:in_slew ~load )

(* Data pins of an instance: logic inputs (D for flip-flops); CK and MTE are
   not data. *)
let data_input_pins cell = Func.input_names cell.Cell.kind

(* Seed flip-flop Q arrivals from the clock; [mask] limits the work to a
   subset of flip-flops (None = all). *)
let seed_sources cfg nl ~loads ~at_max ~at_min ~at_slew ~inst_delay ~via_inst ~mask =
  Netlist.iter_nets nl (fun nid ->
      if Netlist.is_clock_net nl nid then begin
        at_max.(nid) <- 0.0;
        at_min.(nid) <- 0.0;
        at_slew.(nid) <- Nldm.default_input_slew
      end
      else if Netlist.is_pi nl nid then begin
        at_max.(nid) <- cfg.input_arrival;
        at_min.(nid) <- cfg.input_arrival;
        at_slew.(nid) <- Nldm.default_input_slew
      end);
  Netlist.iter_insts nl (fun iid ->
      let include_ff = match mask with None -> true | Some f -> f iid in
      let cell = Netlist.cell nl iid in
      if include_ff && cell.Cell.kind = Func.Dff then
        match Netlist.pin_net nl iid "Q" with
        | Some q ->
          let d, out_slew = gate_timing cfg nl ~loads iid ~in_slew:Nldm.default_input_slew in
          let lat = cfg.clock_latency iid in
          inst_delay.(iid) <- d;
          at_max.(q) <- lat +. d;
          at_min.(q) <- lat +. cell.Cell.intrinsic_delay;
          at_slew.(q) <- out_slew;
          via_inst.(q) <- iid
        | None -> ())

(* Forward propagation restricted to instances passing [mask]. *)
let forward cfg nl order ~loads ~at_max ~at_min ~at_slew ~inst_delay ~from_net ~via_inst ~mask =
  let pin_arrival_max nid pin =
    if at_max.(nid) = neg_infinity then cfg.input_arrival +. cfg.wire.Wire.net_delay nid pin
    else at_max.(nid) +. cfg.wire.Wire.net_delay nid pin
  in
  let pin_arrival_min nid pin =
    if at_min.(nid) = infinity then cfg.input_arrival +. cfg.wire.Wire.net_delay nid pin
    else at_min.(nid) +. cfg.wire.Wire.net_delay nid pin
  in
  List.iter
    (fun iid ->
      let included = match mask with None -> true | Some f -> f iid in
      if included then begin
        let cell = Netlist.cell nl iid in
        match Netlist.output_net nl iid with
        | None -> ()
        | Some out ->
          if not (Netlist.is_clock_net nl out) then begin
            let worst = ref neg_infinity and worst_src = ref (-1) in
            let earliest = ref infinity in
            let worst_slew = ref 0.0 in
            Array.iter
              (fun pin_name ->
                match Netlist.pin_net nl iid pin_name with
                | None -> ()
                | Some nid ->
                  let pin = { Netlist.inst = iid; Netlist.pin_name } in
                  let a = pin_arrival_max nid pin in
                  if a > !worst then begin
                    worst := a;
                    worst_src := nid
                  end;
                  let s =
                    if at_slew.(nid) > 0.0 then at_slew.(nid) else Nldm.default_input_slew
                  in
                  if s > !worst_slew then worst_slew := s;
                  let e = pin_arrival_min nid pin in
                  if e < !earliest then earliest := e)
              (data_input_pins cell);
            let in_slew =
              if !worst_slew > 0.0 then !worst_slew else Nldm.default_input_slew
            in
            let d, out_slew = gate_timing cfg nl ~loads iid ~in_slew in
            let base_max = if !worst = neg_infinity then cfg.input_arrival else !worst in
            let base_min = if !earliest = infinity then cfg.input_arrival else !earliest in
            inst_delay.(iid) <- d;
            at_max.(out) <- base_max +. d;
            at_min.(out) <- base_min +. cell.Cell.intrinsic_delay;
            at_slew.(out) <- out_slew;
            from_net.(out) <- !worst_src;
            via_inst.(out) <- iid
          end
      end)
    order

(* Endpoint list plus seed of the required-time array; [d_slack] collects
   each flip-flop's D-endpoint slack for [inst_slack]. *)
let endpoints_and_rat cfg nl ~at_max ~at_min ~rat ~d_slack =
  let eps = ref [] in
  Netlist.iter_insts nl (fun iid ->
      let cell = Netlist.cell nl iid in
      if cell.Cell.kind = Func.Dff then
        match Netlist.pin_net nl iid "D" with
        | None -> ()
        | Some d_net ->
          let pin = { Netlist.inst = iid; Netlist.pin_name = "D" } in
          let a =
            (if at_max.(d_net) = neg_infinity then cfg.input_arrival else at_max.(d_net))
            +. cfg.wire.Wire.net_delay d_net pin
          in
          let a_min =
            (if at_min.(d_net) = infinity then cfg.input_arrival else at_min.(d_net))
            +. cfg.wire.Wire.net_delay d_net pin
          in
          let lat = cfg.clock_latency iid in
          let req = cfg.clock_period +. lat -. cell.Cell.setup in
          let hold_slack = a_min -. (lat +. cell.Cell.hold +. cfg.hold_margin) in
          let slack = req -. a in
          rat.(d_net) <- Float.min rat.(d_net) (req -. cfg.wire.Wire.net_delay d_net pin);
          d_slack.(iid) <- Float.min d_slack.(iid) slack;
          eps := { kind = Ff_data iid; net = d_net; arrival = a; required = req; slack; hold_slack }
                 :: !eps);
  List.iter
    (fun (name, nid) ->
      if not (Netlist.is_clock_net nl nid) then begin
        let a = if at_max.(nid) = neg_infinity then cfg.input_arrival else at_max.(nid) in
        let req = cfg.clock_period -. cfg.output_margin in
        rat.(nid) <- Float.min rat.(nid) req;
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
  List.rev !eps

let backward cfg nl order ~rat ~inst_delay =
  List.iter
    (fun iid ->
      let cell = Netlist.cell nl iid in
      match Netlist.output_net nl iid with
      | None -> ()
      | Some out ->
        if not (Netlist.is_clock_net nl out) then begin
          let d = inst_delay.(iid) in
          Array.iter
            (fun pin_name ->
              match Netlist.pin_net nl iid pin_name with
              | None -> ()
              | Some nid ->
                let pin = { Netlist.inst = iid; Netlist.pin_name } in
                let r = rat.(out) -. d -. cfg.wire.Wire.net_delay nid pin in
                rat.(nid) <- Float.min rat.(nid) r)
            (data_input_pins cell)
        end)
    (List.rev order)

let analyze cfg nl =
  Metrics.incr m_analyses;
  let version = Netlist.version nl in
  let order = Netlist.topo_order nl in
  let nnets = Netlist.net_count nl in
  let at_max = Array.make nnets neg_infinity in
  let at_min = Array.make nnets infinity in
  let at_slew = Array.make nnets 0.0 in
  let inst_delay = Array.make (Netlist.inst_count nl) 0.0 in
  let rat = Array.make nnets infinity in
  let from_net = Array.make nnets (-1) in
  let via_inst = Array.make nnets (-1) in
  let loads = compute_loads cfg nl in
  seed_sources cfg nl ~loads ~at_max ~at_min ~at_slew ~inst_delay ~via_inst ~mask:None;
  forward cfg nl order ~loads ~at_max ~at_min ~at_slew ~inst_delay ~from_net ~via_inst
    ~mask:None;
  let d_slack = Array.make (Netlist.inst_count nl) infinity in
  let eps = endpoints_and_rat cfg nl ~at_max ~at_min ~rat ~d_slack in
  backward cfg nl order ~rat ~inst_delay;
  {
    cfg; nl; order; loads; at_max; at_min; at_slew; inst_delay; rat; from_net; via_inst; eps;
    d_slack; version;
  }

(* The downstream combinational cone of the touched nets' drivers.  A cell
   swap touches every net the cell pins, so the seeds are the cell itself
   (through its output net) and the drivers of its input nets, whose
   delay the swapped cell's new input capacitance alters. *)
let affected_insts nl touched_nets =
  let affected = Array.make (Netlist.inst_count nl) false in
  let queue = Queue.create () in
  let enqueue iid =
    if not affected.(iid) then begin
      affected.(iid) <- true;
      Queue.add iid queue
    end
  in
  List.iter
    (fun nid -> Option.iter (fun (p : Netlist.pin) -> enqueue p.Netlist.inst) (Netlist.driver nl nid))
    touched_nets;
  while not (Queue.is_empty queue) do
    List.iter enqueue (Netlist.fanout_insts nl (Queue.pop queue))
  done;
  affected

let update t =
  let { cfg; nl; order; _ } = t in
  (* Arrays sized for the old netlist cannot index a grown one: an added
     net or instance (a buffer splice) takes the full analysis. *)
  if Netlist.net_count nl <> Array.length t.loads
     || Netlist.inst_count nl <> Array.length t.inst_delay
  then analyze cfg nl
  else begin
    Metrics.incr m_incremental;
    let evals0 = Metrics.counter_value m_arrival_evals in
    let version = Netlist.version nl in
    let touched_nets = Netlist.touched_since nl t.version in
    let mask = Some (Array.get (affected_insts nl touched_nets)) in
    let at_max = Array.copy t.at_max in
    let at_min = Array.copy t.at_min in
    let at_slew = Array.copy t.at_slew in
    let inst_delay = Array.copy t.inst_delay in
    let from_net = Array.copy t.from_net in
    let via_inst = Array.copy t.via_inst in
    let rat = Array.make (Array.length t.rat) infinity in
    (* only a touched net can have gained or lost pin capacitance *)
    let loads = Array.copy t.loads in
    List.iter (fun nid -> loads.(nid) <- load_of_net cfg nl nid) touched_nets;
    seed_sources cfg nl ~loads ~at_max ~at_min ~at_slew ~inst_delay ~via_inst ~mask;
    forward cfg nl order ~loads ~at_max ~at_min ~at_slew ~inst_delay ~from_net ~via_inst ~mask;
    let d_slack = Array.make (Array.length t.d_slack) infinity in
    let eps = endpoints_and_rat cfg nl ~at_max ~at_min ~rat ~d_slack in
    backward cfg nl order ~rat ~inst_delay;
    Metrics.observe m_update_evals
      (float_of_int (Metrics.counter_value m_arrival_evals - evals0));
    {
      t with
      loads; at_max; at_min; at_slew; inst_delay; rat; from_net; via_inst; eps; d_slack; version;
    }
  end

let arrival t nid = if t.at_max.(nid) = neg_infinity then t.cfg.input_arrival else t.at_max.(nid)

let slew t nid =
  if t.at_slew.(nid) > 0.0 then t.at_slew.(nid) else Nldm.default_input_slew

let used_delay t iid =
  if iid >= 0 && iid < Array.length t.inst_delay then t.inst_delay.(iid) else 0.0
let required t nid = t.rat.(nid)

let net_slack t nid =
  if t.rat.(nid) = infinity then infinity else t.rat.(nid) -. arrival t nid

let inst_slack t iid =
  let cell = Netlist.cell t.nl iid in
  if cell.Cell.kind = Func.Dff then begin
    let q_slack =
      match Netlist.pin_net t.nl iid "Q" with Some q -> net_slack t q | None -> infinity
    in
    Float.min t.d_slack.(iid) q_slack
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
