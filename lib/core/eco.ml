module Netlist = Smt_netlist.Netlist
module Placement = Smt_place.Placement
module Library = Smt_cell.Library
module Sta = Smt_sta.Sta
module Trace = Smt_obs.Trace
module Metrics = Smt_obs.Metrics
module Log = Smt_obs.Log

let m_iterations = Metrics.counter "eco.hold_iterations"
let m_buffers = Metrics.counter "eco.hold_buffers_added"

type result = {
  buffers_added : int;
  iterations : int;
  hold_before : float;
  hold_after : float;
  setup_after : float;
  sta : Sta.t;
}

let fix_hold ?(max_iterations = 10) cfg place =
  Trace.with_span "Eco.fix_hold" @@ fun () ->
  let nl = Placement.netlist place in
  let lib = Netlist.lib nl in
  let buf_cell = Library.hold_buffer lib in
  let sta = Sta.analyze cfg nl in
  let hold_before = Sta.worst_hold_slack sta in
  let added = ref 0 in
  let iterations = ref 0 in
  let progress = ref true in
  (* A delay buffer slows the same path for setup as it pads for hold: only
     insert where the endpoint's setup slack affords it (with margin). *)
  let setup_guard = 5.0 in
  while (not (Sta.meets_hold sta)) && !iterations < max_iterations && !progress do
    incr iterations;
    let before = Sta.worst_hold_slack sta in
    let violating =
      List.filter_map
        (fun (ep : Sta.endpoint) ->
          match ep.Sta.kind with
          | Sta.Ff_data ff when ep.Sta.hold_slack < 0.0 ->
            let buf_delay =
              Smt_cell.Cell.delay buf_cell
                ~load_ff:(Netlist.cell nl ff).Smt_cell.Cell.input_cap
            in
            if ep.Sta.slack >= buf_delay +. setup_guard then Some (ff, ep.Sta.net)
            else None (* padding here would break setup: leave for skew rework *)
          | Sta.Ff_data _ | Sta.Primary_output _ -> None)
        (Sta.endpoints sta)
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
    Sta.update sta;
    progress := violating <> [] && Sta.worst_hold_slack sta > before +. 1e-9
  done;
  Metrics.incr ~by:!iterations m_iterations;
  Metrics.incr ~by:!added m_buffers;
  if Log.enabled Log.Info then
    Log.info "eco" "hold-fix ECO"
      ~fields:
        [
          ("design", Netlist.design_name nl);
          ("iterations", string_of_int !iterations);
          ("buffers_added", string_of_int !added);
          ("hold_before", Printf.sprintf "%.1f" hold_before);
          ("hold_after", Printf.sprintf "%.1f" (Sta.worst_hold_slack sta));
        ];
  {
    buffers_added = !added;
    iterations = !iterations;
    hold_before;
    hold_after = Sta.worst_hold_slack sta;
    setup_after = Sta.wns sta;
    sta;
  }
