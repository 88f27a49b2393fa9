module Netlist = Smt_netlist.Netlist

type t = {
  net_cap : Netlist.net_id -> float;
  net_delay : Netlist.net_id -> Netlist.inst_id -> float;
}

let zero = { net_cap = (fun _ -> 0.0); net_delay = (fun _ _ -> 0.0) }

let lumped ~cap_per_fanout ~delay_per_fanout =
  {
    net_cap = (fun _ -> cap_per_fanout);
    net_delay = (fun _ _ -> delay_per_fanout);
  }
