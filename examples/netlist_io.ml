(* Interchange example: dump a transformed Selective-MT netlist to the
   structural-Verilog subset, read it back, and prove nothing was lost.

     dune exec examples/netlist_io.exe *)

module Netlist = Smt_netlist.Netlist
module Writer = Smt_netlist.Writer
module Parser = Smt_netlist.Parser
module Check = Smt_check.Drc
module Nl_stats = Smt_netlist.Nl_stats
module Flow = Smt_core.Flow
module Generators = Smt_circuits.Generators

let () =
  let lib = Smt_cell.Library.default () in
  let nl = Generators.multiplier ~name:"mult8" ~bits:8 lib in
  ignore (Flow.run Flow.Improved_smt nl);
  Printf.printf "after the improved flow: %s\n"
    (Format.asprintf "%a" Nl_stats.pp (Nl_stats.compute nl));

  (* netlist round trip *)
  let text = Writer.to_string nl in
  let nl2 = Parser.of_string ~lib text in
  Printf.printf "\ndump is %d bytes; parsed back: %s\n" (String.length text)
    (Format.asprintf "%a" Nl_stats.pp (Nl_stats.compute nl2));
  Printf.printf "round-tripped netlist validates: %b\n"
    (Check.is_valid ~phase:Check.Post_mt nl2);
  Printf.printf "functionally equivalent to the original: %b\n"
    (Smt_sim.Equiv.equivalent ~vectors:32 nl nl2);

  (* show a fragment of the dump *)
  let first_lines n s =
    String.split_on_char '\n' s |> List.filteri (fun i _ -> i < n) |> String.concat "\n"
  in
  Printf.printf "\n--- netlist dump (first lines) ---\n%s\n" (first_lines 12 text)
