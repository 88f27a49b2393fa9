(* Netlist utility: generate, inspect, validate, diff, and export.

     netlist_tool gen -c mult8 -o mult8.v          # generate & dump
     netlist_tool stats mult8.v
     netlist_tool validate mult8.v --post-mt
     netlist_tool equiv mult8.v other.v
     netlist_tool route -c circuit_a               # congestion snapshot
     netlist_tool json -c circuit_a                # Table-1 row as JSON

   Exit codes: 0 ok, 1 check failed (validate, equiv), 2 bad input — an
   unknown circuit, a malformed netlist (reported as file:line:column) or
   an unreadable/unwritable path. *)

module Parser = Smt_netlist.Parser
module Writer = Smt_netlist.Writer
module Check = Smt_check.Drc
module Nl_stats = Smt_netlist.Nl_stats
module Equiv = Smt_sim.Equiv
module Placement = Smt_place.Placement
module Global_router = Smt_route.Global_router
module Library = Smt_cell.Library
module Suite = Smt_circuits.Suite

open Cmdliner

let lib = Library.default ()

let load path = Parser.of_file ~lib path

let file_arg n doc = Arg.(required & pos n (some file) None & info [] ~doc)

let out_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.")

let circuit_arg =
  Arg.(value & opt string "mult8" & info [ "c"; "circuit" ] ~doc:"Generator name.")

let post_mt_arg =
  Arg.(value & flag & info [ "post-mt" ] ~doc:"Apply the post-MT validation rules.")

let emit out text =
  match out with
  | Some path ->
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text);
    Printf.printf "wrote %s (%d bytes)\n" path (String.length text)
  | None -> print_string text

let gen_cmd =
  let run circuit out =
    match List.assoc_opt circuit Suite.all with
    | None ->
      Printf.eprintf "unknown circuit %s\n" circuit;
      exit 2
    | Some g -> emit out (Writer.to_string (g lib))
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a circuit and dump it")
    Term.(const run $ circuit_arg $ out_arg)

let stats_cmd =
  let run path =
    let nl = load path in
    Format.printf "%a@." Nl_stats.pp (Nl_stats.compute nl)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Composition statistics of a netlist file")
    Term.(const run $ file_arg 0 "Netlist file.")

let validate_cmd =
  let run path post_mt =
    let nl = load path in
    let phase = if post_mt then Check.Post_mt else Check.Pre_mt in
    match Check.validate ~phase nl with
    | [] ->
      print_endline "ok";
      exit 0
    | problems ->
      List.iter print_endline problems;
      exit 1
  in
  Cmd.v (Cmd.info "validate" ~doc:"Structural validation")
    Term.(const run $ file_arg 0 "Netlist file." $ post_mt_arg)

let equiv_cmd =
  let run a b =
    let na = load a and nb = load b in
    match Equiv.check na nb with
    | Equiv.Equivalent ->
      print_endline "equivalent";
      exit 0
    | Equiv.Mismatch { output; _ } ->
      Printf.printf "NOT equivalent (first mismatch on output %s)\n" output;
      exit 1
  in
  Cmd.v (Cmd.info "equiv" ~doc:"Simulation-based equivalence check of two netlists")
    Term.(const run $ file_arg 0 "First netlist." $ file_arg 1 "Second netlist.")

let route_cmd =
  let run circuit =
    match List.assoc_opt circuit Suite.all with
    | None ->
      Printf.eprintf "unknown circuit %s\n" circuit;
      exit 2
    | Some g ->
      let nl = g lib in
      let place = Placement.place nl in
      let r = Global_router.route place in
      Printf.printf
        "%s: %d nets routed, %.0f um total, overflow %d, max congestion %.2f, detour %.3f\n"
        circuit (Global_router.routed_nets r) (Global_router.total_length r)
        (Global_router.overflow r)
        (Global_router.max_congestion r)
        (Global_router.detour_factor r place)
  in
  Cmd.v (Cmd.info "route" ~doc:"Global-routing congestion snapshot of a generated circuit")
    Term.(const run $ circuit_arg)

let json_cmd =
  let run circuit out =
    match List.assoc_opt circuit Suite.all with
    | None ->
      Printf.eprintf "unknown circuit %s\n" circuit;
      exit 2
    | Some g ->
      let row = Smt_core.Compare.table1_row (fun () -> g lib) in
      emit out (Smt_core.Report_json.of_rows [ row ])
  in
  Cmd.v (Cmd.info "json" ~doc:"Table-1 comparison of a circuit as JSON")
    Term.(const run $ circuit_arg $ out_arg)

let main =
  Cmd.group
    (Cmd.info "netlist_tool" ~version:"1.0.0" ~doc:"Netlist utilities for the Selective-MT flow")
    [ gen_cmd; stats_cmd; validate_cmd; equiv_cmd; route_cmd; json_cmd ]

(* A malformed netlist or an unopenable path is bad input (exit 2, located
   message); any other exception is a bug and keeps cmdliner's
   internal-error exit. *)
let () =
  exit
    (match Cmd.eval ~catch:false main with
    | code -> code
    | exception (Parser.Parse_error msg | Sys_error msg) ->
      Printf.eprintf "netlist_tool: %s\n%!" msg;
      2
    | exception e ->
      Printf.eprintf "netlist_tool: internal error, uncaught exception:\n%s\n%s%!"
        (Printexc.to_string e) (Printexc.get_backtrace ());
      Cmd.Exit.internal_error)
