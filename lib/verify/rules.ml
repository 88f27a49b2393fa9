type severity = Error | Warn

type rule = {
  id : string;
  severity : severity;
  summary : string;
  repairable : bool;
}

let float_into_awake =
  {
    id = "float-into-awake";
    severity = Error;
    summary = "floating net reaches always-on logic or a primary output in standby";
    repairable = false;
  }

let crowbar_risk =
  {
    id = "crowbar-risk";
    severity = Warn;
    summary = "powered gate input may sit at an intermediate voltage in standby";
    repairable = false;
  }

let useless_holder =
  {
    id = "useless-holder";
    severity = Warn;
    summary = "holder keeps a net that never floats (or that nothing awake reads)";
    repairable = false;
  }

let mte_polarity =
  {
    id = "mte-polarity";
    severity = Error;
    summary = "MTE control pin is 0 in standby: inverted polarity or constant disable";
    repairable = false;
  }

let mte_undetermined =
  {
    id = "mte-undetermined";
    severity = Error;
    summary = "MTE control pin does not evaluate to a constant in standby";
    repairable = false;
  }

let retention_input_float =
  {
    id = "retention-input-float";
    severity = Error;
    summary = "retention flip-flop data input floats in standby";
    repairable = false;
  }

let cross_domain_float =
  {
    id = "cross-domain-float-into-awake";
    severity = Error;
    summary = "net from a sleeping domain floats into logic of an awake domain";
    repairable = false;
  }

let missing_isolation =
  {
    id = "missing-isolation-at-boundary";
    severity = Error;
    summary = "net leaves a sleeping domain with no isolation holder at the boundary";
    repairable = false;
  }

let isolation_enable_off_domain =
  {
    id = "isolation-enable-from-off-domain";
    severity = Error;
    summary = "isolation holder's enable belongs to a different domain than the one it guards";
    repairable = false;
  }

let always_on_path =
  {
    id = "always-on-path-through-off-domain";
    severity = Warn;
    summary = "combinational path between awake endpoints routes through a sleeping domain";
    repairable = false;
  }

let all =
  [
    float_into_awake; crowbar_risk; useless_holder; mte_polarity; mte_undetermined;
    retention_input_float; cross_domain_float; missing_isolation;
    isolation_enable_off_domain; always_on_path;
  ]

let find id = List.find_opt (fun r -> String.equal r.id id) all

let severity_name = function Error -> "error" | Warn -> "warning"

type finding = {
  rule : rule;
  loc : string;
  mode : string;
  message : string;
  witness : string list;
}

let to_string f =
  let mode = if f.mode = "" then "" else Printf.sprintf " [%s]" f.mode in
  let via =
    match f.witness with
    | [] -> ""
    | steps -> Printf.sprintf " [via %s]" (String.concat " -> " steps)
  in
  Printf.sprintf "%s %s @ %s%s: %s%s"
    (severity_name f.rule.severity)
    f.rule.id f.loc mode f.message via

let key f = String.concat "\x00" (f.rule.id :: f.loc :: f.witness)

let errors fs = List.filter (fun f -> f.rule.severity = Error) fs
let warnings fs = List.filter (fun f -> f.rule.severity = Warn) fs
let has_errors fs = errors fs <> []

let summary fs =
  Printf.sprintf "%d errors, %d warnings" (List.length (errors fs))
    (List.length (warnings fs))
