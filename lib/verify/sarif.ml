module J = Smt_obs.Obs_json

type workload = {
  wl_name : string;
  wl_findings : Rules.finding list;
  wl_waived : (Rules.finding * Waiver.entry) list;
}

let sarif_level (s : Rules.severity) =
  match s with Rules.Error -> "error" | Rules.Warn -> "warning"

let rule_index (r : Rules.rule) =
  let rec go i = function
    | [] -> 0
    | x :: rest -> if String.equal x.Rules.id r.Rules.id then i else go (i + 1) rest
  in
  go 0 Rules.all

let descriptor (r : Rules.rule) =
  J.obj
    [
      ("id", J.str r.Rules.id);
      ( "shortDescription",
        J.obj [ ("text", J.str r.Rules.summary) ] );
      ( "defaultConfiguration",
        J.obj [ ("level", J.str (sarif_level r.Rules.severity)) ] );
      ( "properties",
        J.obj [ ("repairable", J.boolean r.Rules.repairable) ] );
    ]

let logical_location ?mode ~wl fqn =
  let entries =
    J.obj [ ("fullyQualifiedName", J.str (wl ^ "/" ^ fqn)); ("kind", J.str "element") ]
    ::
    (match mode with
    | Some m when m <> "" ->
      (* the sleep-mode vector the finding was observed in, as a second
         logical location so SARIF viewers group by domain mode *)
      [
        J.obj
          [
            ("fullyQualifiedName", J.str (wl ^ "/mode/" ^ m)); ("kind", J.str "namespace");
          ];
      ]
    | _ -> [])
  in
  J.obj [ ("logicalLocations", J.arr entries) ]

let result ~wl ?waived_by (f : Rules.finding) =
  let base =
    [
      ("ruleId", J.str f.Rules.rule.Rules.id);
      ("ruleIndex", string_of_int (rule_index f.Rules.rule));
      ("level", J.str (sarif_level f.Rules.rule.Rules.severity));
      ("message", J.obj [ ("text", J.str f.Rules.message) ]);
      ("locations", J.arr [ logical_location ~mode:f.Rules.mode ~wl f.Rules.loc ]);
    ]
  in
  let witness =
    match f.Rules.witness with
    | [] -> []
    | steps ->
      [ ("relatedLocations", J.arr (List.map (logical_location ~wl) steps)) ]
  in
  let suppression =
    match waived_by with
    | None -> []
    | Some (e : Waiver.entry) ->
      [
        ( "suppressions",
          J.arr
            [
              J.obj
                [
                  ("kind", J.str "external");
                  ( "justification",
                    J.str
                      (Printf.sprintf "waiver line %d: %s %s" e.Waiver.w_line
                         e.Waiver.w_rule e.Waiver.w_loc) );
                ];
            ] );
      ]
  in
  J.obj (base @ witness @ suppression)

let render workloads =
  let results =
    List.concat_map
      (fun wl ->
        List.map (result ~wl:wl.wl_name) wl.wl_findings
        @ List.map
            (fun (f, e) -> result ~wl:wl.wl_name ~waived_by:e f)
            wl.wl_waived)
      workloads
  in
  J.obj
    [
      ( "$schema",
        J.str
          "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
      );
      ("version", J.str "2.1.0");
      ( "runs",
        J.arr
          [
            J.obj
              [
                ( "tool",
                  J.obj
                    [
                      ( "driver",
                        J.obj
                          [
                            ("name", J.str "smt_flow-lint");
                            ("version", J.str "1.0.0");
                            ( "informationUri",
                              J.str "https://example.invalid/smt_flow" );
                            ("rules", J.arr (List.map descriptor Rules.all));
                          ] );
                    ] );
                ("results", J.arr results);
              ];
          ] );
    ]

(* --- the lint report's other renderings --- *)

let render_text workloads =
  let b = Buffer.create 256 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  List.iter
    (fun wl ->
      if wl.wl_findings = [] && wl.wl_waived = [] then line "%s: clean" wl.wl_name
      else begin
        line "%s: %s%s" wl.wl_name (Rules.summary wl.wl_findings)
          (match wl.wl_waived with
          | [] -> ""
          | w -> Printf.sprintf ", %d waived" (List.length w));
        List.iter (fun f -> line "  %s" (Rules.to_string f)) wl.wl_findings;
        List.iter
          (fun (f, (e : Waiver.entry)) ->
            line "  waived (line %d): %s" e.Waiver.w_line (Rules.to_string f))
          wl.wl_waived
      end)
    workloads;
  Buffer.contents b

let finding_json (f : Rules.finding) =
  J.obj
    [
      ("rule", J.str f.Rules.rule.Rules.id);
      ("severity", J.str (Rules.severity_name f.Rules.rule.Rules.severity));
      ("location", J.str f.Rules.loc);
      ("message", J.str f.Rules.message);
      ("witness", J.arr (List.map J.str f.Rules.witness));
    ]

let render_json workloads =
  J.arr
    (List.map
       (fun wl ->
         J.obj
           [
             ("workload", J.str wl.wl_name);
             ("findings", J.arr (List.map finding_json wl.wl_findings));
             ("waived", J.arr (List.map (fun (f, _) -> finding_json f) wl.wl_waived));
           ])
       workloads)

(* --- baselines: a previous SARIF report read back as finding keys --- *)

type baseline = (string * string, unit) Hashtbl.t

let key ~wl (f : Rules.finding) = (f.Rules.rule.Rules.id, wl ^ "/" ^ f.Rules.loc)

(* A result keys on its [ruleId] and its first location's first logical
   location; an absent or empty [locations] or [logicalLocations] keys
   on [""]. *)
let read_baseline path =
  let open J.Decode in
  let tbl = Hashtbl.create 64 in
  let head name d v = Option.value ~default:"" (Option.join (field_opt name (first d) v)) in
  let result r =
    let rule = field "ruleId" string r in
    let fqn = head "locations" (head "logicalLocations" (field "fullyQualifiedName" string)) r in
    Hashtbl.replace tbl (rule, fqn) ()
  in
  Result.map (fun _ -> tbl) (decode_file (field "runs" (list (field "results" (list result)))) path)

let baseline_keys b =
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) b [])

let new_findings b workloads =
  List.concat_map
    (fun wl ->
      List.filter (fun f -> not (Hashtbl.mem b (key ~wl:wl.wl_name f))) wl.wl_findings)
    workloads

let gate_fails baseline workloads =
  match baseline with
  | None -> List.exists (fun wl -> Rules.has_errors wl.wl_findings) workloads
  | Some b -> Rules.has_errors (new_findings b workloads)
