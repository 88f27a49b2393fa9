(* Tests for the QoR attribution layer: the flow's artifacts must carry the
   analysis behind the report's numbers (same STA, same WNS), and every
   explain report must render both as text and as parseable JSON that
   agrees with the report. *)

module Flow = Smt_core.Flow
module Explain = Smt_core.Explain
module Qor = Smt_core.Qor
module Sta = Smt_sta.Sta
module Suite = Smt_circuits.Suite
module Library = Smt_cell.Library
module J = Smt_obs.Obs_json

let lib = Library.default ()

let run_improved =
  let result = lazy (Flow.run_with_artifacts Flow.Improved_smt (Suite.tiny lib)) in
  fun () -> Lazy.force result

(* The three explain documents, each under its headline as the CLI prints
   it. *)
let explained ?(k = 3) what =
  let report, art = run_improved () in
  Explain.headline report
  @
  match what with
  | `Paths -> Explain.paths ~k art.Flow.art_sta
  | `Leakage -> Explain.leakage report art
  | `Clusters -> Explain.clusters report art

let num_field name doc =
  match J.Decode.(decode ~source:"explain" (field name number) doc) with
  | Ok f -> f
  | Error e -> Alcotest.fail e

let arr_field name doc =
  match J.member name doc with
  | Some (J.Arr items) -> items
  | _ -> Alcotest.failf "missing array field %S" name

(* --- artifacts --- *)

let test_artifacts_match_report () =
  let report, art = run_improved () in
  Alcotest.(check (float 1e-9)) "artifact STA carries the reported wns" report.Flow.wns
    (Sta.wns art.Flow.art_sta);
  Alcotest.(check (float 1e-9)) "artifact config carries the clock" report.Flow.clock_period
    art.Flow.art_cfg.Sta.clock_period;
  Alcotest.(check int) "bounce reports cover every switch" report.Flow.n_switches
    (List.length art.Flow.art_bounce);
  (* a plain run reproduces the same QoR (only wall-clock may differ) *)
  let plain = Flow.run Flow.Improved_smt (Suite.tiny lib) in
  Alcotest.(check (float 1e-9)) "run reproduces the wns" report.Flow.wns plain.Flow.wns;
  Alcotest.(check (float 1e-9)) "run reproduces the area" report.Flow.area plain.Flow.area;
  Alcotest.(check (float 1e-9)) "run reproduces the standby" report.Flow.standby_nw
    plain.Flow.standby_nw

let test_worst_path_slack_is_wns () =
  let report, art = run_improved () in
  match Sta.worst_paths art.Flow.art_sta 3 with
  | first :: _ ->
    Alcotest.(check (float 1e-9)) "explain paths leads with the reported wns"
      report.Flow.wns first.Sta.path_endpoint.Sta.slack
  | [] -> Alcotest.fail "no paths"

(* --- text reports --- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_text_reports_render () =
  let report, _ = run_improved () in
  let p = Explain.text (explained `Paths) in
  Alcotest.(check bool) "paths names the circuit" true (contains p report.Flow.circuit);
  Alcotest.(check bool) "paths has the arc table" true (contains p "Cell ps");
  let l = Explain.text (explained `Leakage) in
  Alcotest.(check bool) "leakage has the vth slice" true (contains l "by threshold class");
  Alcotest.(check bool) "leakage has the waterfall" true (contains l "waterfall");
  let c = Explain.text (explained `Clusters) in
  Alcotest.(check bool) "clusters has the occupancy column" true (contains c "Occupancy")

(* --- JSON reports --- *)

let test_paths_json () =
  let report, art = run_improved () in
  let k = 3 in
  let doc = J.parse_exn (Explain.json (explained ~k `Paths)) in
  (* JSON numbers carry display precision (6 significant digits) *)
  Alcotest.(check (float 1e-2)) "wns field" report.Flow.wns (num_field "wns_ps" doc);
  let paths = arr_field "paths" doc in
  Alcotest.(check bool) "at least k paths (capped by endpoints)" true
    (List.length paths >= min k (List.length (Sta.endpoints art.Flow.art_sta)));
  match paths with
  | first :: _ ->
    Alcotest.(check (float 1e-2)) "first slack is the wns" report.Flow.wns
      (num_field "slack_ps" first);
    let arcs = arr_field "arcs" first in
    Alcotest.(check bool) "arcs present" true (arcs <> []);
    (* the per-arc delays must rebuild the endpoint arrival (up to the
       per-arc display rounding) *)
    let total =
      List.fold_left
        (fun acc arc -> acc +. num_field "cell_ps" arc +. num_field "wire_ps" arc)
        (num_field "capture_wire_ps" first) arcs
    in
    Alcotest.(check (float 0.5)) "arc delays sum to the arrival"
      (num_field "arrival_ps" first) total
  | [] -> Alcotest.fail "no paths in JSON"

let test_leakage_json () =
  let report, _ = run_improved () in
  let doc = J.parse_exn (Explain.json (explained `Leakage)) in
  let total = num_field "standby_nw" doc in
  Alcotest.(check (float 1e-2)) "total is the report's" report.Flow.standby_nw total;
  List.iter
    (fun slice ->
      let sum =
        List.fold_left (fun acc s -> acc +. num_field "nw" s) 0.0 (arr_field slice doc)
      in
      (* JSON uses display precision, so compare loosely *)
      Alcotest.(check bool)
        (slice ^ " shares sum to the total")
        true
        (Float.abs (sum -. total) <= 1e-4 *. Float.max 1.0 total))
    [ "by_vth"; "by_function" ];
  match List.rev (arr_field "waterfall" doc) with
  | last :: _ ->
    Alcotest.(check bool) "waterfall ends at the final standby" true
      (Float.abs (num_field "standby_nw" last -. total) <= 1e-4 *. Float.max 1.0 total)
  | [] -> Alcotest.fail "waterfall empty"

let test_clusters_json () =
  let report, _ = run_improved () in
  let doc = J.parse_exn (Explain.json (explained `Clusters)) in
  let attrs = arr_field "attribution" doc in
  Alcotest.(check int) "one attribution per switch" report.Flow.n_switches
    (List.length attrs);
  List.iter
    (fun a ->
      Alcotest.(check bool) "occupancy within the limit context" true
        (num_field "members" a >= 0.0 && num_field "cell_limit" a > 0.0);
      Alcotest.(check bool) "vgnd length non-negative" true (num_field "vgnd_um" a >= 0.0))
    attrs

(* --- one description, two renderings --- *)

(* The boxed tables of a text rendering, in order, each as its header cells
   and its body rows. *)
let text_tables text =
  let is_sep l = String.length l > 0 && l.[0] = '+' in
  let cells l =
    match String.split_on_char '|' l with
    | _ :: inner -> List.map String.trim (List.rev (List.tl (List.rev inner)))
    | [] -> []
  in
  let rec body rows = function
    | l :: rest when is_sep l -> (List.rev rows, rest)
    | l :: rest -> body (cells l :: rows) rest
    | [] -> Alcotest.fail "unterminated text table"
  in
  let rec go acc = function
    | s1 :: header :: s2 :: rest when is_sep s1 && is_sep s2 ->
      let rows, rest = body [] rest in
      go ((cells header, rows) :: acc) rest
    | _ :: rest -> go acc rest
    | [] -> List.rev acc
  in
  go [] (String.split_on_char '\n' text)

(* A JSON number and a text cell show the same value: the JSON keeps the
   exact double (Obs_json.num_exact), so printing it with the column's
   format gives the text. *)
let same_number fmt text f = Printf.sprintf fmt f = text

(* Each table of a document with its rows as the JSON rendering wrote them. *)
let rec tables_with_json doc json =
  List.concat_map
    (function
      | Explain.Table t -> [ (t, arr_field t.Explain.name json) ]
      | Explain.Items (key, items) ->
        List.concat (List.map2 tables_with_json items (arr_field key json))
      | Explain.Line _ | Explain.Field _ -> [])
    doc

let test_text_and_json_agree () =
  List.iter
    (fun (what, doc) ->
      let tables =
        List.filter
          (fun ((t : Explain.table), _) -> t.Explain.rows <> [] || t.Explain.text_rows <> [])
          (tables_with_json doc (J.parse_exn (Explain.json doc)))
      in
      let texts = text_tables (Explain.text doc) in
      Alcotest.(check int) (what ^ ": one text table per table") (List.length tables)
        (List.length texts);
      List.iter2
        (fun ((t : Explain.table), json_rows) (header, body) ->
          let name = what ^ "." ^ t.Explain.name in
          let columns = t.Explain.columns in
          Alcotest.(check (list string)) (name ^ ": text header")
            (List.filter_map (fun c -> c.Explain.header) columns) header;
          Alcotest.(check int) (name ^ ": a text row per JSON row, then the text-only rows")
            (List.length json_rows + List.length t.Explain.text_rows) (List.length body);
          List.iteri
            (fun i json_row ->
              let fields = match json_row with J.Obj fields -> fields | _ -> [] in
              Alcotest.(check (list string)) (name ^ ": JSON keys")
                (List.filter_map (fun c -> c.Explain.key) columns) (List.map fst fields);
              (* the columns the text shows, each with its cell and its text *)
              let shown =
                List.filter
                  (fun ((c : Explain.column), _) -> c.Explain.header <> None)
                  (List.combine columns (List.nth t.Explain.rows i))
              in
              List.iter2
                (fun ((c : Explain.column), cell) text ->
                  match c.Explain.key with
                  | None -> ()
                  | Some key -> (
                    let label = Printf.sprintf "%s row %d: %s" name i key in
                    match (cell, List.assoc key fields) with
                    | Explain.Num _, J.Num f ->
                      if not (same_number c.Explain.fmt text f) then
                        Alcotest.failf "%s: text %s, JSON %g" label text f
                    | Explain.Int _, J.Num f ->
                      Alcotest.(check string) label text (string_of_int (int_of_float f))
                    | Explain.Str _, J.Str s -> Alcotest.(check string) label text s
                    | _ -> Alcotest.failf "%s: wrong JSON type" label))
                shown (List.nth body i))
            json_rows)
        tables texts)
    [
      ("paths", explained `Paths);
      ("leakage", explained `Leakage);
      ("clusters", explained `Clusters);
    ]

(* --- qor collection --- *)

let test_qor_workload_collection () =
  (* one small workload, the same machinery collect uses *)
  let before = Smt_obs.Metrics.counters () in
  let r = Flow.run Flow.Improved_smt (Suite.tiny lib) in
  let after = Smt_obs.Metrics.counters () in
  let deltas = Qor.counter_delta ~before ~after in
  Alcotest.(check bool) "flow work shows up in the deltas" true
    (match List.assoc_opt "sta.arrival_evals" deltas with Some n -> n > 0 | None -> false);
  List.iter
    (fun (name, d) ->
      Alcotest.(check bool) (name ^ " delta non-zero") true (d <> 0))
    deltas;
  let qor = Qor.qor_of r in
  List.iter
    (fun field ->
      Alcotest.(check bool) (field ^ " present") true (List.mem_assoc field qor))
    [ "area_um2"; "standby_nw"; "wns_ps"; "clusters"; "switches"; "total_switch_width" ]

let test_qor_slugs () =
  Alcotest.(check string) "dual" "dual" (Qor.technique_slug Flow.Dual_vth);
  Alcotest.(check string) "conventional" "conventional"
    (Qor.technique_slug Flow.Conventional_smt);
  Alcotest.(check string) "improved" "improved" (Qor.technique_slug Flow.Improved_smt);
  Alcotest.(check int) "six default workloads" 6 (List.length Qor.default_workloads)

let () =
  Alcotest.run "explain"
    [
      ( "artifacts",
        [
          Alcotest.test_case "match the report" `Quick test_artifacts_match_report;
          Alcotest.test_case "worst path slack is wns" `Quick test_worst_path_slack_is_wns;
        ] );
      ( "render",
        [
          Alcotest.test_case "text reports" `Quick test_text_reports_render;
          Alcotest.test_case "paths json" `Quick test_paths_json;
          Alcotest.test_case "leakage json" `Quick test_leakage_json;
          Alcotest.test_case "clusters json" `Quick test_clusters_json;
          Alcotest.test_case "text and json agree" `Quick test_text_and_json_agree;
        ] );
      ( "qor",
        [
          Alcotest.test_case "workload collection" `Quick test_qor_workload_collection;
          Alcotest.test_case "slugs & workloads" `Quick test_qor_slugs;
        ] );
    ]
