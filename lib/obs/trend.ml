(* Trend analysis over a run ledger (or a directory of snapshots): per
   workload, per metric, the value's trajectory across records, plus the
   same Regression/Advisory classification Snapshot.compare applies to a
   2-point comparison, extended to every adjacent pair of an N-point
   series.  Records are ordered by (time, file order), so an injected
   clock makes the whole analysis byte-reproducible. *)

type point = { p_time : float; p_id : string; p_value : float }

type status = Steady | Advisory | Regression

type series = {
  sr_workload : string;
  sr_field : string;  (* "qor.area_um2" | "counter.<c>" | "stage_ms.<s>" *)
  sr_points : point list;  (* time order *)
  sr_status : status;
}

let status_name = function
  | Steady -> "steady"
  | Advisory -> "advisory"
  | Regression -> "REGRESSION"

(* ------------------------------------------------------------------ *)
(* Sources                                                             *)
(* ------------------------------------------------------------------ *)

let ordered records =
  List.stable_sort
    (fun (a : Ledger.record) b -> compare a.Ledger.r_time b.Ledger.r_time)
    records

(* A directory of BENCH_*.json snapshots reads as a pseudo-ledger: one
   record per file, timestamped by filename order (snapshots carry no
   clock of their own).  A file that does not decode stops the read with
   its own located error: a trend that silently lost a point would pass
   its gate on the snapshots that remain. *)
let of_snapshot_dir dir =
  let rec records i = function
    | [] -> Ok []
    | name :: rest -> (
      match Snapshot.read (Filename.concat dir name) with
      | Error e -> Error e
      | Ok snap ->
        Result.map
          (List.cons
             (Ledger.make ~time:(float_of_int i) ~tag:snap.Snapshot.s_tag ~kind:"snapshot"
                snap.Snapshot.s_workloads))
          (records (i + 1) rest))
  in
  match Sys.readdir dir with
  | exception Sys_error e -> Error e
  | names ->
    Array.to_list names
    |> List.filter (fun n -> Filename.check_suffix n ".json")
    |> List.sort compare |> records 0

(* ------------------------------------------------------------------ *)
(* Series extraction                                                   *)
(* ------------------------------------------------------------------ *)

let workload_fields (w : Snapshot.workload) =
  List.map (fun (k, v) -> ("qor." ^ k, v)) w.Snapshot.w_qor
  @ List.map (fun (k, v) -> ("counter." ^ k, float_of_int v)) w.Snapshot.w_counters
  @ List.map (fun (k, v) -> ("stage_ms." ^ k, v)) w.Snapshot.w_stage_ms

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  nl = 0
  ||
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  at 0

let workload_names ?(filter = "") records =
  List.fold_left
    (fun acc (r : Ledger.record) ->
      List.fold_left
        (fun acc (w : Snapshot.workload) ->
          let n = w.Snapshot.w_name in
          if List.mem n acc then acc else n :: acc)
        acc r.Ledger.r_workloads)
    [] records
  |> List.filter (contains ~needle:filter)
  |> List.sort compare

(* Adjacent-pair classification, reusing Snapshot.compare verbatim on
   single-workload snapshots: the rules (exact QoR/counter equality,
   ratio-with-floor advisory wall-clock) stay in one place. *)
let transitions ~workload records =
  let snaps =
    List.filter_map
      (fun (r : Ledger.record) ->
        List.find_opt
          (fun (w : Snapshot.workload) -> w.Snapshot.w_name = workload)
          r.Ledger.r_workloads
        |> Option.map (fun w -> (r.Ledger.r_id, Snapshot.make ~tag:r.Ledger.r_id [ w ])))
      (ordered records)
  in
  let rec pairs = function
    | (id0, s0) :: ((id1, s1) :: _ as rest) ->
      (id0, id1, Snapshot.compare ~baseline:s0 ~current:s1) :: pairs rest
    | _ -> []
  in
  pairs snaps

let field_status transs field =
  List.fold_left
    (fun acc (_, _, deltas) ->
      List.fold_left
        (fun acc (d : Snapshot.delta) ->
          if d.Snapshot.d_field <> field then acc
          else
            match (acc, d.Snapshot.d_severity) with
            | (Regression, _) | (_, Snapshot.Regression) -> Regression
            | _ -> Advisory)
        acc deltas)
    Steady transs

(* The series of one exactly-named workload over time-ordered records. *)
let analyze_workload ~metric ~qor_only records wname =
  let per_record =
        List.filter_map
          (fun (r : Ledger.record) ->
            List.find_opt
              (fun (w : Snapshot.workload) -> w.Snapshot.w_name = wname)
              r.Ledger.r_workloads
            |> Option.map (fun w -> (r.Ledger.r_time, r.Ledger.r_id, workload_fields w)))
          records
      in
      let fields =
        List.fold_left
          (fun acc (_, _, fs) ->
            List.fold_left
              (fun acc (k, _) -> if List.mem k acc then acc else k :: acc)
              acc fs)
          [] per_record
        |> List.sort compare
      in
      let selected =
        List.filter
          (fun f ->
            (if metric = "" then
               (not qor_only) || String.length f >= 4 && String.sub f 0 4 = "qor."
             else contains ~needle:metric f))
          fields
      in
      let transs = transitions ~workload:wname records in
      List.filter_map
        (fun field ->
          let points =
            List.filter_map
              (fun (t, id, fs) ->
                List.assoc_opt field fs
                |> Option.map (fun v -> { p_time = t; p_id = id; p_value = v }))
              per_record
          in
          if points = [] then None
          else
            Some
              {
                sr_workload = wname;
                sr_field = field;
                sr_points = points;
                sr_status = field_status transs field;
              })
        selected

let analyze ?(metric = "") ?(workload = "") ?(qor_only = true) records =
  let records = ordered records in
  List.concat_map
    (analyze_workload ~metric ~qor_only records)
    (workload_names ~filter:workload records)

let regressions records =
  List.concat_map
    (fun wname ->
      List.concat_map
        (fun (id0, id1, deltas) ->
          List.filter_map
            (fun (d : Snapshot.delta) ->
              if d.Snapshot.d_severity = Snapshot.Regression then
                Some (id0, id1, d)
              else None)
            deltas)
        (transitions ~workload:wname records))
    (workload_names records)

let has_regressions records = regressions records <> []

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let minmax points =
  List.fold_left
    (fun (lo, hi) p -> (Float.min lo p.p_value, Float.max hi p.p_value))
    (infinity, neg_infinity) points

let render series =
  let header = [ "Workload"; "Metric"; "N"; "First"; "Latest"; "Best"; "Worst"; "Status" ] in
  let rows =
    List.map
      (fun s ->
        let lo, hi = minmax s.sr_points in
        let first = (List.hd s.sr_points).p_value in
        let latest = (List.nth s.sr_points (List.length s.sr_points - 1)).p_value in
        [
          s.sr_workload;
          s.sr_field;
          string_of_int (List.length s.sr_points);
          render_value first;
          render_value latest;
          render_value lo;
          render_value hi;
          status_name s.sr_status;
        ])
      series
  in
  Smt_util.Text_table.render ~header rows

let to_json series =
  Obs_json.arr
    (List.map
       (fun s ->
         let lo, hi = minmax s.sr_points in
         Obs_json.obj
           [
             ("workload", Obs_json.str s.sr_workload);
             ("metric", Obs_json.str s.sr_field);
             ("status", Obs_json.str (status_name s.sr_status));
             ("best", Obs_json.num_exact lo);
             ("worst", Obs_json.num_exact hi);
             ( "points",
               Obs_json.arr
                 (List.map
                    (fun p ->
                      Obs_json.obj
                        [
                          ("time", Obs_json.num_exact p.p_time);
                          ("id", Obs_json.str p.p_id);
                          ("value", Obs_json.num_exact p.p_value);
                        ])
                    s.sr_points) );
           ])
       series)

let render_regressions records =
  let regs = regressions records in
  if regs = [] then "trend: no regressions\n"
  else
    String.concat ""
      (List.map
         (fun (id0, id1, d) ->
           Printf.sprintf "%s -> %s: %s\n" id0 id1 (Snapshot.render_delta d))
         regs)
