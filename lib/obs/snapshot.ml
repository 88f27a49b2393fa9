let schema_version = 1

type workload = {
  w_name : string;
  w_qor : (string * float) list;
  w_counters : (string * int) list;
  w_stage_ms : (string * float) list;
  w_prof : (string * Prof.stats) list;
}

type t = { s_version : int; s_tag : string; s_workloads : workload list }

let sort_fields l = List.sort (fun (a, _) (b, _) -> compare a b) l

let workload ~name ~qor ~counters ~stage_ms =
  {
    w_name = name;
    w_qor = sort_fields qor;
    w_counters = sort_fields counters;
    w_stage_ms = stage_ms;
    w_prof = [];
  }

let make ~tag workloads =
  {
    s_version = schema_version;
    s_tag = tag;
    s_workloads = List.sort (fun a b -> compare a.w_name b.w_name) workloads;
  }

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let workload_json w =
  (* GC attribution trails the other fields, and only when recorded, so
     unprofiled workloads keep their bytes. *)
  let prof =
    match w.w_prof with
    | [] -> []
    | prof ->
      [ ("prof", Obs_json.obj (List.map (fun (stage, st) -> (stage, Prof.stats_json st)) prof)) ]
  in
  Obs_json.obj
    ([
       ("name", Obs_json.str w.w_name);
       ("qor", Obs_json.obj (List.map (fun (k, v) -> (k, Obs_json.num_exact v)) w.w_qor));
       ( "counters",
         Obs_json.obj (List.map (fun (k, v) -> (k, string_of_int v)) w.w_counters) );
       ( "stage_ms",
         Obs_json.arr
           (List.map
              (fun (stage, ms) ->
                Obs_json.obj [ ("stage", Obs_json.str stage); ("ms", Obs_json.num ms) ])
              w.w_stage_ms) );
     ]
    @ prof)

let to_json s =
  Obs_json.obj
    [
      ("schema_version", string_of_int s.s_version);
      ("tag", Obs_json.str s.s_tag);
      ("workloads", Obs_json.arr (List.map workload_json s.s_workloads));
    ]

let write path s = Obs_json.to_file path (to_json s)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field_of name doc =
  match Obs_json.member name doc with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "snapshot: missing field %S" name)

let num_of name doc =
  let* v = field_of name doc in
  match Obs_json.to_num v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "snapshot: field %S is not a number" name)

let str_of name doc =
  let* v = field_of name doc in
  match Obs_json.to_str v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "snapshot: field %S is not a string" name)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let num_fields name doc =
  let* v = field_of name doc in
  match v with
  | Obs_json.Obj fields ->
    map_result
      (fun (k, v) ->
        match Obs_json.to_num v with
        | Some f -> Ok (k, f)
        | None -> Error (Printf.sprintf "snapshot: %s.%s is not a number" name k))
      fields
  | _ -> Error (Printf.sprintf "snapshot: field %S is not an object" name)

let workload_of_json doc =
  let* name = str_of "name" doc in
  let* qor = num_fields "qor" doc in
  let* counters = num_fields "counters" doc in
  let counters = List.map (fun (k, v) -> (k, int_of_float v)) counters in
  let* stage_ms =
    let* v = field_of "stage_ms" doc in
    match v with
    | Obs_json.Arr items ->
      map_result
        (fun item ->
          let* stage = str_of "stage" item in
          let* ms = num_of "ms" item in
          Ok (stage, ms))
        items
    | _ -> Error "snapshot: stage_ms is not an array"
  in
  let* prof =
    match Obs_json.member "prof" doc with
    | None -> Ok []
    | Some (Obs_json.Obj fields) ->
      map_result
        (fun (stage, v) ->
          let* st = Prof.stats_of_json v in
          Ok (stage, st))
        fields
    | Some _ -> Error "snapshot: prof is not an object"
  in
  Ok { (workload ~name ~qor ~counters ~stage_ms) with w_prof = prof }

let of_doc doc =
  let* version = num_of "schema_version" doc in
  let* tag = str_of "tag" doc in
  let* workloads =
    let* v = field_of "workloads" doc in
    match v with
    | Obs_json.Arr items -> map_result workload_of_json items
    | _ -> Error "snapshot: workloads is not an array"
  in
  Ok { s_version = int_of_float version; s_tag = tag; s_workloads = workloads }

let of_json s = Result.bind (Obs_json.parse s) of_doc
let read path = Result.bind (Obs_json.of_file path) of_doc

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

type severity = Advisory | Regression

type delta = {
  d_workload : string;
  d_field : string;
  d_baseline : float option;
  d_current : float option;
  d_severity : severity;
  d_note : string;
}

(* "Exact" for QoR floats means exact up to serialization: %.17g round-trips,
   so the tolerance below only absorbs a baseline written by an older
   compact emitter, never a real QoR drift. *)
let qor_rel_tolerance = 1e-9

(* Wall-clock is advisory: flag a stage only when it moved by more than
   this factor and the time is above the scheduler-noise floor. *)
let stage_ms_ratio = 1.5

let stage_ms_floor = 5.0

let qor_equal a b =
  a = b
  || (Float.is_nan a && Float.is_nan b)
  || Float.abs (a -. b) <= qor_rel_tolerance *. Float.max (Float.abs a) (Float.abs b)

let delta ?baseline ?current ~severity ~note workload field =
  {
    d_workload = workload;
    d_field = field;
    d_baseline = baseline;
    d_current = current;
    d_severity = severity;
    d_note = note;
  }

let compare_fields ~workload ~prefix ~severity ~equal ~note_changed base cur =
  let deltas = ref [] in
  let push d = deltas := d :: !deltas in
  List.iter
    (fun (k, b) ->
      let field = prefix ^ k in
      match List.assoc_opt k cur with
      | None ->
        push
          (delta ~baseline:b ~severity ~note:"field missing from current run" workload field)
      | Some c ->
        if not (equal b c) then
          push (delta ~baseline:b ~current:c ~severity ~note:note_changed workload field))
    base;
  List.iter
    (fun (k, c) ->
      if not (List.mem_assoc k base) then
        push
          (delta ~current:c ~severity ~note:"field absent from baseline" workload
             (prefix ^ k)))
    cur;
  List.rev !deltas

let compare_workload base cur =
  let name = base.w_name in
  let qor =
    compare_fields ~workload:name ~prefix:"qor." ~severity:Regression ~equal:qor_equal
      ~note_changed:"QoR drifted" base.w_qor cur.w_qor
  in
  let counters =
    compare_fields ~workload:name ~prefix:"counter." ~severity:Regression
      ~equal:(fun a b -> a = b)
      ~note_changed:"work counter changed"
      (List.map (fun (k, v) -> (k, float_of_int v)) base.w_counters)
      (List.map (fun (k, v) -> (k, float_of_int v)) cur.w_counters)
  in
  let stages =
    compare_fields ~workload:name ~prefix:"stage_ms." ~severity:Advisory
      ~equal:(fun b c ->
        Float.max b c <= stage_ms_floor
        || (b > 0.0 && c /. b <= stage_ms_ratio && b /. c <= stage_ms_ratio))
      ~note_changed:"wall-clock moved (advisory)" base.w_stage_ms cur.w_stage_ms
  in
  qor @ counters @ stages

let compare ~baseline ~current =
  let version =
    if baseline.s_version <> current.s_version then
      [
        delta
          ~baseline:(float_of_int baseline.s_version)
          ~current:(float_of_int current.s_version)
          ~severity:Regression ~note:"snapshot schema version mismatch" "-" "schema_version";
      ]
    else []
  in
  let per_workload =
    List.concat_map
      (fun base ->
        match List.find_opt (fun w -> w.w_name = base.w_name) current.s_workloads with
        | Some cur -> compare_workload base cur
        | None ->
          [
            delta ~severity:Regression ~note:"workload missing from current run" base.w_name
              "workload";
          ])
      baseline.s_workloads
  in
  let added =
    List.filter_map
      (fun cur ->
        if List.exists (fun w -> w.w_name = cur.w_name) baseline.s_workloads then None
        else
          Some
            (delta ~severity:Advisory ~note:"workload absent from baseline" cur.w_name
               "workload"))
      current.s_workloads
  in
  version @ per_workload @ added

let regressions deltas = List.filter (fun d -> d.d_severity = Regression) deltas
let has_regressions deltas = regressions deltas <> []

let render_value = function
  | None -> "-"
  | Some v ->
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.6g" v

let render_delta d =
  Printf.sprintf "%s %s/%s: %s -> %s (%s)"
    (match d.d_severity with Regression -> "REGRESSION" | Advisory -> "advisory  ")
    d.d_workload d.d_field (render_value d.d_baseline) (render_value d.d_current) d.d_note

let render deltas =
  let regs = List.length (regressions deltas) in
  let advisories = List.length deltas - regs in
  (* Name-set differences are called out in the summary, not only in the
     per-delta lines: a disappeared workload is the easiest regression to
     scroll past. *)
  let disappeared, added =
    List.fold_left
      (fun (dis, add) d ->
        if d.d_field <> "workload" then (dis, add)
        else
          match d.d_severity with
          | Regression -> (dis + 1, add)
          | Advisory -> (dis, add + 1))
      (0, 0) deltas
  in
  let b = Buffer.create 256 in
  List.iter
    (fun d ->
      Buffer.add_string b (render_delta d);
      Buffer.add_char b '\n')
    deltas;
  Buffer.add_string b
    (Printf.sprintf "bench-compare: %d regression%s, %d advisor%s%s%s\n" regs
       (if regs = 1 then "" else "s")
       advisories
       (if advisories = 1 then "y" else "ies")
       (if disappeared > 0 then
          Printf.sprintf "; %d workload%s disappeared" disappeared
            (if disappeared = 1 then "" else "s")
        else "")
       (if added > 0 then
          Printf.sprintf "; %d new workload%s" added (if added = 1 then "" else "s")
        else ""));
  Buffer.contents b
