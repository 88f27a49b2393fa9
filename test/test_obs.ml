(* Tests for the observability layer: Trace spans and Chrome-trace export,
   the Metrics registry, and Log level handling.

   The trace tests validate the exported JSON with a small recursive-descent
   parser (no JSON library in the dependency set) — well-formedness here
   means "parses, and every event is a complete X event with sane
   timestamps", which is exactly what Perfetto requires to load it. *)

module Trace = Smt_obs.Trace
module Metrics = Smt_obs.Metrics
module Log = Smt_obs.Log
module Obs_json = Smt_obs.Obs_json

(* ------------------------------------------------------------------ *)
(* A minimal JSON parser, for validating emitted documents             *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' ->
          incr pos;
          Buffer.contents b
        | '\\' ->
          incr pos;
          if !pos >= n then fail "dangling escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
            if !pos + 4 >= n then fail "truncated \\u escape";
            (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
            | Some code ->
              pos := !pos + 4;
              if code < 128 then Buffer.add_char b (Char.chr code)
              else Buffer.add_char b '?' (* lossy is fine for validation *)
            | None -> fail "bad \\u escape")
          | _ -> fail "unknown escape");
          incr pos;
          go ()
        | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Str (parse_string ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some _ -> number ()
    | None -> fail "unexpected end of input"
  and lit word v =
    let k = String.length word in
    if !pos + k <= n && String.sub s !pos k = word then begin
      pos := !pos + k;
      v
    end
    else fail ("expected " ^ word)
  and number () =
    let start = !pos in
    let is_num c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && is_num s.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      incr pos;
      Arr []
    end
    else begin
      let items = ref [ value () ] in
      skip_ws ();
      while peek () = Some ',' do
        incr pos;
        items := value () :: !items;
        skip_ws ()
      done;
      expect ']';
      Arr (List.rev !items)
    end
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      incr pos;
      Obj []
    end
    else begin
      let field () =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        let v = value () in
        (k, v)
      in
      let fields = ref [ field () ] in
      skip_ws ();
      while peek () = Some ',' do
        incr pos;
        fields := field () :: !fields;
        skip_ws ()
      done;
      expect '}';
      Obj (List.rev !fields)
    end
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

(* A little busy-work so spans have nonzero width even on coarse clocks. *)
let spin () =
  let acc = ref 0.0 in
  for i = 1 to 20_000 do
    acc := !acc +. sqrt (float_of_int i)
  done;
  ignore !acc

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_disabled_sink_records_nothing () =
  Trace.disable ();
  Trace.clear ();
  let r = Trace.with_span "ghost" (fun () -> 42) in
  Trace.complete ~name:"ghost2" ~ts_us:0.0 ~dur_us:1.0 ();
  Trace.instant "ghost3";
  Alcotest.(check int) "value passes through" 42 r;
  Alcotest.(check int) "no events recorded" 0 (List.length (Trace.events ()))

let test_span_nesting_and_durations () =
  Trace.enable ();
  Trace.clear ();
  let r =
    Trace.with_span "outer" (fun () ->
        spin ();
        let inner = Trace.with_span "inner" (fun () -> spin (); "ok") in
        spin ();
        inner)
  in
  Trace.disable ();
  Alcotest.(check string) "value passes through" "ok" r;
  match Trace.events () with
  | [ inner; outer ] ->
    (* completion order: inner finishes first *)
    Alcotest.(check string) "inner first" "inner" inner.Trace.ev_name;
    Alcotest.(check string) "outer second" "outer" outer.Trace.ev_name;
    Alcotest.(check int) "outer at depth 0" 0 outer.Trace.ev_depth;
    Alcotest.(check int) "inner at depth 1" 1 inner.Trace.ev_depth;
    Alcotest.(check bool) "durations non-negative" true
      (inner.Trace.ev_dur_us >= 0.0 && outer.Trace.ev_dur_us >= 0.0);
    Alcotest.(check bool) "inner starts after outer" true
      (inner.Trace.ev_ts_us >= outer.Trace.ev_ts_us);
    Alcotest.(check bool) "inner contained in outer" true
      (inner.Trace.ev_ts_us +. inner.Trace.ev_dur_us
      <= outer.Trace.ev_ts_us +. outer.Trace.ev_dur_us +. 0.5);
    Alcotest.(check bool) "inner no longer than outer" true
      (inner.Trace.ev_dur_us <= outer.Trace.ev_dur_us +. 0.5)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_span_survives_exception () =
  Trace.enable ();
  Trace.clear ();
  (try Trace.with_span "raiser" (fun () -> failwith "boom") with Failure _ -> ());
  let after = Trace.with_span "after" (fun () -> ()) in
  Trace.disable ();
  Alcotest.(check unit) "subsequent span still works" () after;
  match Trace.events () with
  | [ raiser; after ] ->
    Alcotest.(check string) "raising span recorded" "raiser" raiser.Trace.ev_name;
    Alcotest.(check (option string)) "flagged as raised" (Some "raised")
      (List.assoc_opt "error" raiser.Trace.ev_args);
    Alcotest.(check int) "depth restored for later spans" 0 after.Trace.ev_depth
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_now_us_monotone () =
  let a = Trace.now_us () in
  spin ();
  let b = Trace.now_us () in
  Alcotest.(check bool) "clock does not go backwards" true (b >= a)

let test_chrome_trace_json_wellformed () =
  Trace.enable ();
  Trace.clear ();
  Trace.with_span "alpha" ~args:[ ("k", "v\"with\\quotes\n") ] (fun () ->
      spin ();
      Trace.with_span "beta" spin);
  Trace.complete ~name:"explicit stage" ~ts_us:(Trace.now_us ()) ~dur_us:12.5 ();
  Trace.disable ();
  let doc = parse_json (Trace.to_json ()) in
  match field "traceEvents" doc with
  | Some (Arr events) ->
    Alcotest.(check int) "all events exported" 3 (List.length events);
    List.iter
      (fun ev ->
        (match field "ph" ev with
        | Some (Str "X") -> ()
        | _ -> Alcotest.fail "every event must be a complete X event");
        (match (field "ts" ev, field "dur" ev) with
        | Some (Num ts), Some (Num dur) ->
          Alcotest.(check bool) "sane timestamps" true (ts >= 0.0 && dur >= 0.0)
        | _ -> Alcotest.fail "ts/dur must be numbers");
        match field "name" ev with
        | Some (Str name) -> Alcotest.(check bool) "non-empty name" true (name <> "")
        | _ -> Alcotest.fail "name must be a string")
      events
  | _ -> Alcotest.fail "traceEvents array missing"

(* The same export, this time validated through the library's own parser
   (Obs_json) instead of the local one, with the structural property
   Perfetto renders from: parent spans contain their children, siblings
   run one after the other. *)
let test_trace_export_nesting_consistent () =
  Trace.enable ();
  Trace.clear ();
  Trace.with_span "outer" (fun () ->
      spin ();
      Trace.with_span "mid" (fun () ->
          spin ();
          Trace.with_span "inner" spin);
      Trace.with_span "sibling" spin);
  Trace.disable ();
  let doc = Obs_json.parse_exn (Trace.to_json ()) in
  let events =
    match Obs_json.member "traceEvents" doc with
    | Some (Obs_json.Arr evs) -> evs
    | _ -> Alcotest.fail "traceEvents array missing"
  in
  Alcotest.(check int) "all four spans exported" 4 (List.length events);
  let str name ev =
    match Option.bind (Obs_json.member name ev) Obs_json.to_str with
    | Some s -> s
    | None -> Alcotest.failf "missing string field %S" name
  in
  let num name ev =
    match Obs_json.Decode.(decode ~source:"trace" (field name number) ev) with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun ev ->
      Alcotest.(check string) "complete X event" "X" (str "ph" ev);
      Alcotest.(check bool) "timestamp non-negative" true (num "ts" ev >= 0.0);
      Alcotest.(check bool) "duration non-negative" true (num "dur" ev >= 0.0))
    events;
  let find name =
    match List.find_opt (fun ev -> str "name" ev = name) events with
    | Some ev -> ev
    | None -> Alcotest.failf "span %S not exported" name
  in
  let eps = 0.5 in
  let starts ev = num "ts" ev in
  let ends ev = num "ts" ev +. num "dur" ev in
  let contains outer inner =
    starts outer <= starts inner +. eps && ends inner <= ends outer +. eps
  in
  let outer = find "outer" and mid = find "mid" in
  let inner = find "inner" and sibling = find "sibling" in
  Alcotest.(check bool) "outer contains mid" true (contains outer mid);
  Alcotest.(check bool) "mid contains inner" true (contains mid inner);
  Alcotest.(check bool) "outer contains sibling" true (contains outer sibling);
  Alcotest.(check bool) "siblings do not overlap" true (ends mid <= starts sibling +. eps)

(* ------------------------------------------------------------------ *)
(* Obs_json                                                            *)
(* ------------------------------------------------------------------ *)

let test_obs_json_roundtrip () =
  let doc =
    Obs_json.obj
      [
        ("s", Obs_json.str "a\"b\\c\nd\tcontrol:\001");
        ("n", Obs_json.num_exact 0.1);
        ("inf", Obs_json.num infinity);
        ("t", Obs_json.boolean true);
        ("l", Obs_json.arr [ Obs_json.num 1.5; Obs_json.str "x"; "null" ]);
        ("o", Obs_json.obj []);
      ]
  in
  match Obs_json.parse doc with
  | Error e -> Alcotest.fail e
  | Ok v ->
    Alcotest.(check (option string)) "escaped string round-trips"
      (Some "a\"b\\c\nd\tcontrol:\001")
      (Option.bind (Obs_json.member "s" v) Obs_json.to_str);
    (match Obs_json.Decode.(decode ~source:"doc" (field "n" number) v) with
    | Ok f -> Alcotest.(check bool) "num_exact round-trips exactly" true (f = 0.1)
    | Error e -> Alcotest.fail e);
    (match Obs_json.member "inf" v with
    | Some Obs_json.Null -> ()
    | _ -> Alcotest.fail "non-finite emitted as null");
    (match Obs_json.member "t" v with
    | Some (Obs_json.Bool true) -> ()
    | _ -> Alcotest.fail "boolean");
    (match Obs_json.member "l" v with
    | Some (Obs_json.Arr [ Obs_json.Num _; Obs_json.Str "x"; Obs_json.Null ]) -> ()
    | _ -> Alcotest.fail "array shape");
    match Obs_json.member "o" v with
    | Some (Obs_json.Obj []) -> ()
    | _ -> Alcotest.fail "empty object"

let test_obs_json_num_exact () =
  List.iter
    (fun f ->
      match Obs_json.parse (Obs_json.num_exact f) with
      | Ok (Obs_json.Num g) ->
        Alcotest.(check bool) (Printf.sprintf "%h round-trips" f) true (f = g)
      | _ -> Alcotest.failf "%h did not parse back as a number" f)
    [ 0.1; 1.0 /. 3.0; 1e300; -1.5e-300; 12345.678901234567; 0.0; -42.0 ]

let test_obs_json_rejects_malformed () =
  List.iter
    (fun s ->
      match Obs_json.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,2] trailing"; "{\"a\":}"; "nul"; "\"unterminated"; "{'a':1}" ];
  match Obs_json.parse_exn "{" with
  | exception Obs_json.Parse_error _ -> ()
  | _ -> Alcotest.fail "parse_exn did not raise"

(* Numbers follow JSON's grammar and a \u escape takes exactly four hex
   digits; being readable by [float_of_string] or [int_of_string] is not
   enough.  A baseline whose counter read "flow.runs":+01. used to load,
   as 1, and compare clean against the original. *)
let test_obs_json_number_grammar () =
  let rejects s expected =
    match Obs_json.parse s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error e -> Alcotest.(check string) s expected e
  in
  rejects "[+1]" "bad number at offset 1";
  rejects "[01]" "bad number at offset 2";
  rejects "[-01]" "bad number at offset 3";
  rejects "[.5]" "bad number at offset 1";
  rejects "[1.]" "bad number at offset 3";
  rejects "[1.e5]" "bad number at offset 3";
  rejects "[1e]" "bad number at offset 3";
  rejects "[1e+]" "bad number at offset 4";
  rejects "[-]" "bad number at offset 2";
  rejects {|["\u12_3"]|} "bad \\u escape at offset 3";
  rejects {|["\u+041"]|} "bad \\u escape at offset 3";
  rejects {|["\u004"]|} "bad \\u escape at offset 3";
  List.iter
    (fun (s, f) ->
      match Obs_json.parse s with
      | Ok (Obs_json.Num g) -> Alcotest.(check (float 0.0)) s f g
      | _ -> Alcotest.failf "%S did not parse as a number" s)
    [
      ("0", 0.0); ("-0", -0.0); ("10", 10.0); ("0.5", 0.5); ("1.5", 1.5); ("1e5", 1e5);
      ("1E+5", 1e5); ("-1.25e-3", -1.25e-3); ("2.5E-300", 2.5e-300);
    ];
  (match Obs_json.parse {|"\u0041\u00e9"|} with
  | Ok (Obs_json.Str s) -> Alcotest.(check string) "hex escapes" "A?" s
  | _ -> Alcotest.fail "\\u escapes did not parse");
  match
    Obs_json.Decode.(
      decode_string ~source:"BENCH_x.json" (field "counters" (dict int))
        {|{"counters":{"flow.runs":+01.}}|})
  with
  | Ok _ -> Alcotest.fail "a counter written +01. loaded"
  | Error e -> Alcotest.(check string) "located" "BENCH_x.json: $: bad number at offset 25" e

(* [open_in] succeeds on a directory: the failing read after it must be
   an [Error] that names the path (flame and lint --baseline exit 2 with
   it), not an escaped [Sys_error]. *)
let test_obs_json_of_file_directory () =
  let dir = Filename.get_temp_dir_name () in
  match Obs_json.of_file dir with
  | Ok _ -> Alcotest.fail "parsed a directory"
  | Error e ->
    Alcotest.(check bool) (e ^ " names the path") true (String.starts_with ~prefix:dir e)

(* The durable writer replaces a longer file whole (no stale tail), and
   neither a write nor a failed one (a rename onto a non-empty directory)
   leaves a [*.tmp.*] staging file. *)
let test_obs_json_write_durable () =
  let dir = Filename.temp_file "smt_durable" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "doc.json" in
  let sub = Filename.concat dir "sub" in
  let entries () = List.sort compare (Array.to_list (Sys.readdir dir)) in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove (Filename.concat sub "keep") with Sys_error _ -> ());
      (try Unix.rmdir sub with Unix.Unix_error _ -> ());
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      Obs_json.write_durable path (String.make 4096 'x');
      Obs_json.write_durable path "{\"v\":2}\n";
      Alcotest.(check (result string string)) "replaced whole" (Ok "{\"v\":2}\n")
        (Obs_json.read_file path);
      Alcotest.(check (list string)) "no staging file left" [ "doc.json" ] (entries ());
      Unix.mkdir sub 0o755;
      Obs_json.to_file (Filename.concat sub "keep") "";
      (match Obs_json.write_durable sub "{}" with
      | () -> Alcotest.fail "renamed over a non-empty directory"
      | exception Sys_error _ -> ());
      Alcotest.(check (list string)) "none after a failed write either"
        [ "doc.json"; "sub" ] (entries ()))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_counter_accumulation () =
  let c = Metrics.counter "test_obs.counter" in
  let base = Metrics.counter_value c in
  Metrics.incr c;
  Metrics.incr ~by:41 c;
  Alcotest.(check int) "accumulates" (base + 42) (Metrics.counter_value c);
  Alcotest.(check bool) "registration is idempotent" true
    (Metrics.counter_value (Metrics.counter "test_obs.counter") = base + 42)

(* The registry dump read back through the JSON decoder. *)
let metrics_json d =
  match Obs_json.Decode.decode_string ~source:"metrics" d (Metrics.to_json ()) with
  | Ok v -> v
  | Error e -> Alcotest.fail e

let test_histogram_accumulation () =
  let h = Metrics.histogram ~buckets:[ 1.0; 10.0; 100.0 ] "test_obs.hist" in
  List.iter (Metrics.observe h) [ 0.5; 5.0; 50.0; 500.0 ];
  let count, sum, hits =
    metrics_json
      Obs_json.Decode.(
        field "histograms"
          (field "test_obs.hist" (fun v ->
               ( field "count" int v,
                 field "sum" number v,
                 field "buckets" (list (field "count" int)) v ))))
  in
  Alcotest.(check int) "count" 4 count;
  Alcotest.(check (float 1e-9)) "sum" 555.5 sum;
  Alcotest.(check (list int)) "one hit per bucket, +inf last" [ 1; 1; 1; 1 ] hits;
  Alcotest.(check (list int)) "the dump's buckets are the live hits" hits
    (Array.to_list (Metrics.histogram_hits h))

let test_json_names_sorted () =
  ignore (Metrics.counter "test_obs.zz");
  ignore (Metrics.counter "test_obs.aa");
  ignore (Metrics.histogram "test_obs.zz_hist");
  ignore (Metrics.histogram "test_obs.aa_hist");
  List.iter
    (fun section ->
      let names = List.map fst (metrics_json Obs_json.Decode.(field section (dict Fun.id))) in
      Alcotest.(check (list string)) (section ^ " sorted by name") (List.sort compare names)
        names)
    [ "counters"; "histograms" ]

let test_metrics_json_parses () =
  ignore (Metrics.counter "test_obs.json_counter");
  ignore (Metrics.histogram "test_obs.json_hist");
  let doc = parse_json (Metrics.to_json ()) in
  (match doc with
  | Obj sections ->
    Alcotest.(check (list string)) "sections" [ "counters"; "histograms" ]
      (List.map fst sections)
  | _ -> Alcotest.fail "not an object");
  (match field "counters" doc with
  | Some (Obj counters) ->
    Alcotest.(check bool) "counter present" true
      (List.mem_assoc "test_obs.json_counter" counters)
  | _ -> Alcotest.fail "counters object missing");
  match field "histograms" doc with
  | Some (Obj hists) -> (
    match List.assoc_opt "test_obs.json_hist" hists with
    | Some h -> (
      match field "buckets" h with
      | Some (Arr (_ :: _)) -> ()
      | _ -> Alcotest.fail "histogram buckets missing")
    | None -> Alcotest.fail "histogram missing")
  | _ -> Alcotest.fail "histograms object missing"

(* ------------------------------------------------------------------ *)
(* Log                                                                 *)
(* ------------------------------------------------------------------ *)

let test_log_level_parsing () =
  List.iter
    (fun (s, expected) ->
      match Log.level_of_string s with
      | Ok l -> Alcotest.(check string) s (Log.level_name expected) (Log.level_name l)
      | Error e -> Alcotest.fail e)
    [
      ("debug", Log.Debug); ("INFO", Log.Info); ("Warn", Log.Warn); ("warning", Log.Warn);
      ("error", Log.Error); ("off", Log.Off); ("none", Log.Off);
    ];
  match Log.level_of_string "shout" with
  | Ok _ -> Alcotest.fail "bogus level accepted"
  | Error _ -> ()

let test_log_level_gating () =
  let saved = Log.level () in
  Log.set_level Log.Warn;
  Alcotest.(check bool) "debug gated below warn" false (Log.enabled Log.Debug);
  Alcotest.(check bool) "warn passes at warn" true (Log.enabled Log.Warn);
  Alcotest.(check bool) "error passes at warn" true (Log.enabled Log.Error);
  Log.set_level Log.Off;
  Alcotest.(check bool) "everything gated at off" false (Log.enabled Log.Error);
  Log.set_level saved

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "disabled sink records nothing" `Quick
            test_disabled_sink_records_nothing;
          Alcotest.test_case "span nesting & durations" `Quick test_span_nesting_and_durations;
          Alcotest.test_case "span survives exception" `Quick test_span_survives_exception;
          Alcotest.test_case "clock monotone" `Quick test_now_us_monotone;
          Alcotest.test_case "chrome trace JSON well-formed" `Quick
            test_chrome_trace_json_wellformed;
          Alcotest.test_case "exported nesting consistent" `Quick
            test_trace_export_nesting_consistent;
        ] );
      ( "obs-json",
        [
          Alcotest.test_case "emit/parse round-trip" `Quick test_obs_json_roundtrip;
          Alcotest.test_case "num_exact round-trips" `Quick test_obs_json_num_exact;
          Alcotest.test_case "rejects malformed input" `Quick test_obs_json_rejects_malformed;
          Alcotest.test_case "number and escape grammar" `Quick test_obs_json_number_grammar;
          Alcotest.test_case "of_file on a directory is an error" `Quick
            test_obs_json_of_file_directory;
          Alcotest.test_case "durable write replaces whole" `Quick
            test_obs_json_write_durable;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter accumulation" `Quick test_counter_accumulation;
          Alcotest.test_case "histogram accumulation" `Quick test_histogram_accumulation;
          Alcotest.test_case "JSON names sorted" `Quick test_json_names_sorted;
          Alcotest.test_case "metrics JSON parses" `Quick test_metrics_json_parses;
        ] );
      ( "log",
        [
          Alcotest.test_case "level parsing" `Quick test_log_level_parsing;
          Alcotest.test_case "level gating" `Quick test_log_level_gating;
        ] );
    ]
