(* Folded-stacks export of Chrome-trace spans, for flamegraph tooling.

   The trace JSON carries no nesting depth, so stacks are reconstructed
   from time containment per tid: events sorted by (start asc, duration
   desc) visit parents before their children, and a frame stays on the
   stack while later events start before it ends.  Each frame contributes
   its self time (duration minus the durations of its direct children) to
   its full stack path; identical paths merge across tids so the folded
   file is stable under worker placement. *)

type span = { sp_name : string; sp_ts : float; sp_dur : float; sp_tid : int }

(* Timestamps and durations are printed with %.3f (microseconds), each
   rounded independently, so a reconstructed end can drift a full lsb
   from the next sibling's start; two lsbs of slack keep adjacent
   mark-delimited stages from being read as nested. *)
let eps = 0.002

type frame = { fr_name : string; fr_end : float; fr_dur : float; mutable fr_child : float }

let fold_tid add spans =
  let stack = ref [] in
  let path () = String.concat ";" (List.rev_map (fun fr -> fr.fr_name) !stack) in
  let pop () =
    match !stack with
    | [] -> ()
    | fr :: rest ->
      add (path ()) (Float.max 0.0 (fr.fr_dur -. fr.fr_child));
      stack := rest
  in
  List.iter
    (fun sp ->
      (* A frame is an ancestor only if it covers the whole new span:
         spans that end first, or that the new span outlives, pop. *)
      while
        match !stack with
        | fr :: _ ->
          fr.fr_end <= sp.sp_ts +. eps || sp.sp_ts +. sp.sp_dur > fr.fr_end +. eps
        | [] -> false
      do
        pop ()
      done;
      (match !stack with
      | parent :: _ -> parent.fr_child <- parent.fr_child +. sp.sp_dur
      | [] -> ());
      stack :=
        { fr_name = sp.sp_name; fr_end = sp.sp_ts +. sp.sp_dur; fr_dur = sp.sp_dur; fr_child = 0.0 }
        :: !stack)
    spans;
  while !stack <> [] do
    pop ()
  done

let fold spans =
  let tbl : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let add path self =
    if path <> "" && self > 0.0 then
      Hashtbl.replace tbl path (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl path))
  in
  let tids =
    List.sort_uniq compare (List.map (fun sp -> sp.sp_tid) spans)
  in
  List.iter
    (fun tid ->
      let mine = List.filter (fun sp -> sp.sp_tid = tid) spans in
      let mine =
        List.stable_sort
          (fun a b ->
            match compare a.sp_ts b.sp_ts with
            | 0 -> compare b.sp_dur a.sp_dur
            | c -> c)
          mine
      in
      fold_tid add mine)
    tids;
  Hashtbl.fold (fun path self acc -> (path, self) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Complete ("ph":"X") events with a positive duration are the spans;
   instants, zero-width spans and other phases carry no self time. *)
let span_of_json v =
  let open Obs_json.Decode in
  match field_opt "ph" string v with
  | Some "X" ->
    let dur = field "dur" number v in
    if dur > 0.0 then
      Some
        {
          sp_name = field "name" string v;
          sp_ts = field "ts" number v;
          sp_dur = dur;
          sp_tid = Option.value ~default:1 (field_opt "tid" int v);
        }
    else None
  | _ -> None

let folded v =
  fold (List.filter_map Fun.id Obs_json.Decode.(field "traceEvents" (list span_of_json) v))

let of_trace_json doc = Obs_json.Decode.decode ~source:"trace" folded doc
let of_file path = Obs_json.Decode.decode_file folded path

(* Folded format: one "stack;path;leaf <weight>" line per unique stack,
   weight in integer microseconds of self time, sorted by stack for
   byte-reproducible output. *)
let render folded =
  let b = Buffer.create 256 in
  List.iter
    (fun (path, self) ->
      let us = Float.round self in
      if us >= 1.0 then Buffer.add_string b (Printf.sprintf "%s %.0f\n" path us))
    folded;
  Buffer.contents b
