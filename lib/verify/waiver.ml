type entry = {
  w_rule : string;
  w_loc : string;
  w_expires : (int * int * int) option;
  w_line : int;
}

type t = entry list

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun tok -> tok <> "")

let parse_date s =
  match String.split_on_char '-' s with
  | [ y; m; d ] -> (
    match (int_of_string_opt y, int_of_string_opt m, int_of_string_opt d) with
    | Some y, Some m, Some d
      when String.length s = 10 && y >= 1970 && m >= 1 && m <= 12 && d >= 1 && d <= 31 ->
      Some (y, m, d)
    | _ -> None)
  | _ -> None

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go (lineno + 1) acc rest
      else
        let mk rule loc expires =
          if rule <> "*" && Rules.find rule = None then
            Error
              (Printf.sprintf "waiver line %d: unknown rule id %s (known: %s)" lineno rule
                 (String.concat ", " (List.map (fun (r : Rules.rule) -> r.Rules.id) Rules.all)))
          else
            go (lineno + 1)
              ({ w_rule = rule; w_loc = loc; w_expires = expires; w_line = lineno } :: acc)
              rest
        in
        match split_ws line with
        | [ rule; loc ] -> mk rule loc None
        | [ rule; loc; opt ]
          when String.length opt > 8 && String.sub opt 0 8 = "expires=" -> (
          let date = String.sub opt 8 (String.length opt - 8) in
          match parse_date date with
          | Some d -> mk rule loc (Some d)
          | None ->
            Error
              (Printf.sprintf "waiver line %d: bad expiry date %S (expected expires=YYYY-MM-DD)"
                 lineno date))
        | _ ->
          Error
            (Printf.sprintf
               "waiver line %d: expected `<rule-id> <location-pattern> [expires=YYYY-MM-DD]`, got %S"
               lineno line))
  in
  go 1 [] lines

let load path = Result.bind (Smt_obs.Obs_json.read_file path) parse

(* Anchored *-glob: classic two-pointer scan with backtracking to the
   last star. *)
let glob_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  let rec scan p i star star_i =
    if i < ns then
      if p < np && (pattern.[p] = s.[i]) then scan (p + 1) (i + 1) star star_i
      else if p < np && pattern.[p] = '*' then scan (p + 1) i (Some p) i
      else
        match star with
        | Some sp -> scan (sp + 1) (star_i + 1) star (star_i + 1)
        | None -> false
    else begin
      let p = ref p in
      while !p < np && pattern.[!p] = '*' do
        incr p
      done;
      !p = np
    end
  in
  scan 0 0 None 0

let today () =
  let tm = Unix.gmtime (Smt_obs.Ledger.clock ()) in
  (tm.Unix.tm_year + 1900, tm.Unix.tm_mon + 1, tm.Unix.tm_mday)

let expired ~today e =
  match e.w_expires with None -> false | Some d -> today > d

let matches e (f : Rules.finding) =
  (e.w_rule = "*" || String.equal e.w_rule f.Rules.rule.Rules.id)
  && glob_match ~pattern:e.w_loc f.Rules.loc

let apply ?today waivers findings =
  let live =
    match today with
    | None -> waivers
    | Some today -> List.filter (fun e -> not (expired ~today e)) waivers
  in
  let kept = ref [] and waived = ref [] in
  List.iter
    (fun f ->
      match List.find_opt (fun e -> matches e f) live with
      | Some e -> waived := (f, e) :: !waived
      | None -> kept := f :: !kept)
    findings;
  (List.rev !kept, List.rev !waived)
