(* Helpers shared by the tests of the JSON readers: a targeted edit of a
   valid document, and the integer-field check every reader gets. *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  nl = 0 || at 0

(* [text] with its first [sub] replaced by [by]. *)
let replace ~sub ~by text =
  let n = String.length sub in
  let rec at i =
    if i + n > String.length text then Alcotest.failf "%S not in the document" sub
    else if String.sub text i n = sub then i
    else at (i + 1)
  in
  let i = at 0 in
  String.sub text 0 i ^ by ^ String.sub text (i + n) (String.length text - i - n)

(* The integer right after [before] in [text], written as [null], as a
   fraction and beyond 2^53 in turn: [read] must reject each one with
   ["<source>: <path>: <problem>"].  A reader that converted with
   [int_of_float] took them as 0, 1 and 0. *)
let check_rejects_ints ~read ~source ~before ~value ~path text =
  List.iter
    (fun (bad, problem) ->
      match read (replace ~sub:(before ^ value) ~by:(before ^ bad) text) with
      | Ok _ -> Alcotest.failf "%s = %s accepted" path bad
      | Error e ->
        let want = Printf.sprintf "%s: %s: %s" source path problem in
        if not (contains ~needle:want e) then Alcotest.failf "%S does not say %S" e want)
    [ ("null", "not an integer"); ("1.5", "not an integer"); ("1e30", "integer out of range") ]
