(* The on/off switch is global (one [--profile] flag governs every
   domain); a delta is the difference of two [Gc.quick_stat] samples,
   which read the calling domain's allocation counters without walking
   the heap, so an enabled profile stays cheap enough to leave on for
   whole benchmark sweeps. *)

type stats = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  top_heap_words : int;  (* peak heap observed at interval close, words *)
}

let recording = Atomic.make false

let enable () = Atomic.set recording true
let disable () = Atomic.set recording false

type mark = Gc.stat option

let mark () = if Atomic.get recording then Some (Gc.quick_stat ()) else None

let record m =
  match m with
  | None -> None
  | Some (s0 : Gc.stat) ->
    let s1 = Gc.quick_stat () in
    Some
      {
        minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
        promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
        major_words = s1.Gc.major_words -. s0.Gc.major_words;
        minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
        major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
        compactions = s1.Gc.compactions - s0.Gc.compactions;
        top_heap_words = s1.Gc.top_heap_words;
      }

let stats_json st =
  Obs_json.obj
    [
      ("minor_words", Obs_json.num st.minor_words);
      ("promoted_words", Obs_json.num st.promoted_words);
      ("major_words", Obs_json.num st.major_words);
      ("minor_collections", string_of_int st.minor_collections);
      ("major_collections", string_of_int st.major_collections);
      ("compactions", string_of_int st.compactions);
      ("top_heap_words", string_of_int st.top_heap_words);
    ]

let stats_of_json v =
  let open Obs_json.Decode in
  {
    minor_words = field "minor_words" number v;
    promoted_words = field "promoted_words" number v;
    major_words = field "major_words" number v;
    minor_collections = field "minor_collections" int v;
    major_collections = field "major_collections" int v;
    compactions = field "compactions" int v;
    top_heap_words = field "top_heap_words" int v;
  }
