type event = {
  ev_name : string;
  ev_ts_us : float;
  ev_dur_us : float;
  ev_depth : int;
  ev_tid : int;
  ev_args : (string * string) list;
}

(* The recording switch is global (one [--trace] flag governs every
   domain); the span stack and event buffer are per-domain so concurrent
   workers never race.  Worker buffers come back to the caller through
   [collect]/[absorb], which retags them with the worker's tid so the
   merged Chrome trace shows one row per worker. *)

let recording = Atomic.make false

type state = { mutable depth : int; mutable recorded : event list (* newest first *) }

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { depth = 0; recorded = [] })

let state () = Domain.DLS.get state_key

let enable () = Atomic.set recording true
let disable () = Atomic.set recording false
let enabled () = Atomic.get recording
let clear () = (state ()).recorded <- []

let main_tid = 1

(* Timestamps are relative to library load: small enough that fixed-point
   printing keeps full microsecond precision in the exported JSON. *)
let epoch = Unix.gettimeofday ()
let now_us () = (Unix.gettimeofday () -. epoch) *. 1e6

let record st ev = st.recorded <- ev :: st.recorded

let complete ?(args = []) ~name ~ts_us ~dur_us () =
  if Atomic.get recording then begin
    let st = state () in
    record st
      {
        ev_name = name;
        ev_ts_us = ts_us;
        ev_dur_us = dur_us;
        ev_depth = st.depth;
        ev_tid = main_tid;
        ev_args = args;
      }
  end

let instant ?(args = []) name =
  if Atomic.get recording then begin
    let st = state () in
    record st
      {
        ev_name = name;
        ev_ts_us = now_us ();
        ev_dur_us = 0.0;
        ev_depth = st.depth;
        ev_tid = main_tid;
        ev_args = args;
      }
  end

let with_span ?(args = []) name f =
  if not (Atomic.get recording) then f ()
  else begin
    let st = state () in
    let t0 = now_us () in
    let d0 = st.depth in
    st.depth <- d0 + 1;
    let raised = ref true in
    Fun.protect
      ~finally:(fun () ->
        st.depth <- d0;
        let t1 = now_us () in
        let args = if !raised then ("error", "raised") :: args else args in
        record st
          {
            ev_name = name;
            ev_ts_us = t0;
            ev_dur_us = t1 -. t0;
            ev_depth = d0;
            ev_tid = main_tid;
            ev_args = args;
          })
      (fun () ->
        let r = f () in
        raised := false;
        r)
  end

let events () = List.rev (state ()).recorded

let collect f =
  let saved = Domain.DLS.get state_key in
  let fresh = { depth = 0; recorded = [] } in
  Domain.DLS.set state_key fresh;
  match f () with
  | y ->
    Domain.DLS.set state_key saved;
    (y, List.rev fresh.recorded)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Domain.DLS.set state_key saved;
    Printexc.raise_with_backtrace e bt

let absorb ~tid evs =
  let st = state () in
  st.recorded <- List.rev_append (List.map (fun ev -> { ev with ev_tid = tid }) evs) st.recorded

let event_json ev =
  let base =
    [
      ("name", Obs_json.str ev.ev_name);
      ("cat", Obs_json.str "smt");
      ("ph", Obs_json.str "X");
      ("ts", Printf.sprintf "%.3f" ev.ev_ts_us);
      ("dur", Printf.sprintf "%.3f" ev.ev_dur_us);
      ("pid", "1");
      ("tid", string_of_int ev.ev_tid);
    ]
  in
  let args =
    match ev.ev_args with
    | [] -> []
    | kv -> [ ("args", Obs_json.obj (List.map (fun (k, v) -> (k, Obs_json.str v)) kv)) ]
  in
  Obs_json.obj (base @ args)

let to_json () =
  Obs_json.obj
    [
      ("traceEvents", Obs_json.arr (List.map event_json (events ())));
      ("displayTimeUnit", Obs_json.str "ms");
    ]

let write path = Obs_json.to_file path (to_json ())
