(* Instrument *definitions* (name -> id + kind) are process-global and
   mutex-guarded; instrument *values* live in a per-domain store reached
   through domain-local storage.  A handle is just an id into that store,
   so the hot-path cost stays one array store per event and two domains
   never contend on a value.  [collect]/[merge] scope a store around a job
   so parallel sweeps can replay each job's effects on the caller in input
   order — counter and histogram merges are additive, so the order does
   not matter. *)

type counter = { c_id : int; c_name : string }

type histogram = {
  h_id : int;
  h_name : string;
  h_bounds : float array;  (* upper bounds, ascending; implicit +inf last *)
}

type instrument = Counter of counter | Histogram of histogram

let defs_mu = Mutex.create ()
let defs : (string, instrument) Hashtbl.t = Hashtbl.create 97
let n_counters = ref 0
let n_histograms = ref 0

let locked f =
  Mutex.lock defs_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock defs_mu) f

(* Per-domain value store.  Arrays are indexed by instrument id and grown
   on demand (ids are dense per kind). *)

type hstate = { mutable hs_sum : float; mutable hs_n : int; hs_hits : int array }

type store = {
  mutable st_counts : int array;
  mutable st_hists : hstate option array;
}

type collected = store

let fresh_store () =
  {
    st_counts = Array.make 64 0;
    st_hists = Array.make 16 None;
  }

let store_key : store Domain.DLS.key = Domain.DLS.new_key fresh_store
let store () = Domain.DLS.get store_key

let grown make a n =
  let len = Array.length a in
  if n <= len then a
  else begin
    let b = make (max n (2 * len)) in
    Array.blit a 0 b 0 len;
    b
  end

let ensure_counter st id =
  st.st_counts <- grown (fun n -> Array.make n 0) st.st_counts (id + 1)

let ensure_hist st id =
  st.st_hists <- grown (fun n -> Array.make n None) st.st_hists (id + 1)

let default_buckets =
  [ 0.1; 0.3; 1.0; 3.0; 10.0; 30.0; 100.0; 300.0; 1000.0; 3000.0; 10000.0 ]

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt defs name with
      | Some (Counter c) -> c
      | Some _ ->
        invalid_arg (Printf.sprintf "Metrics.counter: %s registered as another kind" name)
      | None ->
        let c = { c_id = !n_counters; c_name = name } in
        n_counters := !n_counters + 1;
        Hashtbl.replace defs name (Counter c);
        c)

let incr ?(by = 1) c =
  let st = store () in
  if c.c_id >= Array.length st.st_counts then ensure_counter st c.c_id;
  st.st_counts.(c.c_id) <- st.st_counts.(c.c_id) + by

let counter_value c =
  let st = store () in
  if c.c_id < Array.length st.st_counts then st.st_counts.(c.c_id) else 0

let histogram ?(buckets = default_buckets) name =
  locked (fun () ->
      match Hashtbl.find_opt defs name with
      | Some (Histogram h) -> h
      | Some _ ->
        invalid_arg (Printf.sprintf "Metrics.histogram: %s registered as another kind" name)
      | None ->
        let bounds = Array.of_list (List.sort_uniq compare buckets) in
        let h = { h_id = !n_histograms; h_name = name; h_bounds = bounds } in
        n_histograms := !n_histograms + 1;
        Hashtbl.replace defs name (Histogram h);
        h)

let hstate_of st h =
  if h.h_id >= Array.length st.st_hists then ensure_hist st h.h_id;
  match st.st_hists.(h.h_id) with
  | Some hs -> hs
  | None ->
    let hs =
      { hs_sum = 0.0; hs_n = 0; hs_hits = Array.make (Array.length h.h_bounds + 1) 0 }
    in
    st.st_hists.(h.h_id) <- Some hs;
    hs

let observe h v =
  let hs = hstate_of (store ()) h in
  let k = Array.length h.h_bounds in
  let rec slot i = if i >= k then k else if v <= h.h_bounds.(i) then i else slot (i + 1) in
  let i = slot 0 in
  hs.hs_hits.(i) <- hs.hs_hits.(i) + 1;
  hs.hs_sum <- hs.hs_sum +. v;
  hs.hs_n <- hs.hs_n + 1

let hist_values st h =
  if h.h_id < Array.length st.st_hists then
    match st.st_hists.(h.h_id) with
    | Some hs -> (hs.hs_n, hs.hs_sum, hs.hs_hits)
    | None -> (0, 0.0, Array.make (Array.length h.h_bounds + 1) 0)
  else (0, 0.0, Array.make (Array.length h.h_bounds + 1) 0)

let histogram_hits h =
  let _, _, hits = hist_values (store ()) h in
  Array.copy hits

(* Prometheus-style bucket quantile: find the bucket holding rank q*n in
   the cumulative hit counts, then interpolate linearly inside it (the
   open +inf bucket degrades to its lower bound — the largest finite
   boundary).  Purely a function of the hit counts, so callers can feed
   before/after deltas for a deterministic per-phase readout. *)
let quantile_of bounds hits q =
  let n = Array.fold_left ( + ) 0 hits in
  if n = 0 then nan
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let rank = q *. float_of_int n in
    let k = Array.length bounds in
    let rec go i cum =
      if i > k then nan
      else
        let cum' = cum + hits.(i) in
        if float_of_int cum' >= rank && cum' > 0 then
          let lo = if i = 0 then 0.0 else bounds.(i - 1) in
          if i = k || hits.(i) = 0 then lo
          else
            lo
            +. (bounds.(i) -. lo)
               *. ((rank -. float_of_int cum) /. float_of_int hits.(i))
        else go (i + 1) cum'
    in
    go 0 0
  end

let quantile_of_hits h hits q = quantile_of h.h_bounds hits q

(* Scoped collection: run [f] against a fresh store, hand the store back. *)

let collect f =
  let saved = Domain.DLS.get store_key in
  let fresh = fresh_store () in
  Domain.DLS.set store_key fresh;
  match f () with
  | y ->
    Domain.DLS.set store_key saved;
    (y, fresh)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Domain.DLS.set store_key saved;
    Printexc.raise_with_backtrace e bt

let merge (col : collected) =
  let st = store () in
  Array.iteri
    (fun id v ->
      if v <> 0 then begin
        if id >= Array.length st.st_counts then ensure_counter st id;
        st.st_counts.(id) <- st.st_counts.(id) + v
      end)
    col.st_counts;
  Array.iteri
    (fun id hso ->
      match hso with
      | None -> ()
      | Some hs -> (
        if id >= Array.length st.st_hists then ensure_hist st id;
        match st.st_hists.(id) with
        | None ->
          st.st_hists.(id) <-
            Some { hs_sum = hs.hs_sum; hs_n = hs.hs_n; hs_hits = Array.copy hs.hs_hits }
        | Some dst ->
          dst.hs_sum <- dst.hs_sum +. hs.hs_sum;
          dst.hs_n <- dst.hs_n + hs.hs_n;
          Array.iteri (fun i h -> dst.hs_hits.(i) <- dst.hs_hits.(i) + h) hs.hs_hits))
    col.st_hists

(* Readers: a locked snapshot of the definitions, values from the calling
   domain's store. *)

let instruments () =
  locked (fun () -> Hashtbl.fold (fun _ inst acc -> inst :: acc) defs [])

let sorted l = List.sort (fun (a, _) (b, _) -> compare a b) l

let counters () =
  let st = store () in
  List.filter_map
    (function
      | Counter c ->
        Some (c.c_name, if c.c_id < Array.length st.st_counts then st.st_counts.(c.c_id) else 0)
      | Histogram _ -> None)
    (instruments ())
  |> sorted

let to_json () =
  let st = store () in
  let counters = ref [] and histograms = ref [] in
  List.iter
    (function
      | Counter c ->
        let v = if c.c_id < Array.length st.st_counts then st.st_counts.(c.c_id) else 0 in
        counters := (c.c_name, string_of_int v) :: !counters
      | Histogram h ->
        let n, sum, hits = hist_values st h in
        let bucket i bound =
          Obs_json.obj [ ("le", bound); ("count", string_of_int hits.(i)) ]
        in
        let buckets =
          Array.to_list (Array.mapi (fun i b -> bucket i (Obs_json.num b)) h.h_bounds)
          @ [ bucket (Array.length h.h_bounds) "\"+inf\"" ]
        in
        histograms :=
          ( h.h_name,
            Obs_json.obj
              [
                ("count", string_of_int n);
                ("sum", Obs_json.num sum);
                ("p50", Obs_json.num (quantile_of h.h_bounds hits 0.5));
                ("p90", Obs_json.num (quantile_of h.h_bounds hits 0.9));
                ("p99", Obs_json.num (quantile_of h.h_bounds hits 0.99));
                ("buckets", Obs_json.arr buckets);
              ] )
          :: !histograms)
    (instruments ());
  Obs_json.obj
    [
      ("counters", Obs_json.obj (sorted !counters));
      ("histograms", Obs_json.obj (sorted !histograms));
    ]

let write path = Obs_json.to_file path (to_json ())
