module Netlist = Smt_netlist.Netlist
module Cell = Smt_cell.Cell
module Func = Smt_cell.Func
module Vth = Smt_cell.Vth
module Library = Smt_cell.Library
module Walk = Smt_check.Walk
module Metrics = Smt_obs.Metrics
module Trace = Smt_obs.Trace
module Par = Smt_obs.Par
module L = Lattice

let m_runs = Metrics.counter "lint.runs"
let m_updates = Metrics.counter "lint.updates"
let m_transfers = Metrics.counter "lint.transfers"
let m_widened = Metrics.counter "lint.widened"
let m_mode_dedup = Metrics.counter "lint.mode_dedup"

type result = {
  findings : Rules.finding list;
  values : (string * L.v) list;
  transfers : int;
  widened : int;
  modes : string list;
}

(* Witness paths are net:/inst: steps, origin first; long chains keep
   the origin (where the float is born) and elide the middle. *)
let max_witness = 12

let extend_path base steps =
  let p = base @ steps in
  if List.length p <= max_witness then p
  else
    let rec take n = function
      | x :: rest when n > 0 -> x :: take (n - 1) rest
      | _ -> [ "..." ]
    in
    take (max_witness - 1) p @ [ List.nth p (List.length p - 1) ]

(* --- sleep-mode vectors --- *)

(* A mode names the subset of sleepable domains currently asleep.  A
   netlist with no sleepable domain runs in the single legacy mode
   (everything MT sleeps at once, MTE net high). *)
type mode = { m_name : string; m_asleep : string list }

let legacy_mode = { m_name = ""; m_asleep = [] }

let modes_of nl =
  let sleepable =
    List.filter_map
      (fun (d, mte) -> match mte with Some _ -> Some d | None -> None)
      (Netlist.domains nl)
  in
  match sleepable with
  | [] -> [ legacy_mode ]
  | doms ->
    let k = List.length doms in
    if k > 10 then
      invalid_arg
        (Printf.sprintf "Verify: %d sleepable domains means %d modes; not a mode-vector job"
           k ((1 lsl k) - 1));
    let ms = ref [] in
    for mask = 1 to (1 lsl k) - 1 do
      let asleep = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) doms in
      ms := { m_name = "sleep{" ^ String.concat "," asleep ^ "}"; m_asleep = asleep } :: !ms
    done;
    List.rev !ms

(* Domain facts shared by every mode of one run. *)
type dom_info = {
  di_sleepable : (string * Netlist.net_id) list;  (* declaration order *)
  di_dom : string array;  (* instance id -> domain name, "" = always-on *)
  di_mte_dom : (Netlist.net_id, string) Hashtbl.t;  (* enable net -> its domain *)
}

let dom_info_of nl =
  let ni = Netlist.inst_count nl in
  let di_dom = Array.make ni "" in
  Netlist.iter_insts nl (fun iid ->
      match Netlist.inst_domain nl iid with
      | Some d -> di_dom.(iid) <- d
      | None -> ());
  let di_mte_dom = Hashtbl.create 7 in
  let di_sleepable =
    List.filter_map
      (fun (d, mte) ->
        match mte with
        | Some m ->
          Hashtbl.replace di_mte_dom m d;
          Some (d, m)
        | None -> None)
      (Netlist.domains nl)
  in
  { di_sleepable; di_dom; di_mte_dom }

type state = {
  nl : Netlist.t;
  mode : mode;
  mutable info : dom_info;
  (* per-net effective value (after any holder), None = bottom *)
  mutable value : L.v option array;
  (* per-net driver value before the holder is applied *)
  mutable raw : L.v option array;
  (* seed witness per net, None for transfer-computed nets *)
  mutable seed_path : string list option array;
  (* witness paths, rebuilt deterministically after each fixpoint *)
  mutable path : string list array;
  mutable holders : (Netlist.net_id, Netlist.inst_id) Hashtbl.t;
  (* net -> instances to re-run when the net's value changes *)
  mutable deps : Netlist.inst_id list array;
  (* net -> held nets to re-settle when this (holder-MTE) net changes *)
  mutable holder_deps : Netlist.net_id list array;
  queue : Netlist.inst_id Queue.t;
  mutable queued : bool array;
  mutable transfers : int;  (* this run (analyze or update) only *)
  mutable widened : int;
}

let enqueue st iid =
  if not st.queued.(iid) then begin
    st.queued.(iid) <- true;
    Queue.push iid st.queue
  end

let rec enqueue_deps st nid =
  List.iter (enqueue st) st.deps.(nid);
  List.iter
    (fun held ->
      if st.raw.(held) <> None then settle st held)
    st.holder_deps.(nid)

(* Effective value of [nid] given its raw driver value: the holder wired
   to the net (if any) keeps a floating level when its own enable is 1.
   None = the holder's enable is not known yet, try again later. *)
and holder_view st nid rv =
  match Hashtbl.find_opt st.holders nid with
  | None -> Some rv
  | Some h -> (
    match Netlist.pin_net st.nl h "MTE" with
    | None -> Some rv (* inert keeper; the DRC flags the floating pin *)
    | Some m -> (
      match st.value.(m) with
      | None -> None
      | Some L.One -> Some (match rv with L.Float -> L.Held | v -> v)
      | Some L.Zero -> Some rv (* keeper disabled in standby *)
      | Some (L.Held | L.Float | L.Top) ->
        (* enable undetermined: a float may or may not be kept *)
        Some (if L.may_float rv then L.Top else rv)))

and settle st nid =
  match st.raw.(nid) with
  | None -> ()
  | Some rv -> (
    match holder_view st nid rv with
    | None -> ()
    | Some eff ->
      let old = st.value.(nid) in
      let nv = match L.bot_join old eff with Some v -> v | None -> eff in
      if old <> Some nv then begin
        st.value.(nid) <- Some nv;
        enqueue_deps st nid
      end)

let set_raw st nid v =
  let old = st.raw.(nid) in
  let nv = match L.bot_join old v with Some x -> x | None -> v in
  if old <> Some nv then begin
    st.raw.(nid) <- Some nv;
    settle st nid
  end

(* Cells whose output the worklist computes: combinational logic.
   Flip-flop outputs are standby sources (seeded Held), switches and
   holders have no logic output. *)
let transferable kind =
  match kind with
  | Func.Dff | Func.Sleep_switch | Func.Holder -> false
  | _ -> true

let net_token nl nid = "net:" ^ Netlist.net_name nl nid
let inst_token nl iid = "inst:" ^ Netlist.inst_name nl iid

(* How the gate is supplied in the analyzed mode. *)
type supply =
  | Powered  (** true rails: evaluates *)
  | Cut  (** virtual ground open: output floats *)
  | Internally_held  (** embedded MT-cell asleep: private holder drives *)
  | Unknown_power of Netlist.net_id  (** enable not constant; net is the witness *)
  | Defer_supply

let supply_of st iid (cell : Cell.t) =
  match cell.Cell.style with
  | Vth.Plain -> Powered
  | Vth.Mt_no_vgnd -> Cut (* no path to ground at all *)
  | Vth.Mt_embedded -> (
    match Netlist.pin_net st.nl iid "MTE" with
    | None -> Powered (* enable floating: DRC territory; logic still wired *)
    | Some m -> (
      match st.value.(m) with
      | None -> Defer_supply
      | Some L.One -> Internally_held
      | Some L.Zero -> Powered
      | Some (L.Held | L.Float | L.Top) -> Unknown_power m))
  | Vth.Mt_vgnd -> (
    match Walk.vgnd_state st.nl iid with
    | Walk.Ungated -> Powered (* unreachable for this style *)
    | Walk.Floating_vgnd | Walk.Dead_switch _ -> Cut
    | Walk.Gated sw -> (
      match Netlist.pin_net st.nl sw "MTE" with
      | None -> Unknown_power (Option.get (Netlist.output_net st.nl iid))
      | Some m -> (
        match st.value.(m) with
        | None -> Defer_supply
        | Some L.One -> Cut (* switch off: sleeping as designed *)
        | Some L.Zero -> Powered (* switch stuck on: mte-polarity finding *)
        | Some (L.Held | L.Float | L.Top) -> Unknown_power m)))

let transfer st iid =
  let cell = Netlist.cell st.nl iid in
  match Netlist.output_net st.nl iid with
  | None -> ()
  | Some out -> (
    st.transfers <- st.transfers + 1;
    match supply_of st iid cell with
    | Defer_supply -> ()
    | Cut -> set_raw st out L.Float
    | Internally_held -> set_raw st out L.Held
    | Unknown_power _ -> set_raw st out L.Top
    | Powered ->
      let names = Func.input_names cell.Cell.kind in
      let n = Array.length names in
      let ins = Array.make n L.Top in
      let ready = ref true in
      for i = 0 to n - 1 do
        match Netlist.pin_net st.nl iid names.(i) with
        | None -> ins.(i) <- L.Float (* an unconnected gate input floats *)
        | Some nid -> (
          match st.value.(nid) with
          | None -> ready := false
          | Some v -> ins.(i) <- v)
      done;
      if !ready then set_raw st out (L.eval cell.Cell.kind ins))

(* --- seeding ---
   [in_cone] restricts which nets get (re-)seeded: everything on a full
   run, only the dirty cone on an incremental one.  Seed notes are
   mode-independent where possible so findings dedup across modes. *)
let seed st ~in_cone =
  let nl = st.nl in
  let legacy = st.mode.m_name = "" in
  let mte_net = if legacy then Netlist.find_net nl "MTE" else None in
  Netlist.iter_nets nl (fun nid ->
      if in_cone nid then
        if Netlist.is_pi nl nid then begin
          let v, note =
            if legacy && mte_net = Some nid then (L.One, " (MTE=1 in standby)")
            else
              match Hashtbl.find_opt st.info.di_mte_dom nid with
              | Some d ->
                ( (if List.mem d st.mode.m_asleep then L.One else L.Zero),
                  Printf.sprintf " (domain %s enable)" d )
              | None ->
                if Netlist.is_clock_net nl nid then (L.Zero, " (clock parked low)")
                else (L.Held, " (primary input, frozen)")
          in
          st.seed_path.(nid) <- Some [ net_token nl nid ^ note ];
          set_raw st nid v
        end
        else if Netlist.driver nl nid = None then begin
          st.seed_path.(nid) <- Some [ net_token nl nid ^ " (no driver)" ];
          set_raw st nid L.Float
        end);
  Netlist.iter_insts nl (fun iid ->
      let cell = Netlist.cell nl iid in
      if cell.Cell.kind = Func.Dff then
        match Netlist.output_net nl iid with
        | Some q when in_cone q ->
          st.seed_path.(q) <-
            Some [ inst_token nl iid ^ " (flip-flop state)"; net_token nl q ];
          set_raw st q L.Held
        | Some _ | None -> ())

(* --- structure: holders + dependency edges, from the current netlist --- *)
let build_structure st =
  let nl = st.nl in
  let nn = Netlist.net_count nl in
  st.holders <- Walk.holder_pins nl;
  st.deps <- Array.make nn [];
  st.holder_deps <- Array.make nn [];
  let add_dep nid iid = st.deps.(nid) <- iid :: st.deps.(nid) in
  Netlist.iter_insts nl (fun iid ->
      let cell = Netlist.cell nl iid in
      if transferable cell.Cell.kind then begin
        Array.iter
          (fun pin ->
            match Netlist.pin_net nl iid pin with
            | Some nid -> add_dep nid iid
            | None -> ())
          (Func.input_names cell.Cell.kind);
        match cell.Cell.style with
        | Vth.Mt_embedded -> (
          match Netlist.pin_net nl iid "MTE" with
          | Some m -> add_dep m iid
          | None -> ())
        | Vth.Mt_vgnd -> (
          (* the member re-evaluates when its switch's enable changes *)
          match Walk.vgnd_state nl iid with
          | Walk.Gated sw -> (
            match Netlist.pin_net nl sw "MTE" with
            | Some m -> add_dep m iid
            | None -> ())
          | _ -> ())
        | Vth.Plain | Vth.Mt_no_vgnd -> ()
      end);
  (* a holder's enable gates the effective value of the net its Z pin
     touches: re-settle that net when the enable net moves *)
  Hashtbl.iter
    (fun nid h ->
      match Netlist.pin_net nl h "MTE" with
      | Some m -> st.holder_deps.(m) <- nid :: st.holder_deps.(m)
      | None -> ())
    st.holders;
  for nid = 0 to nn - 1 do
    st.deps.(nid) <- List.rev st.deps.(nid);
    st.holder_deps.(nid) <- List.rev st.holder_deps.(nid)
  done

let fixpoint st =
  let drained = ref false in
  while not !drained do
    while not (Queue.is_empty st.queue) do
      let iid = Queue.pop st.queue in
      st.queued.(iid) <- false;
      transfer st iid
    done;
    (* widening: anything still bottom sits in (or behind) a
       combinational cycle the deferring transfers cannot enter; force
       those nets to Top and resume until nothing is bottom *)
    let bottoms = ref [] in
    Netlist.iter_nets st.nl (fun nid ->
        if st.value.(nid) = None then bottoms := nid :: !bottoms);
    match List.rev !bottoms with
    | [] -> drained := true
    | nids ->
      st.widened <- st.widened + List.length nids;
      List.iter
        (fun nid ->
          st.value.(nid) <- Some L.Top;
          enqueue_deps st nid)
        nids
  done

(* --- witnesses ---
   Rebuilt from the fixpoint values by a memoized walk entered in net-id
   order, so a path depends only on the final values — never on the
   order the worklist happened to visit nets in.  That is what makes an
   incremental update's report byte-identical to a from-scratch run. *)
let rebuild_paths st =
  let nl = st.nl in
  let nn = Netlist.net_count nl in
  let path = Array.make nn [] in
  let stat = Array.make nn 0 in
  (* 0 unvisited, 1 in progress, 2 done *)
  let rec build nid =
    if stat.(nid) = 2 then path.(nid)
    else if stat.(nid) = 1 then [ net_token nl nid ^ " (cyclic)" ]
    else begin
      stat.(nid) <- 1;
      let p =
        match st.seed_path.(nid) with
        | Some sp -> sp
        | None -> (
          match Netlist.driver nl nid with
          | None -> [ net_token nl nid ] (* unreachable: undriven nets are seeded *)
          | Some dp ->
            let iid = dp.Netlist.inst in
            let cell = Netlist.cell nl iid in
            if not (transferable cell.Cell.kind) then
              [ inst_token nl iid; net_token nl nid ]
            else (
              match supply_of st iid cell with
              | Cut -> [ inst_token nl iid ^ " (VGND cut in standby)"; net_token nl nid ]
              | Internally_held ->
                [ inst_token nl iid ^ " (embedded holder)"; net_token nl nid ]
              | Unknown_power m ->
                extend_path (build m)
                  [ inst_token nl iid ^ " (enable undetermined)"; net_token nl nid ]
              | Defer_supply -> [ net_token nl nid ^ " (widened: cyclic)" ]
              | Powered ->
                if st.raw.(nid) = None then [ net_token nl nid ^ " (widened: cyclic)" ]
                else begin
                  let names = Func.input_names cell.Cell.kind in
                  let n = Array.length names in
                  let ins = Array.make n L.Top in
                  let nets = Array.make n None in
                  for i = 0 to n - 1 do
                    match Netlist.pin_net nl iid names.(i) with
                    | None -> ins.(i) <- L.Float
                    | Some src -> (
                      nets.(i) <- Some src;
                      match st.value.(src) with
                      | Some v -> ins.(i) <- v
                      | None -> ins.(i) <- L.Top)
                  done;
                  (* witness: the first possibly-floating input when
                     contaminated, else the first input *)
                  let pick pred =
                    let r = ref None in
                    for i = n - 1 downto 0 do
                      match nets.(i) with
                      | Some s when pred ins.(i) -> r := Some s
                      | Some _ | None -> ()
                    done;
                    !r
                  in
                  let v = match st.raw.(nid) with Some v -> v | None -> L.Top in
                  let source =
                    match (L.may_float v, pick L.may_float) with
                    | true, (Some _ as s) -> s
                    | _ -> pick (fun _ -> true)
                  in
                  let base = match source with Some s -> build s | None -> [] in
                  extend_path base [ inst_token nl iid; net_token nl nid ]
                end))
      in
      path.(nid) <- p;
      stat.(nid) <- 2;
      p
    end
  in
  for nid = 0 to nn - 1 do
    ignore (build nid)
  done;
  st.path <- path

(* --- rules, evaluated once per mode --- *)
let eval_rules st ~deepest =
  let nl = st.nl in
  let legacy = st.mode.m_name = "" in
  let asleep d = d <> "" && List.mem d st.mode.m_asleep in
  let dom_of iid = st.info.di_dom.(iid) in
  let out = ref [] in
  let emit rule loc ?(witness = []) fmt =
    Printf.ksprintf
      (fun message ->
        out := { Rules.rule; loc; mode = st.mode.m_name; message; witness } :: !out)
      fmt
  in
  let value nid = match st.value.(nid) with Some v -> v | None -> L.Top in
  (* a reader that sees the net's level in this mode: not switch/holder
     plumbing, and either always-on or an MT-cell of an awake domain *)
  let powered_reader (p : Netlist.pin) =
    let c = Netlist.cell nl p.Netlist.inst in
    (not (Func.is_infrastructure c.Cell.kind))
    && ((not (Cell.is_mt c)) || ((not legacy) && not (asleep (dom_of p.Netlist.inst))))
  in
  (* [Some d] when the net is driven by MT logic of a domain asleep in
     this mode: candidate boundary-crossing source *)
  let crossing_source nid =
    if legacy then None
    else
      match Netlist.driver nl nid with
      | Some p when Cell.is_mt (Netlist.cell nl p.Netlist.inst) ->
        let d = dom_of p.Netlist.inst in
        if asleep d then Some d else None
      | _ -> None
  in
  let enable_domain e =
    match Hashtbl.find_opt st.info.di_mte_dom e with
    | Some d -> d
    | None -> (
      match Netlist.driver nl e with
      | Some p -> dom_of p.Netlist.inst
      | None -> "")
  in
  (* Holders whose cross-wired enable is the root cause are excluded
     from the generic MTE-constant check below. *)
  let iso_flagged : (Netlist.inst_id, unit) Hashtbl.t = Hashtbl.create 7 in
  (* net rules *)
  Netlist.iter_nets nl (fun nid ->
      let name = Netlist.net_name nl nid in
      let loc = "net:" ^ name in
      let v = value nid in
      let readers = List.filter powered_reader (Netlist.sinks nl nid) in
      let cross = crossing_source nid in
      let iso_bad =
        match (Hashtbl.find_opt st.holders nid, cross) with
        | Some h, Some d -> (
          match Netlist.pin_net nl h "MTE" with
          | Some e ->
            let ed = enable_domain e in
            if ed <> d then Some (h, e, ed, d) else None
          | None -> None)
        | _ -> None
      in
      (match v with
      | L.Float -> (
        match cross with
        | None ->
          if Netlist.is_po nl nid then
            emit Rules.float_into_awake loc ~witness:st.path.(nid)
              "net floats in standby and is a primary output"
          else if readers <> [] then
            let r = List.hd readers in
            emit Rules.float_into_awake loc ~witness:st.path.(nid)
              "net floats in standby; %d always-on sink%s (first: %s.%s)"
              (List.length readers)
              (if List.length readers = 1 then "" else "s")
              (Netlist.inst_name nl r.Netlist.inst)
              r.Netlist.pin_name
        | Some d ->
          if Netlist.is_po nl nid then
            emit Rules.float_into_awake loc ~witness:st.path.(nid)
              "net floats in standby and is a primary output";
          let local, foreign =
            List.partition (fun (p : Netlist.pin) -> dom_of p.Netlist.inst = d) readers
          in
          (if local <> [] then
             let r = List.hd local in
             emit Rules.float_into_awake loc ~witness:st.path.(nid)
               "net floats in standby; %d always-on sink%s (first: %s.%s)"
               (List.length local)
               (if List.length local = 1 then "" else "s")
               (Netlist.inst_name nl r.Netlist.inst)
               r.Netlist.pin_name);
          (match foreign with
          | [] -> ()
          | r :: _ when iso_bad = None ->
            let rd = dom_of r.Netlist.inst in
            let rdom = if rd = "" then "always-on logic" else "domain " ^ rd in
            if Hashtbl.mem st.holders nid then
              emit Rules.cross_domain_float loc ~witness:st.path.(nid)
                "net from sleeping domain %s floats into awake logic: %d powered sink%s \
                 outside the domain (first: %s.%s in %s); the wired holder does not engage"
                d (List.length foreign)
                (if List.length foreign = 1 then "" else "s")
                (Netlist.inst_name nl r.Netlist.inst)
                r.Netlist.pin_name rdom
            else
              emit Rules.missing_isolation loc ~witness:st.path.(nid)
                "net leaves sleeping domain %s with no isolation holder; %d powered \
                 sink%s in other domains (first: %s.%s in %s)"
                d (List.length foreign)
                (if List.length foreign = 1 then "" else "s")
                (Netlist.inst_name nl r.Netlist.inst)
                r.Netlist.pin_name rdom
          | _ :: _ -> ()))
      | L.Top -> (
        if Netlist.is_po nl nid then
          emit Rules.crowbar_risk loc ~witness:st.path.(nid)
            "primary output may float in standby (value top)";
        match cross with
        | Some d
          when iso_bad = None
               && Hashtbl.mem st.holders nid
               && (match st.raw.(nid) with Some rv -> L.may_float rv | None -> true) -> (
          let foreign =
            List.filter (fun (p : Netlist.pin) -> dom_of p.Netlist.inst <> d) readers
          in
          match foreign with
          | [] -> ()
          | r :: _ ->
            emit Rules.cross_domain_float loc ~witness:st.path.(nid)
              "net from sleeping domain %s may float into awake logic (holder enable is \
               not a constant); %d powered sink%s outside the domain (first: %s.%s)"
              d (List.length foreign)
              (if List.length foreign = 1 then "" else "s")
              (Netlist.inst_name nl r.Netlist.inst)
              r.Netlist.pin_name)
        | _ -> ())
      | L.Zero | L.One | L.Held -> ());
      (match iso_bad with
      | Some (h, e, ed, d) ->
        Hashtbl.replace iso_flagged h ();
        let edn = if ed = "" then "the always-on domain" else "domain " ^ ed in
        emit Rules.isolation_enable_off_domain
          ("inst:" ^ Netlist.inst_name nl h)
          ~witness:st.path.(e)
          "isolation holder on net %s guards sleeping domain %s but its enable (net %s) \
           belongs to %s"
          name d (Netlist.net_name nl e) edn
      | None -> ());
      (* uselessness is judged in the deepest mode only: a holder idle in
         a partial-sleep mode may be doing its job in a deeper one *)
      if deepest then
        match Hashtbl.find_opt st.holders nid with
        | None -> ()
        | Some h -> (
          let hname = Netlist.inst_name nl h in
          let boundary =
            match cross with
            | None -> false
            | Some d ->
              List.exists
                (fun (p : Netlist.pin) ->
                  (not (Func.is_infrastructure (Netlist.cell nl p.Netlist.inst).Cell.kind))
                  && dom_of p.Netlist.inst <> d)
                (Netlist.sinks nl nid)
          in
          match st.raw.(nid) with
          | Some ((L.Zero | L.One | L.Held) as r) ->
            emit Rules.useless_holder loc
              "holder %s keeps a net that never floats (driver value %s in standby)" hname
              (L.to_string r)
          | Some L.Float when (not (Netlist.is_po nl nid)) && readers = [] && not boundary ->
            emit Rules.useless_holder loc
              "holder %s keeps a net only floating MT logic reads" hname
          | Some (L.Float | L.Top) | None -> ()));
  (* instance rules *)
  let holder_net : (Netlist.inst_id, Netlist.net_id) Hashtbl.t = Hashtbl.create 7 in
  Hashtbl.iter (fun nid h -> Hashtbl.replace holder_net h nid) st.holders;
  let mte_pin_check iid what =
    match Netlist.pin_net nl iid what with
    | None -> () (* DRC: floating required pin *)
    | Some m -> (
      let loc = "inst:" ^ Netlist.inst_name nl iid in
      let kind = Netlist.cell nl iid in
      let role =
        match kind.Cell.kind with
        | Func.Sleep_switch -> "sleep switch"
        | Func.Holder -> "holder"
        | _ -> "embedded MT-cell"
      in
      (* the domain whose sleep schedule this enable should follow *)
      let gov =
        if legacy then ""
        else
          match kind.Cell.kind with
          | Func.Holder -> (
            match Hashtbl.find_opt holder_net iid with
            | Some nid -> (
              match Netlist.driver nl nid with
              | Some p when Cell.is_mt (Netlist.cell nl p.Netlist.inst) ->
                dom_of p.Netlist.inst
              | _ -> "")
            | None -> "")
          | _ -> dom_of iid
      in
      if legacy || gov = "" || asleep gov then begin
        match value m with
        | L.One -> ()
        | L.Zero ->
          emit Rules.mte_polarity loc ~witness:st.path.(m)
            "%s enable is 0 in standby (net %s): it never sleeps%s" role
            (Netlist.net_name nl m)
            (match kind.Cell.kind with
            | Func.Holder -> "; the net it keeps is unguarded"
            | _ -> "")
        | (L.Held | L.Float | L.Top) as v ->
          emit Rules.mte_undetermined loc ~witness:st.path.(m)
            "%s enable is %s in standby (net %s), not a constant" role (L.to_string v)
            (Netlist.net_name nl m)
      end
      else begin
        (* governing domain awake in this mode *)
        match kind.Cell.kind with
        | Func.Holder -> () (* a keeper engaged while its source drives is harmless *)
        | _ -> (
          match value m with
          | L.Zero -> ()
          | L.One ->
            emit Rules.mte_polarity loc ~witness:st.path.(m)
              "%s enable is 1 while domain %s is awake (net %s): the domain sleeps when \
               it should run"
              role gov (Netlist.net_name nl m)
          | (L.Held | L.Float | L.Top) as v ->
            emit Rules.mte_undetermined loc ~witness:st.path.(m)
              "%s enable is %s while domain %s is awake (net %s), not a constant" role
              (L.to_string v) gov (Netlist.net_name nl m))
      end)
  in
  Netlist.iter_insts nl (fun iid ->
      let cell = Netlist.cell nl iid in
      (match cell.Cell.kind with
      | Func.Sleep_switch -> mte_pin_check iid "MTE"
      | Func.Holder -> if not (Hashtbl.mem iso_flagged iid) then mte_pin_check iid "MTE"
      | Func.Dff ->
        if Library.is_retention cell then begin
          match Netlist.pin_net nl iid "D" with
          | Some d when L.may_float (value d) ->
            emit Rules.retention_input_float
              ("inst:" ^ Netlist.inst_name nl iid)
              ~witness:st.path.(d)
              "retention flip-flop data input is %s in standby (net %s)"
              (L.to_string (value d)) (Netlist.net_name nl d)
          | Some _ | None -> ()
        end
      | _ -> if Vth.style_equal cell.Cell.style Vth.Mt_embedded then mte_pin_check iid "MTE");
      (* crowbar: a powered gate fed by a maybe-floating level *)
      (if Vth.style_equal cell.Cell.style Vth.Plain && transferable cell.Cell.kind then begin
         let names = Func.input_names cell.Cell.kind in
         let bad = ref None in
         Array.iter
           (fun pin ->
             if !bad = None then
               match Netlist.pin_net nl iid pin with
               | Some nid when value nid = L.Top -> bad := Some (pin, nid)
               | Some _ | None -> ())
           names;
         match !bad with
         | Some (pin, nid) ->
           emit Rules.crowbar_risk
             ("inst:" ^ Netlist.inst_name nl iid)
             ~witness:st.path.(nid)
             "powered gate input %s may be at an intermediate level in standby (net %s)"
             pin (Netlist.net_name nl nid)
         | None -> ()
       end);
      (* always-on path: this gate sleeps while both the logic feeding it
         and the logic reading it stay powered — a structural routing
         hazard even when isolation clamps the level *)
      if (not legacy) && Cell.is_mt cell && transferable cell.Cell.kind then begin
        let d = dom_of iid in
        if asleep d then
          match Netlist.output_net nl iid with
          | None -> ()
          | Some out -> (
            let powered_src (p : Netlist.pin) =
              let c = Netlist.cell nl p.Netlist.inst in
              (not (Func.is_infrastructure c.Cell.kind))
              && ((not (Cell.is_mt c)) || not (asleep (dom_of p.Netlist.inst)))
            in
            let live_in = ref None in
            Array.iter
              (fun pin ->
                if !live_in = None then
                  match Netlist.pin_net nl iid pin with
                  | None -> ()
                  | Some src -> (
                    match Netlist.driver nl src with
                    | Some p when dom_of p.Netlist.inst <> d && powered_src p ->
                      live_in := Some (pin, src)
                    | Some _ | None -> ()))
              (Func.input_names cell.Cell.kind);
            match !live_in with
            | None -> ()
            | Some (pin, src) ->
              let read_out =
                Netlist.is_po nl out
                || List.exists
                     (fun (p : Netlist.pin) ->
                       powered_reader p && dom_of p.Netlist.inst <> d)
                     (Netlist.sinks nl out)
              in
              if read_out then
                emit Rules.always_on_path
                  ("inst:" ^ Netlist.inst_name nl iid)
                  ~witness:
                    [
                      net_token nl src;
                      inst_token nl iid ^ " (through sleeping domain " ^ d ^ ")";
                      net_token nl out;
                    ]
                  "path through sleeping domain %s: input %s is driven from awake logic \
                   and output %s is read outside the domain"
                  d pin (Netlist.net_name nl out))
      end);
  List.rev !out

(* --- per-mode runs --- *)

let make_state nl info mode =
  let nn = Netlist.net_count nl in
  let ni = Netlist.inst_count nl in
  {
    nl;
    mode;
    info;
    value = Array.make nn None;
    raw = Array.make nn None;
    seed_path = Array.make nn None;
    path = Array.make nn [];
    holders = Hashtbl.create 7;
    deps = Array.make nn [];
    holder_deps = Array.make nn [];
    queue = Queue.create ();
    queued = Array.make ni false;
    transfers = 0;
    widened = 0;
  }

let run_mode nl info mode ~deepest =
  let st = make_state nl info mode in
  build_structure st;
  seed st ~in_cone:(fun _ -> true);
  Netlist.iter_insts nl (fun iid ->
      if transferable (Netlist.cell nl iid).Cell.kind then enqueue st iid);
  fixpoint st;
  rebuild_paths st;
  let findings = eval_rules st ~deepest in
  (st, findings)

(* Findings from different modes that agree on [Rules.key] are one defect
   observed twice; the first (shallowest) mode wins. *)
let dedup_findings per_mode =
  let seen = Hashtbl.create 97 in
  let first_seen f =
    let key = Rules.key f in
    if Hashtbl.mem seen key then false
    else begin
      Hashtbl.add seen key ();
      true
    end
  in
  let kept = List.concat_map (List.filter first_seen) per_mode in
  (kept, List.length (List.concat per_mode) - List.length kept)

let finish nl sf =
  let findings, dupes = dedup_findings (List.map snd sf) in
  Metrics.incr m_mode_dedup ~by:dupes;
  let transfers = List.fold_left (fun a (st, _) -> a + st.transfers) 0 sf in
  let widened = List.fold_left (fun a (st, _) -> a + st.widened) 0 sf in
  Metrics.incr m_transfers ~by:transfers;
  Metrics.incr m_widened ~by:widened;
  let deep = fst (List.nth sf (List.length sf - 1)) in
  let value nid = match deep.value.(nid) with Some v -> v | None -> L.Top in
  let values = ref [] in
  Netlist.iter_nets nl (fun nid ->
      values := (Netlist.net_name nl nid, value nid) :: !values);
  {
    findings;
    values = List.rev !values;
    transfers;
    widened;
    modes = List.map (fun (st, _) -> st.mode.m_name) sf;
  }

let run_all ~jobs nl =
  let modes = modes_of nl in
  let info = dom_info_of nl in
  let last = List.length modes - 1 in
  let tagged = List.mapi (fun i m -> (i = last, m)) modes in
  Par.map ~jobs (fun (deepest, m) -> run_mode nl info m ~deepest) tagged

let analyze ?(jobs = 1) nl =
  Trace.with_span "Verify.analyze" ~args:[ ("circuit", Netlist.design_name nl) ]
  @@ fun () ->
  Metrics.incr m_runs;
  finish nl (run_all ~jobs nl)

(* --- incremental sessions --- *)

type session = {
  s_nl : Netlist.t;
  mutable s_states : state list;
  mutable s_mode_names : string list;
  mutable s_version : int;  (* the netlist journal version the stores reflect *)
}

let start ?(jobs = 1) nl =
  Trace.with_span "Verify.start" ~args:[ ("circuit", Netlist.design_name nl) ]
  @@ fun () ->
  Metrics.incr m_runs;
  let version = Netlist.version nl in
  let sf = run_all ~jobs nl in
  let s =
    {
      s_nl = nl;
      s_states = List.map fst sf;
      s_mode_names = List.map (fun (st, _) -> st.mode.m_name) sf;
      s_version = version;
    }
  in
  (s, finish nl sf)

let grow_arr old default n =
  if Array.length old >= n then old
  else begin
    let a = Array.make n default in
    Array.blit old 0 a 0 (Array.length old);
    a
  end

(* Forward closure of the dirty set over data, supply, and holder-enable
   edges: every net whose value could depend on a dirty net. *)
let cone_of st dirty =
  let nn = Netlist.net_count st.nl in
  let in_cone = Array.make nn false in
  let q = Queue.create () in
  let add nid =
    if nid >= 0 && nid < nn && not in_cone.(nid) then begin
      in_cone.(nid) <- true;
      Queue.push nid q
    end
  in
  List.iter add dirty;
  while not (Queue.is_empty q) do
    let nid = Queue.pop q in
    List.iter
      (fun iid ->
        match Netlist.output_net st.nl iid with Some o -> add o | None -> ())
      st.deps.(nid);
    List.iter add st.holder_deps.(nid)
  done;
  in_cone

let update_mode st info ~dirty ~deepest =
  st.info <- info;
  let nn = Netlist.net_count st.nl in
  let ni = Netlist.inst_count st.nl in
  st.value <- grow_arr st.value None nn;
  st.raw <- grow_arr st.raw None nn;
  st.seed_path <- grow_arr st.seed_path None nn;
  st.queued <- grow_arr st.queued false ni;
  st.transfers <- 0;
  st.widened <- 0;
  build_structure st;
  let in_cone = cone_of st dirty in
  Array.iteri
    (fun nid dirty_here ->
      if dirty_here then begin
        st.raw.(nid) <- None;
        st.value.(nid) <- None;
        st.seed_path.(nid) <- None
      end)
    in_cone;
  seed st ~in_cone:(fun nid -> in_cone.(nid));
  Netlist.iter_nets st.nl (fun nid ->
      if in_cone.(nid) then
        match Netlist.driver st.nl nid with
        | Some p when transferable (Netlist.cell st.nl p.Netlist.inst).Cell.kind ->
          enqueue st p.Netlist.inst
        | Some _ | None -> ());
  fixpoint st;
  rebuild_paths st;
  let findings = eval_rules st ~deepest in
  (st, findings)

let update ?(jobs = 1) s =
  Trace.with_span "Verify.update" ~args:[ ("circuit", Netlist.design_name s.s_nl) ]
  @@ fun () ->
  Metrics.incr m_updates;
  let nl = s.s_nl in
  let dirty = Netlist.touched_since nl s.s_version in
  s.s_version <- Netlist.version nl;
  let names = List.map (fun m -> m.m_name) (modes_of nl) in
  if names <> s.s_mode_names then begin
    (* the domain table itself changed: mode vector is different, restart *)
    let sf = run_all ~jobs nl in
    s.s_states <- List.map fst sf;
    s.s_mode_names <- names;
    finish nl sf
  end
  else begin
    let info = dom_info_of nl in
    let last = List.length s.s_states - 1 in
    let tagged = List.mapi (fun i st -> (i = last, st)) s.s_states in
    let sf = Par.map ~jobs (fun (deepest, st) -> update_mode st info ~dirty ~deepest) tagged in
    s.s_states <- List.map fst sf;
    finish nl sf
  end

let value_of r name =
  List.assoc_opt name r.values
