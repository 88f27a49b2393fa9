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
let m_rule_evals = Metrics.counter "lint.rule_evals"
let m_paths_built = Metrics.counter "lint.paths_built"

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

(* Cells whose output the worklist computes: combinational logic.
   Flip-flop outputs are standby sources (seeded Held), switches and
   holders have no logic output. *)
let transferable kind =
  match kind with
  | Func.Dff | Func.Sleep_switch | Func.Holder -> false
  | _ -> true

let net_token nl nid = "net:" ^ Netlist.net_name nl nid
let inst_token nl iid = "inst:" ^ Netlist.inst_name nl iid

(* --- structure: who re-runs when a net moves ---
   Shared by every mode and kept in step with the netlist's journal: an
   update re-derives the edges of the instances pinned to touched nets
   only.  Every edge list is in instance-id order, the order a walk over
   the whole netlist would give, so the worklist visits instances in the
   same order however the structure was reached. *)
type structure = {
  nl : Netlist.t;
  mutable dom : string array;  (* instance -> domain name, "" = always-on *)
  mutable mte_dom : (Netlist.net_id, string) Hashtbl.t;  (* enable net -> its domain *)
  (* net -> transferable instances that read it (input or supply enable) *)
  mutable deps : Netlist.inst_id list array;
  (* net -> flip-flops, switches and holders whose rules read it: one that
     loses its pin there must be judged again *)
  mutable others : Netlist.inst_id list array;
  (* instance -> the nets whose [deps] or [others] list holds it *)
  mutable reads : Netlist.net_id list array;
  (* net -> the live holders wired to it by Z, and holder -> that net:
     the wire, which a [Netlist.holder_of] record can disagree with *)
  mutable kept_by : Netlist.inst_id list array;
  mutable keeps : Netlist.net_id option array;
  (* net -> the holder that keeps it: the lowest id in [kept_by] *)
  mutable keeper : Netlist.inst_id option array;
  (* keeper-enable net -> (keeper, held net), to re-settle when it moves *)
  mutable holder_deps : (Netlist.inst_id * Netlist.net_id) list array;
  (* held net -> the enable net whose [holder_deps] lists it *)
  mutable held_by : Netlist.net_id option array;
  (* VGND member -> its switch, and switch -> members: a switch's new
     enable is an edge of every member, none of which the journal names *)
  mutable gated_by : Netlist.inst_id option array;
  mutable members : Netlist.inst_id list array;
  (* set membership by stamp: a fresh stamp empties every set at once *)
  mutable net_mark : int array;
  mutable inst_mark : int array;
  mutable stamp : int;
}

let grow old default n =
  if Array.length old >= n then old
  else begin
    let a = Array.make n default in
    Array.blit old 0 a 0 (Array.length old);
    a
  end

(* Ascending and duplicate-free; inserting in descending order, as a
   fresh build does, conses onto the head. *)
let rec insert x = function
  | y :: rest when y < x -> y :: insert x rest
  | y :: _ as l when y = x -> l
  | l -> x :: l

let drop x l = List.filter (fun y -> y <> x) l

let rec insert_kept ((h, _) as x) = function
  | ((h', _) as y) :: rest when h' < h -> y :: insert_kept x rest
  | l -> x :: l

(* The switch a live VGND member hangs from, and the nets a live
   instance's edges hang on, ascending: what a transferable instance
   reads (its inputs and its supply's enable — its own MTE pin or its
   switch's), or the pins a flip-flop's, switch's or holder's rules read. *)
let edges_of nl iid =
  if Netlist.is_dead nl iid then (None, [])
  else
    let cell = Netlist.cell nl iid in
    let sw = match Walk.vgnd_state nl iid with Walk.Gated sw -> Some sw | _ -> None in
    let pins names init =
      List.fold_left
        (fun acc pin ->
          match Netlist.pin_net nl iid pin with Some nid -> insert nid acc | None -> acc)
        init names
    in
    match cell.Cell.kind with
    | Func.Dff -> (sw, pins [ "D" ] [])
    | Func.Sleep_switch -> (sw, pins [ "MTE" ] [])
    | Func.Holder -> (sw, pins [ "MTE"; "Z" ] [])
    | kind ->
      let supply =
        match cell.Cell.style with
        | Vth.Mt_embedded -> Netlist.pin_net nl iid "MTE"
        | Vth.Mt_vgnd -> Option.bind sw (fun sw -> Netlist.pin_net nl sw "MTE")
        | Vth.Plain | Vth.Mt_no_vgnd -> None
      in
      (sw, pins (Array.to_list (Func.input_names kind)) (Option.to_list supply))

let empty_structure nl =
  {
    nl;
    dom = [||];
    mte_dom = Hashtbl.create 7;
    deps = [||];
    others = [||];
    reads = [||];
    kept_by = [||];
    keeps = [||];
    keeper = [||];
    holder_deps = [||];
    held_by = [||];
    gated_by = [||];
    members = [||];
    net_mark = [||];
    inst_mark = [||];
    stamp = 0;
  }

(* A duplicate-free set over one of the mark arrays, returned as [add]
   and [elements].  [on_add] sees each element the first time it is
   added; [elements] lists the set ascending, scanning the marks instead
   of sorting when the set covers much of the netlist (a full analysis). *)
let collector ?(on_add = ignore) g marks =
  g.stamp <- g.stamp + 1;
  let stamp = g.stamp and items = ref [] and size = ref 0 in
  let add x =
    if marks.(x) <> stamp then begin
      marks.(x) <- stamp;
      items := x :: !items;
      incr size;
      on_add x
    end
  in
  let elements () =
    if !size * 8 < Array.length marks then List.sort Int.compare !items
    else begin
      let acc = ref [] in
      for x = Array.length marks - 1 downto 0 do
        if marks.(x) = stamp then acc := x :: !acc
      done;
      !acc
    end
  in
  (add, elements)

(* Every instance wired to the net: its driver, sinks and keepers. *)
let iter_pinned g nid f =
  Option.iter (fun (p : Netlist.pin) -> f p.Netlist.inst) (Netlist.driver g.nl nid);
  List.iter (fun (p : Netlist.pin) -> f p.Netlist.inst) (Netlist.sinks g.nl nid);
  List.iter f g.kept_by.(nid)

(* Re-derive the edges of every new instance and every instance pinned
   to a touched net — by its current wiring, or by an edge recorded at
   the last refresh — and re-resolve the keeper of every net such an
   instance could keep.  Every pin a netlist edit moves stamps both of
   its nets, and a new instance is found by its id, so no edge of an
   instance left out can have moved.
   Returns the nets whose inbound edges moved, which join the cone even
   when no touched net reaches them any more (a disconnected input, a
   keeper lost without its net being touched), and the instances
   refreshed, ascending: their rules are judged again even when they are
   pinned to no net of the cone any more. *)
let refresh g touched =
  let nl = g.nl in
  let nn = Netlist.net_count nl and ni = Netlist.inst_count nl in
  let first_new = Array.length g.reads in
  g.dom <- grow g.dom "" ni;
  g.deps <- grow g.deps [] nn;
  g.others <- grow g.others [] nn;
  g.reads <- grow g.reads [] ni;
  g.kept_by <- grow g.kept_by [] nn;
  g.keeps <- grow g.keeps None ni;
  g.keeper <- grow g.keeper None nn;
  g.holder_deps <- grow g.holder_deps [] nn;
  g.held_by <- grow g.held_by None nn;
  g.gated_by <- grow g.gated_by None ni;
  g.members <- grow g.members [] ni;
  g.net_mark <- grow g.net_mark 0 nn;
  g.inst_mark <- grow g.inst_mark 0 ni;
  Hashtbl.reset g.mte_dom;
  List.iter
    (fun (d, mte) -> Option.iter (fun m -> Hashtbl.replace g.mte_dom m d) mte)
    (Netlist.domains nl);
  let add, insts = collector g g.inst_mark and hold, held = collector g g.net_mark in
  for iid = first_new to ni - 1 do
    add iid
  done;
  List.iter
    (fun t ->
      iter_pinned g t add;
      List.iter add g.deps.(t);
      List.iter add g.others.(t);
      hold t;
      List.iter (fun (_, z) -> hold z) g.holder_deps.(t))
    touched;
  List.iter
    (fun iid ->
      if (Netlist.cell nl iid).Cell.kind = Func.Sleep_switch then List.iter add g.members.(iid))
    (insts ());
  let moved = ref [] in
  let refreshed = insts () in
  List.iter
    (fun iid ->
      g.dom.(iid) <- Option.value (Netlist.inst_domain nl iid) ~default:"";
      let sw, r = edges_of nl iid in
      if not (List.equal Int.equal r g.reads.(iid)) then begin
        List.iter
          (fun n ->
            g.deps.(n) <- drop iid g.deps.(n);
            g.others.(n) <- drop iid g.others.(n))
          g.reads.(iid);
        g.reads.(iid) <- r;
        if transferable (Netlist.cell nl iid).Cell.kind then begin
          List.iter (fun n -> g.deps.(n) <- insert iid g.deps.(n)) r;
          Option.iter (fun o -> moved := o :: !moved) (Netlist.output_net nl iid)
        end
        else List.iter (fun n -> g.others.(n) <- insert iid g.others.(n)) r
      end;
      if not (Option.equal Int.equal sw g.gated_by.(iid)) then begin
        Option.iter (fun s -> g.members.(s) <- drop iid g.members.(s)) g.gated_by.(iid);
        Option.iter (fun s -> g.members.(s) <- iid :: g.members.(s)) sw;
        g.gated_by.(iid) <- sw
      end;
      let z =
        if Netlist.is_dead nl iid || (Netlist.cell nl iid).Cell.kind <> Func.Holder then None
        else Netlist.pin_net nl iid "Z"
      in
      if not (Option.equal Int.equal z g.keeps.(iid)) then begin
        Option.iter (fun n -> g.kept_by.(n) <- drop iid g.kept_by.(n)) g.keeps.(iid);
        Option.iter (fun n -> g.kept_by.(n) <- insert iid g.kept_by.(n)) z;
        Option.iter hold g.keeps.(iid);
        g.keeps.(iid) <- z
      end;
      Option.iter hold z)
    (List.rev refreshed);
  let relist = ref [] in
  List.iter
    (fun z ->
      let w = match g.kept_by.(z) with h :: _ -> Some h | [] -> None in
      let m = Option.bind w (fun h -> Netlist.pin_net nl h "MTE") in
      let same = Option.equal Int.equal in
      if not (same w g.keeper.(z) && same m g.held_by.(z)) then begin
        Option.iter
          (fun m -> g.holder_deps.(m) <- List.filter (fun (_, n) -> n <> z) g.holder_deps.(m))
          g.held_by.(z);
        g.keeper.(z) <- w;
        g.held_by.(z) <- m;
        (match (w, m) with Some h, Some m -> relist := (h, z, m) :: !relist | _ -> ());
        moved := z :: !moved
      end)
    (held ());
  (* highest keeper id first, so a fresh build conses *)
  List.sort (fun (a, _, _) (b, _, _) -> Int.compare b a) !relist
  |> List.iter (fun (h, z, m) -> g.holder_deps.(m) <- insert_kept (h, z) g.holder_deps.(m));
  (!moved, refreshed)

(* Forward closure over data, supply, and keeper-enable edges: every net
   whose value could depend on a seed, ascending. *)
let cone_of g seeds =
  let q = Queue.create () in
  let add, cone = collector ~on_add:(fun nid -> Queue.push nid q) g g.net_mark in
  List.iter add seeds;
  while not (Queue.is_empty q) do
    let nid = Queue.pop q in
    List.iter (fun iid -> Option.iter add (Netlist.output_net g.nl iid)) g.deps.(nid);
    List.iter (fun (_, z) -> add z) g.holder_deps.(nid)
  done;
  cone ()

(* The live instances wired to any of the nets (driver, sinks, keepers),
   and the live ones of [also], ascending: the instances whose rules can
   read the nets. *)
let pinned_to ?(also = []) g nets =
  let nl = g.nl in
  let add, insts = collector g g.inst_mark in
  List.iter (fun iid -> if not (Netlist.is_dead nl iid) then add iid) also;
  List.iter (fun nid -> iter_pinned g nid add) nets;
  insts ()

(* --- per-mode stores --- *)

type state = {
  g : structure;
  nl : Netlist.t;
  mode : mode;
  (* per-net effective value (after any holder), None = bottom *)
  mutable value : L.v option array;
  (* per-net driver value before the holder is applied *)
  mutable raw : L.v option array;
  (* seed witness per net, None for transfer-computed nets *)
  mutable seed_path : string list option array;
  (* witness paths built so far, dropped over each re-run cone *)
  mutable path : string list option array;
  queue : Netlist.inst_id Queue.t;
  mutable queued : bool array;
  (* findings by the net or instance whose rules raised them; only
     non-empty slots are stored *)
  net_found : (Netlist.net_id, Rules.finding list) Hashtbl.t;
  inst_found : (Netlist.inst_id, Rules.finding list) Hashtbl.t;
  (* this run (analyze or update) only *)
  mutable transfers : int;
  mutable widened : int;
  mutable rule_evals : int;
  mutable paths_built : int;
}

let make_state g mode =
  {
    g;
    nl = g.nl;
    mode;
    value = [||];
    raw = [||];
    seed_path = [||];
    path = [||];
    queue = Queue.create ();
    queued = [||];
    net_found = Hashtbl.create 16;
    inst_found = Hashtbl.create 16;
    transfers = 0;
    widened = 0;
    rule_evals = 0;
    paths_built = 0;
  }

let enqueue st iid =
  if not st.queued.(iid) then begin
    st.queued.(iid) <- true;
    Queue.push iid st.queue
  end

let rec enqueue_deps st nid =
  List.iter (enqueue st) st.g.deps.(nid);
  List.iter
    (fun (_, held) ->
      if st.raw.(held) <> None then settle st held)
    st.g.holder_deps.(nid)

(* Effective value of [nid] given its raw driver value: the holder wired
   to the net (if any) keeps a floating level when its own enable is 1.
   None = the holder's enable is not known yet, try again later. *)
and holder_view st nid rv =
  match st.g.keeper.(nid) with
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
   Re-seeds the cone's sources: primary inputs and undriven nets in net-id
   order, then flip-flop outputs in instance-id order.  Seed notes are
   mode-independent where possible so findings dedup across modes. *)
let seed st cone =
  let nl = st.nl in
  let legacy = st.mode.m_name = "" in
  let mte_net = if legacy then Netlist.find_net nl "MTE" else None in
  List.iter
    (fun nid ->
      if Netlist.is_pi nl nid then begin
        let v, note =
          if legacy && mte_net = Some nid then (L.One, " (MTE=1 in standby)")
          else
            match Hashtbl.find_opt st.g.mte_dom nid with
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
      end)
    cone;
  List.filter_map
    (fun q ->
      match Netlist.driver nl q with
      | Some p when (Netlist.cell nl p.Netlist.inst).Cell.kind = Func.Dff -> Some (p.Netlist.inst, q)
      | Some _ | None -> None)
    cone
  |> List.sort compare
  |> List.iter (fun (iid, q) ->
         st.seed_path.(q) <- Some [ inst_token nl iid ^ " (flip-flop state)"; net_token nl q ];
         set_raw st q L.Held)

let fixpoint st cone =
  let drained = ref false in
  while not !drained do
    while not (Queue.is_empty st.queue) do
      let iid = Queue.pop st.queue in
      st.queued.(iid) <- false;
      transfer st iid
    done;
    (* widening: anything still bottom sits in (or behind) a
       combinational cycle the deferring transfers cannot enter; force
       those nets to Top and resume until nothing is bottom.  Only the
       cone was reset, so only the cone can be bottom. *)
    match List.filter (fun nid -> st.value.(nid) = None) cone with
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
   Built on demand, only for the nets findings cite.  A path walks back
   from the cited net through the one input or enable that explains each
   value, so it is a function of the final store and the cited net alone
   — never of the order the worklist visited nets in, nor of the order
   findings ask for paths.  That is what makes an update's report
   byte-identical to a from-scratch run.  Paths are memoized per mode
   until their net's cone is re-run.  A walk that meets a net already on
   its own chain (a combinational loop) stops there; where it entered the
   loop depends on where it started, so such a path is rebuilt for each
   request rather than memoized. *)
let witness st nid =
  let nl = st.nl in
  let on_chain = Hashtbl.create 8 in
  let rec build nid =
    match st.path.(nid) with
    | Some p -> (p, false)
    | None when Hashtbl.mem on_chain nid -> ([ net_token nl nid ^ " (cyclic)" ], true)
    | None ->
      Hashtbl.add on_chain nid ();
      st.paths_built <- st.paths_built + 1;
      let ((p, looped) as r) = explain nid in
      Hashtbl.remove on_chain nid;
      if not looped then st.path.(nid) <- Some p;
      r
  and via src steps =
    let p, looped = build src in
    (extend_path p steps, looped)
  and explain nid =
    match st.seed_path.(nid) with
    | Some sp -> (sp, false)
    | None -> (
      match Netlist.driver nl nid with
      | None -> ([ net_token nl nid ], false) (* unreachable: undriven nets are seeded *)
      | Some dp ->
        let iid = dp.Netlist.inst in
        let cell = Netlist.cell nl iid in
        if not (transferable cell.Cell.kind) then ([ inst_token nl iid; net_token nl nid ], false)
        else (
          match supply_of st iid cell with
          | Cut -> ([ inst_token nl iid ^ " (VGND cut in standby)"; net_token nl nid ], false)
          | Internally_held -> ([ inst_token nl iid ^ " (embedded holder)"; net_token nl nid ], false)
          | Unknown_power m ->
            via m [ inst_token nl iid ^ " (enable undetermined)"; net_token nl nid ]
          | Defer_supply -> ([ net_token nl nid ^ " (widened: cyclic)" ], false)
          | Powered ->
            if st.raw.(nid) = None then ([ net_token nl nid ^ " (widened: cyclic)" ], false)
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
              let steps = [ inst_token nl iid; net_token nl nid ] in
              match source with Some s -> via s steps | None -> (extend_path [] steps, false)
            end))
  in
  fst (build nid)

(* --- rules, one net or one instance at a time --- *)

let level st nid = match st.value.(nid) with Some v -> v | None -> L.Top
let is_legacy st = st.mode.m_name = ""
let asleep st d = d <> "" && List.mem d st.mode.m_asleep
let dom_of st iid = st.g.dom.(iid)

(* a reader that sees the net's level in this mode: not switch/holder
   plumbing, and either always-on or an MT-cell of an awake domain *)
let powered_reader st (p : Netlist.pin) =
  let c = Netlist.cell st.nl p.Netlist.inst in
  (not (Func.is_infrastructure c.Cell.kind))
  && ((not (Cell.is_mt c)) || ((not (is_legacy st)) && not (asleep st (dom_of st p.Netlist.inst))))

(* [Some d] when the net is driven by MT logic of a domain asleep in this
   mode: candidate boundary-crossing source *)
let crossing_source st nid =
  if is_legacy st then None
  else
    match Netlist.driver st.nl nid with
    | Some p when Cell.is_mt (Netlist.cell st.nl p.Netlist.inst) ->
      let d = dom_of st p.Netlist.inst in
      if asleep st d then Some d else None
    | _ -> None

let enable_domain st e =
  match Hashtbl.find_opt st.g.mte_dom e with
  | Some d -> d
  | None -> (
    match Netlist.driver st.nl e with
    | Some p -> dom_of st p.Netlist.inst
    | None -> "")

(* [Some (h, e, ed, d)] when the net's keeper [h] guards sleeping domain
   [d] with an enable [e] that belongs to domain [ed] *)
let iso_bad st nid =
  match (st.g.keeper.(nid), crossing_source st nid) with
  | Some h, Some d -> (
    match Netlist.pin_net st.nl h "MTE" with
    | Some e ->
      let ed = enable_domain st e in
      if ed <> d then Some (h, e, ed, d) else None
    | None -> None)
  | _ -> None

(* The net a holder keeps, if it won the net. *)
let kept_net st h =
  match Netlist.pin_net st.nl h "Z" with
  | Some z when st.g.keeper.(z) = Some h -> Some z
  | Some _ | None -> None

let emit_to st out rule loc ?(witness = []) fmt =
  Printf.ksprintf
    (fun message -> out := { Rules.rule; loc; mode = st.mode.m_name; message; witness } :: !out)
    fmt

let eval_net st ~deepest nid =
  let nl = st.nl in
  let out = ref [] in
  let emit rule loc ?witness fmt = emit_to st out rule loc ?witness fmt in
  let name = Netlist.net_name nl nid in
  let loc = "net:" ^ name in
  let v = level st nid in
  let readers = List.filter (powered_reader st) (Netlist.sinks nl nid) in
  let cross = crossing_source st nid in
  let iso = iso_bad st nid in
  let kept = st.g.keeper.(nid) <> None in
  (match v with
  | L.Float -> (
    match cross with
    | None ->
      if Netlist.is_po nl nid then
        emit Rules.float_into_awake loc ~witness:(witness st nid)
          "net floats in standby and is a primary output"
      else if readers <> [] then
        let r = List.hd readers in
        emit Rules.float_into_awake loc ~witness:(witness st nid)
          "net floats in standby; %d always-on sink%s (first: %s.%s)"
          (List.length readers)
          (if List.length readers = 1 then "" else "s")
          (Netlist.inst_name nl r.Netlist.inst)
          r.Netlist.pin_name
    | Some d ->
      if Netlist.is_po nl nid then
        emit Rules.float_into_awake loc ~witness:(witness st nid)
          "net floats in standby and is a primary output";
      let local, foreign =
        List.partition (fun (p : Netlist.pin) -> dom_of st p.Netlist.inst = d) readers
      in
      (if local <> [] then
         let r = List.hd local in
         emit Rules.float_into_awake loc ~witness:(witness st nid)
           "net floats in standby; %d always-on sink%s (first: %s.%s)"
           (List.length local)
           (if List.length local = 1 then "" else "s")
           (Netlist.inst_name nl r.Netlist.inst)
           r.Netlist.pin_name);
      (match foreign with
      | [] -> ()
      | r :: _ when iso = None ->
        let rd = dom_of st r.Netlist.inst in
        let rdom = if rd = "" then "always-on logic" else "domain " ^ rd in
        if kept then
          emit Rules.cross_domain_float loc ~witness:(witness st nid)
            "net from sleeping domain %s floats into awake logic: %d powered sink%s \
             outside the domain (first: %s.%s in %s); the wired holder does not engage"
            d (List.length foreign)
            (if List.length foreign = 1 then "" else "s")
            (Netlist.inst_name nl r.Netlist.inst)
            r.Netlist.pin_name rdom
        else
          emit Rules.missing_isolation loc ~witness:(witness st nid)
            "net leaves sleeping domain %s with no isolation holder; %d powered \
             sink%s in other domains (first: %s.%s in %s)"
            d (List.length foreign)
            (if List.length foreign = 1 then "" else "s")
            (Netlist.inst_name nl r.Netlist.inst)
            r.Netlist.pin_name rdom
      | _ :: _ -> ()))
  | L.Top -> (
    if Netlist.is_po nl nid then
      emit Rules.crowbar_risk loc ~witness:(witness st nid)
        "primary output may float in standby (value top)";
    match cross with
    | Some d
      when iso = None && kept
           && (match st.raw.(nid) with Some rv -> L.may_float rv | None -> true) -> (
      let foreign =
        List.filter (fun (p : Netlist.pin) -> dom_of st p.Netlist.inst <> d) readers
      in
      match foreign with
      | [] -> ()
      | r :: _ ->
        emit Rules.cross_domain_float loc ~witness:(witness st nid)
          "net from sleeping domain %s may float into awake logic (holder enable is \
           not a constant); %d powered sink%s outside the domain (first: %s.%s)"
          d (List.length foreign)
          (if List.length foreign = 1 then "" else "s")
          (Netlist.inst_name nl r.Netlist.inst)
          r.Netlist.pin_name)
    | _ -> ())
  | L.Zero | L.One | L.Held -> ());
  (match iso with
  | Some (h, e, ed, d) ->
    let edn = if ed = "" then "the always-on domain" else "domain " ^ ed in
    emit Rules.isolation_enable_off_domain
      ("inst:" ^ Netlist.inst_name nl h)
      ~witness:(witness st e)
      "isolation holder on net %s guards sleeping domain %s but its enable (net %s) \
       belongs to %s"
      name d (Netlist.net_name nl e) edn
  | None -> ());
  (* uselessness is judged in the deepest mode only: a holder idle in a
     partial-sleep mode may be doing its job in a deeper one *)
  (if deepest then
     match st.g.keeper.(nid) with
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
               && dom_of st p.Netlist.inst <> d)
             (Netlist.sinks nl nid)
       in
       match st.raw.(nid) with
       | Some ((L.Zero | L.One | L.Held) as r) ->
         emit Rules.useless_holder loc
           "holder %s keeps a net that never floats (driver value %s in standby)" hname
           (L.to_string r)
       | Some L.Float when (not (Netlist.is_po nl nid)) && readers = [] && not boundary ->
         emit Rules.useless_holder loc "holder %s keeps a net only floating MT logic reads"
           hname
       | Some (L.Float | L.Top) | None -> ()));
  List.rev !out

let eval_inst st iid =
  let nl = st.nl in
  let out = ref [] in
  let emit rule loc ?witness fmt = emit_to st out rule loc ?witness fmt in
  let legacy = is_legacy st in
  let cell = Netlist.cell nl iid in
  let mte_pin_check () =
    match Netlist.pin_net nl iid "MTE" with
    | None -> () (* DRC: floating required pin *)
    | Some m -> (
      let loc = "inst:" ^ Netlist.inst_name nl iid in
      let role =
        match cell.Cell.kind with
        | Func.Sleep_switch -> "sleep switch"
        | Func.Holder -> "holder"
        | _ -> "embedded MT-cell"
      in
      (* the domain whose sleep schedule this enable should follow *)
      let gov =
        if legacy then ""
        else
          match cell.Cell.kind with
          | Func.Holder -> (
            match kept_net st iid with
            | Some nid -> (
              match Netlist.driver nl nid with
              | Some p when Cell.is_mt (Netlist.cell nl p.Netlist.inst) -> dom_of st p.Netlist.inst
              | _ -> "")
            | None -> "")
          | _ -> dom_of st iid
      in
      if legacy || gov = "" || asleep st gov then begin
        match level st m with
        | L.One -> ()
        | L.Zero ->
          emit Rules.mte_polarity loc ~witness:(witness st m)
            "%s enable is 0 in standby (net %s): it never sleeps%s" role
            (Netlist.net_name nl m)
            (match cell.Cell.kind with
            | Func.Holder -> "; the net it keeps is unguarded"
            | _ -> "")
        | (L.Held | L.Float | L.Top) as v ->
          emit Rules.mte_undetermined loc ~witness:(witness st m)
            "%s enable is %s in standby (net %s), not a constant" role (L.to_string v)
            (Netlist.net_name nl m)
      end
      else begin
        (* governing domain awake in this mode *)
        match cell.Cell.kind with
        | Func.Holder -> () (* a keeper engaged while its source drives is harmless *)
        | _ -> (
          match level st m with
          | L.Zero -> ()
          | L.One ->
            emit Rules.mte_polarity loc ~witness:(witness st m)
              "%s enable is 1 while domain %s is awake (net %s): the domain sleeps when it \
               should run"
              role gov (Netlist.net_name nl m)
          | (L.Held | L.Float | L.Top) as v ->
            emit Rules.mte_undetermined loc ~witness:(witness st m)
              "%s enable is %s while domain %s is awake (net %s), not a constant" role
              (L.to_string v) gov (Netlist.net_name nl m))
      end)
  in
  (match cell.Cell.kind with
  | Func.Sleep_switch -> mte_pin_check ()
  | Func.Holder ->
    (* a holder whose cross-wired enable is the root cause is reported by
       its net's isolation rule instead *)
    let iso_flagged =
      match kept_net st iid with Some z -> iso_bad st z <> None | None -> false
    in
    if not iso_flagged then mte_pin_check ()
  | Func.Dff ->
    if Library.is_retention cell then begin
      match Netlist.pin_net nl iid "D" with
      | Some d when L.may_float (level st d) ->
        emit Rules.retention_input_float
          ("inst:" ^ Netlist.inst_name nl iid)
          ~witness:(witness st d)
          "retention flip-flop data input is %s in standby (net %s)"
          (L.to_string (level st d)) (Netlist.net_name nl d)
      | Some _ | None -> ()
    end
  | _ -> if Vth.style_equal cell.Cell.style Vth.Mt_embedded then mte_pin_check ());
  (* crowbar: a powered gate fed by a maybe-floating level *)
  (if Vth.style_equal cell.Cell.style Vth.Plain && transferable cell.Cell.kind then begin
     let names = Func.input_names cell.Cell.kind in
     let bad = ref None in
     Array.iter
       (fun pin ->
         if !bad = None then
           match Netlist.pin_net nl iid pin with
           | Some nid when level st nid = L.Top -> bad := Some (pin, nid)
           | Some _ | None -> ())
       names;
     match !bad with
     | Some (pin, nid) ->
       emit Rules.crowbar_risk
         ("inst:" ^ Netlist.inst_name nl iid)
         ~witness:(witness st nid)
         "powered gate input %s may be at an intermediate level in standby (net %s)" pin
         (Netlist.net_name nl nid)
     | None -> ()
   end);
  (* always-on path: this gate sleeps while both the logic feeding it and
     the logic reading it stay powered — a structural routing hazard even
     when isolation clamps the level *)
  (if (not legacy) && Cell.is_mt cell && transferable cell.Cell.kind then begin
     let d = dom_of st iid in
     if asleep st d then
       match Netlist.output_net nl iid with
       | None -> ()
       | Some out -> (
         let powered_src (p : Netlist.pin) =
           let c = Netlist.cell nl p.Netlist.inst in
           (not (Func.is_infrastructure c.Cell.kind))
           && ((not (Cell.is_mt c)) || not (asleep st (dom_of st p.Netlist.inst)))
         in
         let live_in = ref None in
         Array.iter
           (fun pin ->
             if !live_in = None then
               match Netlist.pin_net nl iid pin with
               | None -> ()
               | Some src -> (
                 match Netlist.driver nl src with
                 | Some p when dom_of st p.Netlist.inst <> d && powered_src p ->
                   live_in := Some (pin, src)
                 | Some _ | None -> ()))
           (Func.input_names cell.Cell.kind);
         match !live_in with
         | None -> ()
         | Some (pin, src) ->
           let read_out =
             Netlist.is_po nl out
             || List.exists
                  (fun (p : Netlist.pin) -> powered_reader st p && dom_of st p.Netlist.inst <> d)
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
               "path through sleeping domain %s: input %s is driven from awake logic and \
                output %s is read outside the domain"
               d pin (Netlist.net_name nl out))
   end);
  List.rev !out

(* --- one run over a cone ---
   A full analysis is the case where the cone is every net.  The cone is
   re-seeded from bottom and re-propagated, its witnesses dropped, and the
   rules re-run over its nets and the instances pinned to them; every
   other slot keeps its findings, and removed instances lose theirs. *)
let run_cone st ~cone ~insts ~deepest =
  let nl = st.nl in
  let nn = Netlist.net_count nl and ni = Netlist.inst_count nl in
  st.value <- grow st.value None nn;
  st.raw <- grow st.raw None nn;
  st.seed_path <- grow st.seed_path None nn;
  st.path <- grow st.path None nn;
  st.queued <- grow st.queued false ni;
  st.transfers <- 0;
  st.widened <- 0;
  st.rule_evals <- 0;
  st.paths_built <- 0;
  List.iter
    (fun nid ->
      st.raw.(nid) <- None;
      st.value.(nid) <- None;
      st.seed_path.(nid) <- None;
      st.path.(nid) <- None)
    cone;
  seed st cone;
  List.iter
    (fun nid ->
      match Netlist.driver nl nid with
      | Some p when transferable (Netlist.cell nl p.Netlist.inst).Cell.kind ->
        enqueue st p.Netlist.inst
      | Some _ | None -> ())
    cone;
  fixpoint st cone;
  let slot tbl key = function [] -> Hashtbl.remove tbl key | fs -> Hashtbl.replace tbl key fs in
  List.iter (fun nid -> slot st.net_found nid (eval_net st ~deepest nid)) cone;
  List.iter (fun iid -> slot st.inst_found iid (eval_inst st iid)) insts;
  Hashtbl.filter_map_inplace
    (fun iid fs -> if Netlist.is_dead nl iid then None else Some fs)
    st.inst_found;
  st.rule_evals <- List.length cone + List.length insts

(* Net rules in net-id order, then instance rules in instance-id order. *)
let mode_findings st =
  let all tbl =
    Hashtbl.fold (fun key fs acc -> (key, fs) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.concat_map snd
  in
  all st.net_found @ all st.inst_found

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

let finish nl sts =
  let findings, dupes = dedup_findings (List.map mode_findings sts) in
  let sum f = List.fold_left (fun a st -> a + f st) 0 sts in
  let transfers = sum (fun st -> st.transfers) and widened = sum (fun st -> st.widened) in
  Metrics.incr m_mode_dedup ~by:dupes;
  Metrics.incr m_transfers ~by:transfers;
  Metrics.incr m_widened ~by:widened;
  Metrics.incr m_rule_evals ~by:(sum (fun st -> st.rule_evals));
  Metrics.incr m_paths_built ~by:(sum (fun st -> st.paths_built));
  let deep = List.nth sts (List.length sts - 1) in
  let values = ref [] in
  Netlist.iter_nets nl (fun nid -> values := (Netlist.net_name nl nid, level deep nid) :: !values);
  {
    findings;
    values = List.rev !values;
    transfers;
    widened;
    modes = List.map (fun st -> st.mode.m_name) sts;
  }

(* Each mode's store runs the cone on its own worker; the structure they
   share is only read. *)
let run_modes ~jobs sts ~cone ~insts =
  let last = List.length sts - 1 in
  Par.map ~jobs
    (fun (i, st) ->
      run_cone st ~cone ~insts ~deepest:(i = last);
      st)
    (List.mapi (fun i st -> (i, st)) sts)

let run_all ~jobs nl =
  let g = empty_structure nl in
  let all = List.init (Netlist.net_count nl) Fun.id in
  ignore (refresh g all);
  let sts = List.map (make_state g) (modes_of nl) in
  (g, run_modes ~jobs sts ~cone:all ~insts:(pinned_to g all))

let analyze ?(jobs = 1) nl =
  Trace.with_span "Verify.analyze" ~args:[ ("circuit", Netlist.design_name nl) ]
  @@ fun () ->
  Metrics.incr m_runs;
  finish nl (snd (run_all ~jobs nl))

(* --- incremental sessions --- *)

type session = {
  s_nl : Netlist.t;
  mutable s_g : structure;
  mutable s_states : state list;
  mutable s_mode_names : string list;
  mutable s_version : int;  (* the netlist journal version the stores reflect *)
}

let start ?(jobs = 1) nl =
  Trace.with_span "Verify.start" ~args:[ ("circuit", Netlist.design_name nl) ]
  @@ fun () ->
  Metrics.incr m_runs;
  let version = Netlist.version nl in
  let g, sts = run_all ~jobs nl in
  let s =
    {
      s_nl = nl;
      s_g = g;
      s_states = sts;
      s_mode_names = List.map (fun st -> st.mode.m_name) sts;
      s_version = version;
    }
  in
  (s, finish nl sts)

let update ?(jobs = 1) s =
  Trace.with_span "Verify.update" ~args:[ ("circuit", Netlist.design_name s.s_nl) ]
  @@ fun () ->
  Metrics.incr m_updates;
  let nl = s.s_nl in
  let touched = Netlist.touched_since nl s.s_version in
  s.s_version <- Netlist.version nl;
  let names = List.map (fun m -> m.m_name) (modes_of nl) in
  if names <> s.s_mode_names then begin
    (* the domain table itself changed: mode vector is different, restart *)
    let g, sts = run_all ~jobs nl in
    s.s_g <- g;
    s.s_states <- sts;
    s.s_mode_names <- names;
    finish nl sts
  end
  else begin
    let moved, refreshed = refresh s.s_g touched in
    let cone = cone_of s.s_g (touched @ moved) in
    let insts = pinned_to s.s_g cone ~also:refreshed in
    s.s_states <- run_modes ~jobs s.s_states ~cone ~insts;
    finish nl s.s_states
  end

let value_of r name =
  List.assoc_opt name r.values
