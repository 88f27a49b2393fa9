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

(* --- the int-coded lattice ---
   A store holds one code per net: the value's index in [of_code], or
   [bot] while the net is not computed yet.  The driven levels code below
   [c_float], so "may float" is [>= c_float]. *)
let of_code = [| L.Zero; L.One; L.Held; L.Float; L.Top |]
let code = function L.Zero -> 0 | L.One -> 1 | L.Held -> 2 | L.Float -> 3 | L.Top -> 4
let c_zero = 0
let c_one = 1
let c_held = 2
let c_float = 3
let c_top = 4
let bot = 5

(* {!Lattice.join} over codes, with [bot] as its identity. *)
let join a b =
  if a = b || b = bot then a else if a = bot then b else code (L.join of_code.(a) of_code.(b))

(* --- per-kind transfer tables ---
   Entry [sum_j c_j * 5^(n-1-j)] of a kind's table is the code of
   [Lattice.eval kind] at the inputs coded [c_0 .. c_(n-1)], so a powered
   transfer is one table read and exactly {!Lattice.eval}.  Built on first
   use, so a program that never verifies never allocates them; afterwards
   every analysis, on any domain, reads the same immutable arrays (a race
   to build them builds equal tables twice). *)
let transfer_table kind =
  let names = Func.input_names kind in
  let n = Array.length names in
  let size = Array.fold_left (fun acc _ -> 5 * acc) 1 names in
  Array.init size (fun idx ->
      let ins = Array.make n L.Zero in
      let r = ref idx in
      for j = n - 1 downto 0 do
        ins.(j) <- of_code.(!r mod 5);
        r := !r / 5
      done;
      code (L.eval kind ins))

let tables : (Func.kind * int array) list option Atomic.t = Atomic.make None

let table_of kind =
  if not (transferable kind) then [||]
  else
    let all =
      match Atomic.get tables with
      | Some all -> all
      | None ->
        let all = List.map (fun k -> (k, transfer_table k)) (List.filter transferable Func.all) in
        Atomic.set tables (Some all);
        all
    in
    List.assq kind all

(* Supply codes: how a transferable instance is supplied.  An embedded
   MT-cell's enable is its own MTE pin, a VGND member's its switch's. *)
let s_plain = 0 (* true rails (also an embedded MT-cell with no enable wired) *)
let s_cut = 1 (* no path to ground: no VGND port, or one on no live switch *)
let s_embedded = 2 (* own sleep transistor, gated by [enable] *)
let s_vgnd = 3 (* hangs from switch [gated_by], gated by [enable]; -1 = the switch has none *)

(* --- structure: who re-runs when a net moves ---
   Shared by every mode and kept in step with the netlist's journal: an
   update re-derives the rows and edges of the instances pinned to touched
   nets only.  Every edge list is in instance-id order, the order a walk
   over the whole netlist would give, so the worklist visits instances in
   the same order however the structure was reached. *)
type structure = {
  nl : Netlist.t;
  mutable mte_dom : (Netlist.net_id, string) Hashtbl.t;  (* enable net -> its domain *)
  (* compiled rows, per instance: what a transfer, a witness and the rules
     read instead of named pins; -1 = none.  An instance's edges hang on
     the nets of its [ins], [enable] and [keeps] rows. *)
  mutable out : Netlist.net_id array;  (* the net on its output pin *)
  mutable ins : Netlist.net_id array array;
      (* a gate's input nets in [Func.input_names] order; a flip-flop's D *)
  mutable table : int array array;  (* its kind's transfer table; [||] unless transferable *)
  mutable supply : int array;  (* [s_plain] | [s_cut] | [s_embedded] | [s_vgnd] *)
  (* the MTE net that governs it: a switch's, holder's or embedded gate's
     own pin, a VGND member's switch's pin *)
  mutable enable : Netlist.net_id array;
  (* net -> the instance whose [out] it is: a driver whose output pin
     left a touched net is found by it *)
  mutable drives : Netlist.inst_id array;
  (* net -> transferable instances that read it (input or supply enable) *)
  mutable deps : Netlist.inst_id list array;
  (* net -> flip-flops, switches and holders whose rules read it: one that
     loses its pin there must be judged again *)
  mutable others : Netlist.inst_id list array;
  (* net -> the live holders wired to it by Z, and holder -> that net:
     the wire, which a [Netlist.holder_of] record can disagree with *)
  mutable kept_by : Netlist.inst_id list array;
  mutable keeps : Netlist.net_id array;
  (* net -> the holder that keeps it: the lowest id in [kept_by] *)
  mutable keeper : Netlist.inst_id array;
  (* keeper-enable net -> (keeper, held net), to re-settle when it moves *)
  mutable holder_deps : (Netlist.inst_id * Netlist.net_id) list array;
  (* held net -> the enable net whose [holder_deps] lists it *)
  mutable held_by : Netlist.net_id array;
  (* VGND member -> its switch, and switch -> members: a switch's new
     enable is an edge of every member, none of which the journal names *)
  mutable gated_by : Netlist.inst_id array;
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

let pin nl iid name = match Netlist.pin_net nl iid name with Some n -> n | None -> -1

let set_out g iid out =
  let old = g.out.(iid) in
  if old <> out then begin
    if old >= 0 && g.drives.(old) = iid then g.drives.(old) <- -1;
    if out >= 0 then g.drives.(out) <- iid;
    g.out.(iid) <- out
  end

(* Compiles the instance's rows from its current wiring.  Its edge nets
   then are what a transferable instance reads (its inputs and its
   supply's enable), or the pins a flip-flop's (D), switch's (MTE) or
   holder's (MTE, Z) rules read; a removed instance has none. *)
let compile g iid =
  let nl = g.nl in
  if Netlist.is_dead nl iid then begin
    set_out g iid (-1);
    g.ins.(iid) <- [||];
    g.table.(iid) <- [||];
    g.supply.(iid) <- s_plain;
    g.enable.(iid) <- -1;
    g.gated_by.(iid) <- -1;
    g.keeps.(iid) <- -1
  end
  else begin
    let cell = Netlist.cell nl iid in
    let kind = cell.Cell.kind in
    let row = Array.make (Array.length (Func.input_names kind)) (-1) in
    set_out g iid (Netlist.read_pins nl iid row);
    let sw = match Walk.vgnd_state nl iid with Walk.Gated sw -> sw | _ -> -1 in
    let supply, enable =
      match (kind, cell.Cell.style) with
      | (Func.Sleep_switch | Func.Holder), _ -> (s_plain, pin nl iid "MTE")
      | Func.Dff, _ | _, Vth.Plain -> (s_plain, -1)
      | _, Vth.Mt_no_vgnd -> (s_cut, -1)
      | _, Vth.Mt_embedded ->
        let m = pin nl iid "MTE" in
        ((if m < 0 then s_plain else s_embedded), m)
      | _, Vth.Mt_vgnd -> if sw < 0 then (s_cut, -1) else (s_vgnd, pin nl sw "MTE")
    in
    g.ins.(iid) <- row;
    g.table.(iid) <- table_of kind;
    g.supply.(iid) <- supply;
    g.enable.(iid) <- enable;
    g.gated_by.(iid) <- sw;
    g.keeps.(iid) <- (if kind = Func.Holder then pin nl iid "Z" else -1)
  end

(* Edge nets as a row, an enable and a Z net: membership, and one
   function applied to each (a net named twice is seen twice). *)
let rec in_row row n i = i < Array.length row && (row.(i) = n || in_row row n (i + 1))

let mem_edges row en z n = n = en || n = z || in_row row n 0

let rec within row en z row' en' z' i =
  if i = Array.length row then
    (en < 0 || mem_edges row' en' z' en) && (z < 0 || mem_edges row' en' z' z)
  else (row.(i) < 0 || mem_edges row' en' z' row.(i)) && within row en z row' en' z' (i + 1)

let same_edges row en z row' en' z' =
  within row en z row' en' z' 0 && within row' en' z' row en z 0

let each_edge f g iid row en z =
  for i = 0 to Array.length row - 1 do
    if row.(i) >= 0 then f g iid row.(i)
  done;
  if en >= 0 then f g iid en;
  if z >= 0 then f g iid z

let unlink g iid n =
  g.deps.(n) <- drop iid g.deps.(n);
  g.others.(n) <- drop iid g.others.(n)

let link_dep g iid n = g.deps.(n) <- insert iid g.deps.(n)
let link_other g iid n = g.others.(n) <- insert iid g.others.(n)

(* Recompiles one instance and moves its edges, its switch membership and
   its keeper wire with it.  [moved] sees the output net of a
   transferable instance whose edges moved; [hold] every net it keeps or
   kept, whose keeper must be resolved again. *)
let refresh_inst g ~moved ~hold iid =
  let nl = g.nl in
  let row0 = g.ins.(iid) and en0 = g.enable.(iid) and z0 = g.keeps.(iid) in
  let sw0 = g.gated_by.(iid) in
  compile g iid;
  let row = g.ins.(iid) and en = g.enable.(iid) and z = g.keeps.(iid) in
  if not (same_edges row0 en0 z0 row en z) then begin
    each_edge unlink g iid row0 en0 z0;
    if transferable (Netlist.cell nl iid).Cell.kind then begin
      each_edge link_dep g iid row en z;
      if g.out.(iid) >= 0 then moved g.out.(iid)
    end
    else each_edge link_other g iid row en z
  end;
  let sw = g.gated_by.(iid) in
  if sw <> sw0 then begin
    if sw0 >= 0 then g.members.(sw0) <- drop iid g.members.(sw0);
    if sw >= 0 then g.members.(sw) <- iid :: g.members.(sw)
  end;
  if z <> z0 then begin
    if z0 >= 0 then begin
      g.kept_by.(z0) <- drop iid g.kept_by.(z0);
      hold z0
    end;
    if z >= 0 then g.kept_by.(z) <- insert iid g.kept_by.(z)
  end;
  if z >= 0 then hold z

(* Re-resolves the keeper of held net [z]: the lowest live holder wired
   to it, and that holder's enable.  A change is [moved] and queued on
   [relist] as (keeper, net, enable). *)
let resettle g ~moved relist z =
  let w = match g.kept_by.(z) with h :: _ -> h | [] -> -1 in
  let m = if w >= 0 then g.enable.(w) else -1 in
  if not (w = g.keeper.(z) && m = g.held_by.(z)) then begin
    let old = g.held_by.(z) in
    if old >= 0 then g.holder_deps.(old) <- List.filter (fun (_, n) -> n <> z) g.holder_deps.(old);
    g.keeper.(z) <- w;
    g.held_by.(z) <- m;
    if w >= 0 && m >= 0 then relist := (w, z, m) :: !relist;
    moved z
  end

(* highest keeper id first, so a fresh build conses *)
let relink g relist =
  List.sort (fun (a, _, _) (b, _, _) -> Int.compare b a) relist
  |> List.iter (fun (h, z, m) -> g.holder_deps.(m) <- insert_kept (h, z) g.holder_deps.(m))

let empty_structure nl =
  {
    nl;
    mte_dom = Hashtbl.create 7;
    out = [||];
    ins = [||];
    table = [||];
    supply = [||];
    enable = [||];
    drives = [||];
    deps = [||];
    others = [||];
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

(* Sizes every array to the netlist and re-reads the domain table;
   returns the first instance id the structure has not seen. *)
let prepare g =
  let nl = g.nl in
  let nn = Netlist.net_count nl and ni = Netlist.inst_count nl in
  let first_new = Array.length g.out in
  g.out <- grow g.out (-1) ni;
  g.ins <- grow g.ins [||] ni;
  g.table <- grow g.table [||] ni;
  g.supply <- grow g.supply s_plain ni;
  g.enable <- grow g.enable (-1) ni;
  g.drives <- grow g.drives (-1) nn;
  g.deps <- grow g.deps [] nn;
  g.others <- grow g.others [] nn;
  g.kept_by <- grow g.kept_by [] nn;
  g.keeps <- grow g.keeps (-1) ni;
  g.keeper <- grow g.keeper (-1) nn;
  g.holder_deps <- grow g.holder_deps [] nn;
  g.held_by <- grow g.held_by (-1) nn;
  g.gated_by <- grow g.gated_by (-1) ni;
  g.members <- grow g.members [] ni;
  Hashtbl.reset g.mte_dom;
  List.iter
    (fun (d, mte) -> Option.iter (fun m -> Hashtbl.replace g.mte_dom m d) mte)
    (Netlist.domains nl);
  first_new

(* A duplicate-free set of nets or of instances, over the structure's
   marks for them, returned as [add] and [elements].  [on_add] sees each
   element the first time it is added; [elements] lists the set
   ascending, scanning the marks instead of sorting when the set covers
   much of the netlist. *)
let collector ?(on_add = ignore) g ~nets =
  let marks =
    if nets then begin
      g.net_mark <- grow g.net_mark 0 (Netlist.net_count g.nl);
      g.net_mark
    end
    else begin
      g.inst_mark <- grow g.inst_mark 0 (Netlist.inst_count g.nl);
      g.inst_mark
    end
  in
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

let rec iter_pins f = function
  | [] -> ()
  | (p : Netlist.pin) :: rest ->
    f p.Netlist.inst;
    iter_pins f rest

(* Every instance wired to the net: its driver, sinks and keepers. *)
let iter_pinned g nid f =
  (match Netlist.driver g.nl nid with Some p -> f p.Netlist.inst | None -> ());
  iter_pins f (Netlist.sinks g.nl nid);
  List.iter f g.kept_by.(nid)

(* The structure of a whole netlist: what [refresh] gives a fresh
   structure with every net touched — every instance refreshed, highest
   id first, and the keeper of every net resolved.  Returns the live
   instances wired to some net, ascending: [pinned_to] every net, read
   off the instances, since each pin an instance has makes it its net's
   driver, one of its sinks, or (a holder's Z) one of its keepers. *)
let build g =
  ignore (prepare g);
  let nl = g.nl in
  let nn = Netlist.net_count nl and ni = Netlist.inst_count nl in
  let wired = ref [] in
  for iid = ni - 1 downto 0 do
    refresh_inst g ~moved:ignore ~hold:ignore iid;
    match Netlist.conns nl iid with [] -> () | _ :: _ -> wired := iid :: !wired
  done;
  let relist = ref [] in
  for z = 0 to nn - 1 do
    resettle g ~moved:ignore relist z
  done;
  relink g !relist;
  !wired

(* Re-derive the rows and edges of every new instance and every instance
   pinned to a touched net — by its current wiring, or by an edge or
   output recorded at the last refresh (a driver whose output pin left
   the net is found by [drives]) — and re-resolve the keeper of every net
   such an instance could keep.  Every pin a netlist edit moves stamps
   both of its nets, and a new instance is found by its id, so no edge or
   row of an instance left out can have moved.
   Returns the nets whose inbound edges moved, which join the cone even
   when no touched net reaches them any more (a disconnected input, a
   keeper lost without its net being touched), and the instances
   refreshed, ascending: their rules are judged again even when they are
   pinned to no net of the cone any more. *)
let refresh g touched =
  let nl = g.nl in
  let first_new = prepare g in
  let add, insts = collector g ~nets:false and hold, held = collector g ~nets:true in
  for iid = first_new to Netlist.inst_count nl - 1 do
    add iid
  done;
  List.iter
    (fun t ->
      iter_pinned g t add;
      List.iter add g.deps.(t);
      List.iter add g.others.(t);
      if g.drives.(t) >= 0 then add g.drives.(t);
      hold t;
      List.iter (fun (_, z) -> hold z) g.holder_deps.(t))
    touched;
  List.iter
    (fun iid ->
      if (Netlist.cell nl iid).Cell.kind = Func.Sleep_switch then List.iter add g.members.(iid))
    (insts ());
  let refreshed = insts () in
  let moved = ref [] in
  let note nid = moved := nid :: !moved in
  List.iter (refresh_inst g ~moved:note ~hold) (List.rev refreshed);
  let relist = ref [] in
  List.iter (resettle g ~moved:note relist) (held ());
  relink g !relist;
  (!moved, refreshed)

(* Forward closure over data, supply, and keeper-enable edges: every net
   whose value could depend on a seed, ascending. *)
let cone_of g seeds =
  let q = Queue.create () in
  let add, cone = collector ~on_add:(fun nid -> Queue.push nid q) g ~nets:true in
  List.iter add seeds;
  while not (Queue.is_empty q) do
    let nid = Queue.pop q in
    List.iter (fun iid -> if g.out.(iid) >= 0 then add g.out.(iid)) g.deps.(nid);
    List.iter (fun (_, z) -> add z) g.holder_deps.(nid)
  done;
  cone ()

(* The live instances wired to any of the nets (driver, sinks, keepers),
   and the live ones of [also], ascending: the instances whose rules can
   read the nets. *)
let pinned_to ?(also = []) g nets =
  let nl = g.nl in
  let add, insts = collector g ~nets:false in
  List.iter (fun iid -> if not (Netlist.is_dead nl iid) then add iid) also;
  List.iter (fun nid -> iter_pinned g nid add) nets;
  insts ()

(* --- per-mode stores --- *)

(* Why a source net has its seed value, rendered only when a witness
   cites it. *)
type note =
  | Not_seeded
  | Mte_on  (** the legacy MTE net *)
  | Domain_enable
  | Clock_parked
  | Frozen_input
  | Undriven
  | Flop_state

type state = {
  g : structure;
  nl : Netlist.t;
  mode : mode;
  (* per-net effective code (after any holder) *)
  mutable value : int array;
  (* per-net driver code before the holder is applied *)
  mutable raw : int array;
  mutable seed_note : note array;
  (* witness paths built so far, dropped over each re-run cone *)
  mutable path : string list option array;
  (* the FIFO worklist: a ring over [queue], which holds each instance
     at most once *)
  mutable queue : Netlist.inst_id array;
  mutable q_head : int;
  mutable q_len : int;
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
    seed_note = [||];
    path = [||];
    queue = [||];
    q_head = 0;
    q_len = 0;
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
    let cap = Array.length st.queue in
    st.queue.((st.q_head + st.q_len) mod cap) <- iid;
    st.q_len <- st.q_len + 1
  end

let rec enqueue_all st = function
  | [] -> ()
  | iid :: rest ->
    enqueue st iid;
    enqueue_all st rest

let rec enqueue_deps st nid =
  enqueue_all st st.g.deps.(nid);
  settle_held st st.g.holder_deps.(nid)

and settle_held st = function
  | [] -> ()
  | (_, held) :: rest ->
    if st.raw.(held) <> bot then settle st held;
    settle_held st rest

(* Effective code of [nid] given its raw driver code: the holder wired to
   the net (if any) keeps a floating level when its own enable is 1.
   [bot] = the holder's enable is not known yet, try again later. *)
and holder_view st nid rv =
  let h = st.g.keeper.(nid) in
  if h < 0 then rv
  else
    let m = st.g.enable.(h) in
    if m < 0 then rv (* inert keeper; the DRC flags the floating pin *)
    else
      let e = st.value.(m) in
      if e = bot then bot
      else if e = c_one then if rv = c_float then c_held else rv
      else if e = c_zero then rv (* keeper disabled in standby *)
      else if rv >= c_float then c_top (* enable undetermined: a float may or may not be kept *)
      else rv

and settle st nid =
  let rv = st.raw.(nid) in
  if rv <> bot then begin
    let eff = holder_view st nid rv in
    if eff <> bot then begin
      let old = st.value.(nid) in
      let nv = join old eff in
      if nv <> old then begin
        st.value.(nid) <- nv;
        enqueue_deps st nid
      end
    end
  end

let set_raw st nid v =
  let old = st.raw.(nid) in
  let nv = join old v in
  if nv <> old then begin
    st.raw.(nid) <- nv;
    settle st nid
  end

(* How the gate is supplied in the analyzed mode. *)
type supply =
  | Powered  (** true rails: evaluates *)
  | Cut  (** virtual ground open: output floats *)
  | Internally_held  (** embedded MT-cell asleep: private holder drives *)
  | Unknown_power  (** enable not constant, or a switch with none *)
  | Defer_supply

let supply_of st iid =
  let s = st.g.supply.(iid) in
  if s = s_plain then Powered
  else if s = s_cut then Cut
  else
    let m = st.g.enable.(iid) in
    if m < 0 then Unknown_power (* a switch with no enable: on or off is anyone's guess *)
    else
      let e = st.value.(m) in
      if e = bot then Defer_supply
      else if e = c_one then if s = s_embedded then Internally_held else Cut
      else if e = c_zero then Powered (* a stuck-on switch: mte-polarity finding *)
      else Unknown_power

(* The transfer-table index of the input codes, or -1 while an input is
   bottom; an unconnected gate input floats. *)
let rec row_index value row i acc =
  if i = Array.length row then acc
  else
    let nid = row.(i) in
    let c = if nid < 0 then c_float else value.(nid) in
    if c = bot then -1 else row_index value row (i + 1) ((acc * 5) + c)

let transfer st iid =
  let out = st.g.out.(iid) in
  if out >= 0 then begin
    st.transfers <- st.transfers + 1;
    match supply_of st iid with
    | Defer_supply -> ()
    | Cut -> set_raw st out c_float
    | Internally_held -> set_raw st out c_held
    | Unknown_power -> set_raw st out c_top
    | Powered ->
      let r = row_index st.value st.g.ins.(iid) 0 0 in
      if r >= 0 then set_raw st out st.g.table.(iid).(r)
  end

(* The nets a run re-derives, ascending: every net (a full analysis), or
   the cone of an update's edits. *)
type cone = All_nets | Cone of Netlist.net_id list

let iter_cone nl f = function
  | All_nets ->
    for nid = 0 to Netlist.net_count nl - 1 do
      f nid
    done
  | Cone nets -> List.iter f nets

let cone_size nl = function All_nets -> Netlist.net_count nl | Cone nets -> List.length nets

(* --- seeding ---
   Re-seeds the cone's sources: primary inputs and undriven nets in net-id
   order, then flip-flop outputs in instance-id order.  Seed notes are
   mode-independent where possible so findings dedup across modes. *)
let seed st cone =
  let nl = st.nl in
  let mte_net =
    if st.mode.m_name = "" then Option.value (Walk.find_mte_net nl) ~default:(-1) else -1
  in
  let flops = ref [] in
  iter_cone nl
    (fun nid ->
      if Netlist.is_pi nl nid then begin
        let v, note =
          if nid = mte_net then (c_one, Mte_on)
          else
            match Hashtbl.find_opt st.g.mte_dom nid with
            | Some d -> ((if List.mem d st.mode.m_asleep then c_one else c_zero), Domain_enable)
            | None ->
              if Netlist.is_clock_net nl nid then (c_zero, Clock_parked) else (c_held, Frozen_input)
        in
        st.seed_note.(nid) <- note;
        set_raw st nid v
      end
      else
        match Netlist.driver nl nid with
        | None ->
          st.seed_note.(nid) <- Undriven;
          set_raw st nid c_float
        | Some p ->
          if (Netlist.cell nl p.Netlist.inst).Cell.kind = Func.Dff then
            flops := (p.Netlist.inst, nid) :: !flops)
    cone;
  List.sort compare !flops
  |> List.iter (fun (_, q) ->
         st.seed_note.(q) <- Flop_state;
         set_raw st q c_held)

let fixpoint st cone =
  let drained = ref false in
  while not !drained do
    while st.q_len > 0 do
      let iid = st.queue.(st.q_head) in
      st.q_head <- (st.q_head + 1) mod Array.length st.queue;
      st.q_len <- st.q_len - 1;
      st.queued.(iid) <- false;
      transfer st iid
    done;
    (* widening: anything still bottom sits in (or behind) a
       combinational cycle the deferring transfers cannot enter; force
       those nets to Top and resume until nothing is bottom.  Only the
       cone was reset, so only the cone can be bottom. *)
    let bottom = ref [] in
    iter_cone st.nl (fun nid -> if st.value.(nid) = bot then bottom := nid :: !bottom) cone;
    match List.rev !bottom with
    | [] -> drained := true
    | nids ->
      st.widened <- st.widened + List.length nids;
      List.iter
        (fun nid ->
          st.value.(nid) <- c_top;
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
let seed_path st nid =
  let nl = st.nl in
  let noted note = Some [ net_token nl nid ^ note ] in
  match st.seed_note.(nid) with
  | Not_seeded -> None
  | Mte_on -> noted " (MTE=1 in standby)"
  | Domain_enable -> noted (Printf.sprintf " (domain %s enable)" (Hashtbl.find st.g.mte_dom nid))
  | Clock_parked -> noted " (clock parked low)"
  | Frozen_input -> noted " (primary input, frozen)"
  | Undriven -> noted " (no driver)"
  | Flop_state ->
    let ff = (Option.get (Netlist.driver nl nid)).Netlist.inst in
    Some [ inst_token nl ff ^ " (flip-flop state)"; net_token nl nid ]

let witness st nid =
  let nl = st.nl and g = st.g in
  st.path <- grow st.path None (Netlist.net_count nl);
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
    match seed_path st nid with
    | Some sp -> (sp, false)
    | None -> (
      match Netlist.driver nl nid with
      | None -> ([ net_token nl nid ], false) (* unreachable: undriven nets are seeded *)
      | Some dp ->
        let iid = dp.Netlist.inst in
        if not (transferable (Netlist.cell nl iid).Cell.kind) then
          ([ inst_token nl iid; net_token nl nid ], false)
        else (
          match supply_of st iid with
          | Cut -> ([ inst_token nl iid ^ " (VGND cut in standby)"; net_token nl nid ], false)
          | Internally_held -> ([ inst_token nl iid ^ " (embedded holder)"; net_token nl nid ], false)
          | Unknown_power ->
            let steps = [ inst_token nl iid ^ " (enable undetermined)"; net_token nl nid ] in
            let m = g.enable.(iid) in
            if m >= 0 then via m steps
            else (extend_path [ inst_token nl g.gated_by.(iid) ^ " (no enable)" ] steps, false)
          | Defer_supply -> ([ net_token nl nid ^ " (widened: cyclic)" ], false)
          | Powered ->
            let v = st.raw.(nid) in
            if v = bot then ([ net_token nl nid ^ " (widened: cyclic)" ], false)
            else begin
              (* witness: the first possibly-floating input when
                 contaminated, else the first input *)
              let row = g.ins.(iid) in
              let rec pick floating i =
                if i = Array.length row then -1
                else
                  let s = row.(i) in
                  if s >= 0 && ((not floating) || st.value.(s) >= c_float) then s
                  else pick floating (i + 1)
              in
              let source =
                match if v >= c_float then pick true 0 else -1 with
                | -1 -> pick false 0
                | s -> s
              in
              let steps = [ inst_token nl iid; net_token nl nid ] in
              if source >= 0 then via source steps else (extend_path [] steps, false)
            end))
  in
  fst (build nid)

(* --- rules, one net or one instance at a time --- *)

let level st nid =
  let c = st.value.(nid) in
  if c = bot then L.Top else of_code.(c)

let is_legacy st = st.mode.m_name = ""
let asleep st d = d <> "" && List.mem d st.mode.m_asleep
let dom_of st iid = match Netlist.inst_domain st.nl iid with Some d -> d | None -> ""

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
  let h = st.g.keeper.(nid) in
  if h < 0 then None
  else
    match crossing_source st nid with
    | Some d ->
      let e = st.g.enable.(h) in
      if e < 0 then None
      else
        let ed = enable_domain st e in
        if ed <> d then Some (h, e, ed, d) else None
    | None -> None

(* The net a holder keeps, if it won the net; -1 otherwise. *)
let kept_net st h =
  let z = st.g.keeps.(h) in
  if z >= 0 && st.g.keeper.(z) = h then z else -1

let emit_to st out rule loc ?(witness = []) fmt =
  Printf.ksprintf
    (fun message -> out := { Rules.rule; loc; mode = st.mode.m_name; message; witness } :: !out)
    fmt

(* A net whose level is 0, 1 or held and that has no keeper raises
   nothing: every finding below needs a float or top level, or a keeper. *)
let eval_net st ~deepest nid =
  if st.value.(nid) <= c_held && st.g.keeper.(nid) < 0 then []
  else begin
    let nl = st.nl in
    let out = ref [] in
    let emit rule loc ?witness fmt = emit_to st out rule loc ?witness fmt in
    let name = Netlist.net_name nl nid in
    let loc = "net:" ^ name in
    let v = level st nid in
    let readers = List.filter (powered_reader st) (Netlist.sinks nl nid) in
    let cross = crossing_source st nid in
    let iso = iso_bad st nid in
    let keeper = st.g.keeper.(nid) in
    let kept = keeper >= 0 in
    let raw = st.raw.(nid) in
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
      | Some d when iso = None && kept && (raw = bot || raw >= c_float) -> (
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
    (if deepest && kept then begin
       let hname = Netlist.inst_name nl keeper in
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
       if raw <= c_held then
         emit Rules.useless_holder loc
           "holder %s keeps a net that never floats (driver value %s in standby)" hname
           (L.to_string of_code.(raw))
       else if raw = c_float && (not (Netlist.is_po nl nid)) && readers = [] && not boundary then
         emit Rules.useless_holder loc "holder %s keeps a net only floating MT logic reads" hname
     end);
    List.rev !out
  end

(* The first input of the row whose level is top, as its index; -1 if
   none. *)
let first_top st row =
  let rec go i =
    if i = Array.length row then -1
    else if row.(i) >= 0 && st.value.(row.(i)) >= c_top then i
    else go (i + 1)
  in
  go 0

let eval_inst st iid =
  let nl = st.nl and g = st.g in
  let legacy = is_legacy st in
  let cell = Netlist.cell nl iid in
  let kind = cell.Cell.kind in
  let logic = transferable kind in
  let row = g.ins.(iid) in
  (* crowbar: a powered gate fed by a maybe-floating level *)
  let crowbar =
    if Vth.style_equal cell.Cell.style Vth.Plain && logic then first_top st row else -1
  in
  let mte_checked =
    match kind with
    | Func.Sleep_switch | Func.Holder -> true
    | Func.Dff -> false
    | _ -> Vth.style_equal cell.Cell.style Vth.Mt_embedded
  in
  (* the common case raises nothing: a gate with no top input, outside
     the multi-domain path rule, with no enable of its own to check *)
  if
    crowbar < 0 && (not mte_checked)
    && (kind <> Func.Dff || not (Library.is_retention cell))
    && (legacy || not (Cell.is_mt cell && logic))
  then []
  else begin
    let out = ref [] in
    let emit rule loc ?witness fmt = emit_to st out rule loc ?witness fmt in
    let mte_pin_check () =
      let m = g.enable.(iid) in
      if m >= 0 (* else DRC: floating required pin *) then begin
        let loc = "inst:" ^ Netlist.inst_name nl iid in
        let role =
          match kind with
          | Func.Sleep_switch -> "sleep switch"
          | Func.Holder -> "holder"
          | _ -> "embedded MT-cell"
        in
        (* the domain whose sleep schedule this enable should follow *)
        let gov =
          if legacy then ""
          else
            match kind with
            | Func.Holder -> (
              let nid = kept_net st iid in
              if nid < 0 then ""
              else
                match Netlist.driver nl nid with
                | Some p when Cell.is_mt (Netlist.cell nl p.Netlist.inst) -> dom_of st p.Netlist.inst
                | _ -> "")
            | _ -> dom_of st iid
        in
        if legacy || gov = "" || asleep st gov then begin
          match level st m with
          | L.One -> ()
          | L.Zero ->
            emit Rules.mte_polarity loc ~witness:(witness st m)
              "%s enable is 0 in standby (net %s): it never sleeps%s" role
              (Netlist.net_name nl m)
              (match kind with Func.Holder -> "; the net it keeps is unguarded" | _ -> "")
          | (L.Held | L.Float | L.Top) as v ->
            emit Rules.mte_undetermined loc ~witness:(witness st m)
              "%s enable is %s in standby (net %s), not a constant" role (L.to_string v)
              (Netlist.net_name nl m)
        end
        else begin
          (* governing domain awake in this mode *)
          match kind with
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
        end
      end
    in
    (match kind with
    | Func.Sleep_switch -> mte_pin_check ()
    | Func.Holder ->
      (* a holder whose cross-wired enable is the root cause is reported by
         its net's isolation rule instead *)
      let z = kept_net st iid in
      if not (z >= 0 && iso_bad st z <> None) then mte_pin_check ()
    | Func.Dff ->
      if Library.is_retention cell then begin
        let d = row.(0) in
        if d >= 0 && L.may_float (level st d) then
          emit Rules.retention_input_float
            ("inst:" ^ Netlist.inst_name nl iid)
            ~witness:(witness st d)
            "retention flip-flop data input is %s in standby (net %s)"
            (L.to_string (level st d)) (Netlist.net_name nl d)
      end
    | _ -> if mte_checked then mte_pin_check ());
    (if crowbar >= 0 then
       let nid = row.(crowbar) in
       emit Rules.crowbar_risk
         ("inst:" ^ Netlist.inst_name nl iid)
         ~witness:(witness st nid)
         "powered gate input %s may be at an intermediate level in standby (net %s)"
         (Func.input_names kind).(crowbar) (Netlist.net_name nl nid));
    (* always-on path: this gate sleeps while both the logic feeding it and
       the logic reading it stay powered — a structural routing hazard even
       when isolation clamps the level *)
    (if (not legacy) && Cell.is_mt cell && logic then begin
       let d = dom_of st iid in
       let o = g.out.(iid) in
       if asleep st d && o >= 0 then begin
         let powered_src (p : Netlist.pin) =
           let c = Netlist.cell nl p.Netlist.inst in
           (not (Func.is_infrastructure c.Cell.kind))
           && ((not (Cell.is_mt c)) || not (asleep st (dom_of st p.Netlist.inst)))
         in
         let rec live_in j =
           if j = Array.length row then -1
           else
             let src = row.(j) in
             let live =
               src >= 0
               &&
               match Netlist.driver nl src with
               | Some p -> dom_of st p.Netlist.inst <> d && powered_src p
               | None -> false
             in
             if live then j else live_in (j + 1)
         in
         let j = live_in 0 in
         if j >= 0 then begin
           let read_out =
             Netlist.is_po nl o
             || List.exists
                  (fun (p : Netlist.pin) -> powered_reader st p && dom_of st p.Netlist.inst <> d)
                  (Netlist.sinks nl o)
           in
           if read_out then
             emit Rules.always_on_path
               ("inst:" ^ Netlist.inst_name nl iid)
               ~witness:
                 [
                   net_token nl row.(j);
                   inst_token nl iid ^ " (through sleeping domain " ^ d ^ ")";
                   net_token nl o;
                 ]
               "path through sleeping domain %s: input %s is driven from awake logic and \
                output %s is read outside the domain"
               d (Func.input_names kind).(j) (Netlist.net_name nl o)
         end
       end
     end);
    List.rev !out
  end

(* --- one run over a cone ---
   A full analysis is the case where the cone is every net.  The cone is
   re-seeded from bottom and re-propagated, its witnesses dropped, and the
   rules re-run over its nets and the instances pinned to them; every
   other slot keeps its findings, and removed instances lose theirs. *)
let run_cone st ~cone ~insts ~deepest =
  let nl = st.nl in
  let nn = Netlist.net_count nl and ni = Netlist.inst_count nl in
  st.value <- grow st.value bot nn;
  st.raw <- grow st.raw bot nn;
  st.seed_note <- grow st.seed_note Not_seeded nn;
  st.queued <- grow st.queued false ni;
  if Array.length st.queue < ni then begin
    (* the ring is empty between runs *)
    st.queue <- Array.make ni 0;
    st.q_head <- 0
  end;
  st.transfers <- 0;
  st.widened <- 0;
  st.rule_evals <- 0;
  st.paths_built <- 0;
  iter_cone nl
    (fun nid ->
      st.raw.(nid) <- bot;
      st.value.(nid) <- bot;
      st.seed_note.(nid) <- Not_seeded;
      if nid < Array.length st.path then st.path.(nid) <- None)
    cone;
  seed st cone;
  iter_cone nl
    (fun nid ->
      match Netlist.driver nl nid with
      | Some p when transferable (Netlist.cell nl p.Netlist.inst).Cell.kind ->
        enqueue st p.Netlist.inst
      | Some _ | None -> ())
    cone;
  fixpoint st cone;
  let slot tbl key = function [] -> Hashtbl.remove tbl key | fs -> Hashtbl.replace tbl key fs in
  iter_cone nl (fun nid -> slot st.net_found nid (eval_net st ~deepest nid)) cone;
  List.iter (fun iid -> slot st.inst_found iid (eval_inst st iid)) insts;
  Hashtbl.filter_map_inplace
    (fun iid fs -> if Netlist.is_dead nl iid then None else Some fs)
    st.inst_found;
  st.rule_evals <- cone_size nl cone + List.length insts

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

let deepest sts = List.nth sts (List.length sts - 1)

(* Every net's level in the deepest mode, in net-id order. *)
let values_of nl st =
  let acc = ref [] in
  for nid = Netlist.net_count nl - 1 downto 0 do
    acc := (Netlist.net_name nl nid, level st nid) :: !acc
  done;
  !acc

(* [values] with the levels of nets [0 .. last] read again: a pair whose
   level did not move is kept, and so is the list past [last]. *)
let revalue st values last =
  let rec go nid = function
    | ((name, v) as pair) :: rest when nid <= last ->
      let v' = level st nid in
      (if L.equal v v' then pair else (name, v')) :: go (nid + 1) rest
    | tail -> tail
  in
  go 0 values

let finish ~values sts =
  let findings, dupes = dedup_findings (List.map mode_findings sts) in
  let sum f = List.fold_left (fun a st -> a + f st) 0 sts in
  let transfers = sum (fun st -> st.transfers) and widened = sum (fun st -> st.widened) in
  Metrics.incr m_mode_dedup ~by:dupes;
  Metrics.incr m_transfers ~by:transfers;
  Metrics.incr m_widened ~by:widened;
  Metrics.incr m_rule_evals ~by:(sum (fun st -> st.rule_evals));
  Metrics.incr m_paths_built ~by:(sum (fun st -> st.paths_built));
  { findings; values; transfers; widened; modes = List.map (fun st -> st.mode.m_name) sts }

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
  let insts = build g in
  let sts = List.map (make_state g) (modes_of nl) in
  (g, run_modes ~jobs sts ~cone:All_nets ~insts)

let analyze ?(jobs = 1) nl =
  Trace.with_span "Verify.analyze" ~args:[ ("circuit", Netlist.design_name nl) ]
  @@ fun () ->
  Metrics.incr m_runs;
  let sts = snd (run_all ~jobs nl) in
  finish ~values:(values_of nl (deepest sts)) sts

(* --- incremental sessions --- *)

type session = {
  s_nl : Netlist.t;
  mutable s_g : structure;
  mutable s_states : state list;
  mutable s_mode_names : string list;
  mutable s_version : int;  (* the netlist journal version the stores reflect *)
  (* the last result's [values], and the net count it lists *)
  mutable s_values : (string * L.v) list;
  mutable s_nets : int;
}

let restart ~jobs s =
  let g, sts = run_all ~jobs s.s_nl in
  s.s_g <- g;
  s.s_states <- sts;
  s.s_mode_names <- List.map (fun st -> st.mode.m_name) sts;
  s.s_values <- values_of s.s_nl (deepest sts);
  s.s_nets <- Netlist.net_count s.s_nl

let start ?(jobs = 1) nl =
  Trace.with_span "Verify.start" ~args:[ ("circuit", Netlist.design_name nl) ]
  @@ fun () ->
  Metrics.incr m_runs;
  let s =
    {
      s_nl = nl;
      s_g = empty_structure nl;
      s_states = [];
      s_mode_names = [];
      s_version = Netlist.version nl;
      s_values = [];
      s_nets = 0;
    }
  in
  restart ~jobs s;
  (s, finish ~values:s.s_values s.s_states)

let update ?(jobs = 1) s =
  Trace.with_span "Verify.update" ~args:[ ("circuit", Netlist.design_name s.s_nl) ]
  @@ fun () ->
  Metrics.incr m_updates;
  let nl = s.s_nl in
  let touched = Netlist.touched_since nl s.s_version in
  s.s_version <- Netlist.version nl;
  let names = List.map (fun m -> m.m_name) (modes_of nl) in
  if names <> s.s_mode_names then
    (* the domain table itself changed: mode vector is different, restart *)
    restart ~jobs s
  else begin
    let moved, refreshed = refresh s.s_g touched in
    let cone = cone_of s.s_g (touched @ moved) in
    let insts = pinned_to s.s_g cone ~also:refreshed in
    (* [values] lists every net by name, and names never change: it is
       rebuilt whole only when a net was added, and otherwise only up to
       the last cone net whose deepest level moved *)
    let same_nets = Netlist.net_count nl = s.s_nets in
    let before = if same_nets then List.map (level (deepest s.s_states)) cone else [] in
    s.s_states <- run_modes ~jobs s.s_states ~cone:(Cone cone) ~insts;
    let deep = deepest s.s_states in
    if not same_nets then begin
      s.s_values <- values_of nl deep;
      s.s_nets <- Netlist.net_count nl
    end
    else begin
      let moved last nid v = if L.equal (level deep nid) v then last else nid in
      let last = List.fold_left2 moved (-1) cone before in
      if last >= 0 then s.s_values <- revalue deep s.s_values last
    end
  end;
  finish ~values:s.s_values s.s_states

let value_of r name =
  List.assoc_opt name r.values
