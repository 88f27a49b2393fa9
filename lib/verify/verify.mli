(** Static standby-state verifier: abstract interpretation of sleep
    modes over a mode vector of power domains.

    The netlist is evaluated over the {!Lattice.v} value domain once
    per {e sleep mode}.  A netlist with no sleepable power domain
    (see {!Smt_netlist.Netlist.add_domain}) has exactly one mode — the
    paper's single standby configuration (MTE asserted, clocks parked
    low, primary inputs frozen) — and behaves exactly as before.  A
    netlist with [k] sleepable domains is analyzed in the [2^k - 1]
    modes where at least one domain sleeps; each domain's declared
    enable net seeds [One] when that domain is asleep in the mode and
    [Zero] when it is awake.

    Within one mode:

    - primary inputs seed [Held] ([One] for the MTE net / asleep
      domain enables, [Zero] for clock nets and awake domain enables),
      flip-flop outputs seed [Held], undriven nets seed [Float];
    - a powered gate transfers through exact three-valued evaluation
      ([Held] as X), with any possibly-floating input contaminating the
      output to [Top];
    - a VGND-style MT-cell's output is [Float] when its sleep switch is
      off, evaluated normally when the switch is (wrongly) stuck on,
      and [Top] when the switch's enable is not a constant or not
      connected at all — where the switch it hangs from comes from
      {!Smt_check.Walk}, the traversal the structural DRC uses;
    - a holder keeps its net: [Float] becomes [Held] when the holder's
      own MTE pin is 1.  Holders are resolved by the net their Z pin is
      {e wired} to (the lowest live instance id wins a shared net), not
      by the [holder_of] record, so a holder on the wrong net does not
      fool the analysis.

    Values propagate through a deterministic FIFO worklist to a
    fixpoint; nets trapped in combinational cycles are widened to
    [Top].  The worklist visits instances in one order however the
    analysis was reached: each net's readers are kept in instance-id
    order, and so are the (keeper, held net) pairs of each keeper
    enable and the holders wired to each net, so a from-scratch run and
    an {!update} queue the same transfers and [transfers] repeats
    exactly.  {b Soundness}: every transfer is monotone over a finite
    lattice and values only move up (stores join), so the fixpoint
    exists, is reached in finitely many steps, and over-approximates
    every concrete standby state in that mode — a net the analysis
    calls [Zero], [One], or [Held] cannot float in silicon, so the
    absence of float findings is a guarantee, while [Top]-based
    findings are conservative warnings.

    {b Compiled form.}  The analysis reads no pin by name while it
    runs.  It first compiles, per instance, the net on its output pin,
    its input nets in [Func.input_names] order (a flip-flop's D), and a
    supply code: plain rails, cut (no VGND port, or one on no live
    switch), embedded with its own enable net, or VGND with its switch
    and that switch's enable net.  These rows live in the structure the
    modes share, and an {!update} re-derives them for exactly the
    instances whose edges it re-derives.  Each mode stores [value] and
    [raw] as int arrays, one lattice code per net plus a bottom code
    for a net not yet computed.  A powered transfer reads one entry of
    its kind's transfer table, filled from {!Lattice.eval} over the
    five-point lattice on first use.  A source's seed note is a code,
    rendered only when a witness cites it.  A net whose level is 0, 1
    or held and that no holder keeps raises no finding, so its rules
    are not evaluated.

    A witness path is built only for a net a finding cites, by a walk
    back from that net through the one input or enable that explains
    each value, so it depends only on the final abstract store and the
    cited net — never on worklist visit order, nor on the order in which
    findings ask for paths.  Paths are memoized per mode; a walk that
    meets a net already on its own chain (a combinational loop) ends at
    that net, marked [(cyclic)], and is rebuilt per request.  A VGND
    member whose switch has no enable connected starts its path at that
    switch, marked [(no enable)].  Modes fan out through
    {!Smt_obs.Par.map}; results are byte-identical at any job count.
    Findings that agree on (rule, location, witness) across modes are
    reported once, from the shallowest mode; suppressed repeats count
    into the [lint.mode_dedup] metric.

    Findings are reported against the {!Rules} catalog.  The analysis
    never mutates the netlist ({!update} only reads its touched-net
    journal).

    Emits [lint.runs] / [lint.updates] / [lint.transfers] /
    [lint.widened] / [lint.mode_dedup] / [lint.rule_evals] (nets and
    instances whose rules were judged, summed over modes) /
    [lint.paths_built] (witness paths walked, memo hits excluded)
    metrics and [Verify.analyze] / [Verify.start] / [Verify.update]
    trace spans. *)

type result = {
  findings : Rules.finding list;
      (** deterministic order: modes shallowest-first, within a mode net
          rules in net-id order then instance rules in instance-id
          order; cross-mode duplicates removed *)
  values : (string * Lattice.v) list;
      (** every net's standby value in the {e deepest} (all-asleep)
          mode, in net-id order.  An {!update} keeps the previous list
          when no net was added and no deepest-mode level moved, and
          otherwise rebuilds it only up to the last net that moved. *)
  transfers : int;
      (** worklist transfer-function evaluations, summed over modes
          (for an {!update}: this update only) *)
  widened : int;  (** nets forced to [Top] to break cycles *)
  modes : string list;  (** analyzed mode names; [[""]] on legacy runs *)
}

val analyze : ?jobs:int -> Smt_netlist.Netlist.t -> result
(** Assumes post-MT structure (run it on a flow product or any netlist
    without MT cells); on a netlist between MT replacement and switch
    insertion every MT output is reported floating, which is true but
    not useful — the flow guard only engages the semantic pass once
    switch insertion has run.  [jobs] fans the modes out in parallel;
    the result is byte-identical at any job count. *)

val value_of : result -> string -> Lattice.v option
(** Lookup in [values] by net name. *)

(** {1 Incremental re-analysis}

    A session keeps the per-mode fixpoint stores, witness memos and
    findings alive between runs, and one dependency structure shared by
    the modes, so an ECO-sized edit costs its cone.  {!update} reads the
    nets whose standby value may have changed from the netlist's
    touched-net journal ({!Smt_netlist.Netlist.touched_since} the
    version the session last saw — reading clears nothing, so other
    analyses such as [Smt_sta.Sta.update] can follow the same netlist).
    It then
    - re-derives the compiled rows and dependency edges of the instances
      pinned to a touched net, by their current wiring or by an edge
      recorded at the last run, and re-resolves the keepers of the nets
      they hold; a re-homed VGND member moves its supply edge between
      two enable nets the journal never names, a switch carries its
      members along, and a driver whose output pin left a touched net
      is found by its recorded output;
    - closes the touched nets, plus any net whose inbound edges moved,
      forward over data, supply, and keeper-enable edges;
    - re-seeds and re-propagates just that cone, drops the cone's
      witnesses, and re-judges the rules of the cone's nets and of the
      instances wired to them (or that left a touched net), in net-id
      then instance-id order.  Every other net and instance keeps its
      findings; removed instances lose theirs.
    A full {!analyze} or {!start} compiles every instance, highest id
    first, and runs the same code with every net in the cone.

    {b Soundness of the incremental step}: the compiled rows of every
    live instance equal a fresh compile's, the edge lists equal a fresh
    build's (each kept in instance-id order, so the worklist and its
    transfer counts do too), and the cone is forward-closed over them,
    so every transfer that could read a changed value has its output
    inside the cone and is re-run from bottom; values outside the cone
    are exactly the previous fixpoint restricted to nets whose inputs
    did not change.  A rule reads its own net or instance, the nets
    wired to it, and the witnesses of those nets; whenever one of these
    can change, the net is in the cone or the instance is wired to a
    cone net (or left a touched one), so its slot is judged again.  A
    witness is a function of the final store and the cited net, and
    every step of its walk lies upstream of the cited net, so a memo
    outside the cone is still exact.  The report is therefore
    byte-identical to a from-scratch {!analyze} (property-tested over
    randomized ECO deltas, the flow's own edits and a combinational loop
    in [test/test_props.ml], where a from-scratch {!analyze} is in turn
    checked against the list-based analysis this compiled one replaced,
    whole [result] for whole [result]).  If the domain table itself
    changed, the mode vector is stale and the session transparently
    restarts from scratch. *)

type session

val start : ?jobs:int -> Smt_netlist.Netlist.t -> session * result
(** Full analysis that also retains its stores and the netlist's journal
    version, so a following {!update} sees only later edits. *)

val update : ?jobs:int -> session -> result
(** Re-analyze after the netlist edits made since the session's last
    run. *)
