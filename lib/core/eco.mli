(** Hold-violation fixing ECO.

    After CTS the clock reaches flip-flops with different insertion delays;
    short launch-to-capture paths can then violate hold.  The ECO walks the
    violating endpoints and splices a high-Vth delay buffer in front of
    each offending D pin (moving only that sink), iterating timing until
    hold is clean — the paper's "ECO ... for fixing the hold violation".

    The loop analyzes once and then updates that analysis after each
    batch ({!Smt_sta.Sta.update}): a D-pin splice keeps the compiled
    timing graph, which gains the buffer at the end of its order, and
    only the new buffers, the drivers of the nets they load and those
    drivers' combinational fanout are re-timed.  Every result equals
    re-running the analysis from scratch.  The result hands that analysis
    back ([sta]), so the flow keeps it as its own timing session instead
    of holding a second one while the loop runs. *)

type result = {
  buffers_added : int;
  iterations : int;
  hold_before : float;
  hold_after : float;
  setup_after : float;
  sta : Smt_sta.Sta.t;  (** the loop's analysis, consistent with the final netlist *)
}

val fix_hold :
  ?max_iterations:int ->
  Smt_sta.Sta.config ->
  Smt_place.Placement.t ->
  result
(** Mutates netlist and placement. Stops early if an iteration cannot
    improve the worst hold slack. *)
