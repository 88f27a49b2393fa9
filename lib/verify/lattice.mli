(** The standby value lattice.

    Every net is abstracted to what can be said about its voltage while
    the design sleeps (MTE asserted, clocks parked low, primary inputs
    frozen):

    {v
              Top
             /   \
          Held   Float
          /  \
       Zero  One
    v}

    - [Zero]/[One]: a constant the powered logic computes in standby;
    - [Held]: driven to a stable, defined level — which one depends on
      the frozen input values, so the analysis does not know it, but the
      node is {e not} floating (flip-flop outputs, holder-kept nets,
      logic of held values);
    - [Float]: high-impedance — an MT-cell output whose virtual ground
      is cut, with no holder;
    - [Top]: possibly floating, possibly driven (join of the two sides,
      or any value computed from a floating input by powered logic).

    The severity split the verifier's rules build on: [Zero|One|Held]
    are safe levels, [Float|Top] are the "unexpected power" hazards the
    paper's holders exist to prevent. *)

type v = Zero | One | Held | Float | Top

val join : v -> v -> v
val leq : v -> v -> bool
val equal : v -> v -> bool

val is_defined : v -> bool
(** [Zero], [One], or [Held] — a stable, driven level. *)

val may_float : v -> bool
(** [Float] or [Top]. *)

val to_string : v -> string
(** ["0" | "1" | "held" | "float" | "top"]. *)

val of_logic : Smt_sim.Logic.value -> v
val to_logic : v -> Smt_sim.Logic.value option
(** [None] for [Float]/[Top] — three-valued simulation has no
    high-impedance state. *)

val eval : Smt_cell.Func.kind -> v array -> v
(** Abstract transfer of a powered combinational gate: any
    [Float]/[Top] input contaminates the output to [Top] (an undriven
    gate input is an intermediate voltage, so the output can be
    anything); otherwise exact three-valued evaluation via
    {!Smt_sim.Logic.eval}, with [Held] as X.  Monotone in every input by
    construction. *)
