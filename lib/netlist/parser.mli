(** Reader for the structural-Verilog subset emitted by {!Writer}.

    Grammar: one [module] with a port list; [input]/[output]/[wire]
    declarations; gate instantiations with named pin connections; optional
    [// @clock], [// @vgnd], [// @domain], [// @member] and
    [// @isolation] directives. Cell names are resolved against the given
    library; sized sleep switches ([SW_W<w>p<d>]) are synthesized on
    demand. *)

exception Parse_error of string
(** Carries a message prefixed with [file:line:column:] locating the
    offending token.  Text the grammar accepts but the netlist refuses (an
    unknown cell or pin, a second driver, a name declared twice, a
    directive naming a missing or wrong-kind object) is located at the
    first token of its declaration, instance or directive.  Malformed text
    raises nothing else. *)

val of_string : ?file:string -> lib:Smt_cell.Library.t -> string -> Netlist.t
(** [file] (default ["<netlist>"]) names the source in error messages. *)

val of_file : lib:Smt_cell.Library.t -> string -> Netlist.t
(** Errors carry the actual path. *)
