(** Reader for the structural-Verilog subset emitted by {!Writer}.

    Grammar: one [module] with a port list; [input]/[output]/[wire]
    declarations; gate instantiations with named pin connections; and
    [// @] pragmas.  Cell names are resolved against the given library;
    sized sleep switches ([SW_W<w>p<d>]) are synthesized on demand.
    Only blanks and ordinary [//] comments may follow [endmodule].

    The port list must name each [input] and [output] exactly once and
    nothing else.

    A [//] comment whose first word starts with [@] is a pragma.  It may
    stand before [module] or between statements, and its words are split
    at spaces.  Each takes a fixed number of words after its name:
    - [// @clock <net>] marks any net, input or wire, as clock;
    - [// @vgnd <inst> <switch>] hangs an MT-cell's VGND port from a switch;
    - [// @domain <name> <mte-net | ->] declares a power domain;
    - [// @member <inst> <domain>] assigns an instance to one;
    - [// @isolation <inst>] marks an isolation cell.

    Nets and instances get ids in the order the text gives them:
    declarations first, then nets an instance uses without a declaration,
    in order of first use. *)

exception Parse_error of string
(** Carries a message prefixed with [file:line:column:] locating the
    offending token.  Text the grammar accepts but the netlist refuses (an
    unknown cell or pin, a second driver, a name declared twice, a pragma
    naming a missing or wrong-kind object) is located at the first token of
    its declaration, instance or pragma.  So are an unknown pragma, a
    pragma with the wrong number of words, and a port list that misses a
    declared port (located at its declaration), names an undeclared one or
    names one twice (located at the name); these are reported after every
    other error the text has.  Text after [endmodule] other than blanks
    and ordinary comments (a token, a pragma, a stray character) is
    reported after all of them, located at its first byte.  Malformed
    text raises nothing else. *)

val of_string : ?file:string -> lib:Smt_cell.Library.t -> string -> Netlist.t
(** [file] (default ["<netlist>"]) names the source in error messages. *)

val of_file : lib:Smt_cell.Library.t -> string -> Netlist.t
(** Errors carry the actual path. *)
