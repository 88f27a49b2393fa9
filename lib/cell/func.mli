(** Combinational cell kinds and their boolean functions. *)

type kind =
  | Inv
  | Buf
  | Nand2
  | Nand3
  | Nand4
  | Nor2
  | Nor3
  | And2
  | And3
  | Or2
  | Or3
  | Xor2
  | Xnor2
  | Aoi21  (** Z = not ((A and B) or C) *)
  | Oai21  (** Z = not ((A or B) and C) *)
  | Mux2  (** Z = if S then B else A; inputs A, B, S *)
  | Dff  (** ports D, CK -> Q; sequential *)
  | Clkbuf
  | Sleep_switch  (** footer; input MTE, no logic output *)
  | Holder  (** output holder; input MTE, weak pin Z on the held net *)

val all : kind list

val arity : kind -> int
(** Number of logic inputs (0 for [Sleep_switch] and [Holder]; 1 for [Dff],
    its data pin). *)

val input_names : kind -> string array
(** Logic input pin names in evaluation order. [Dff] lists [D] only; its
    clock pin is ["CK"].  The array is shared between calls: read it,
    never write it. *)

val output_names : kind -> string array
(** Output pin names; shared like [input_names]. *)

val is_sequential : kind -> bool
val is_infrastructure : kind -> bool
(** True for [Sleep_switch] and [Holder] (no data-path logic). *)

val eval : kind -> bool array -> bool
(** Combinational value from input values, in [input_names] order. Raises
    [Invalid_argument] on sequential/infrastructure kinds or arity
    mismatch. *)

val to_string : kind -> string
val of_string : string -> kind option
