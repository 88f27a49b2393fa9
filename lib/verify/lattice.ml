module Logic = Smt_sim.Logic
module Func = Smt_cell.Func

type v = Zero | One | Held | Float | Top

let equal (a : v) b = a = b

let join a b =
  match (a, b) with
  | x, y when x = y -> x
  | Top, _ | _, Top -> Top
  | Float, _ | _, Float -> Top (* Float joined with any driven level *)
  | (Zero | One | Held), (Zero | One | Held) -> Held

(* Float/Float and driven/driven pairs are handled above; only the mixed
   Float-vs-driven case reaches the Top line, so the lattice height is 2
   and every transfer chain stabilizes after at most two value changes
   per net. *)

let leq a b = join a b = b

let is_defined = function Zero | One | Held -> true | Float | Top -> false
let may_float = function Float | Top -> true | Zero | One | Held -> false

let to_string = function
  | Zero -> "0"
  | One -> "1"
  | Held -> "held"
  | Float -> "float"
  | Top -> "top"

let of_logic = function Logic.F -> Zero | Logic.T -> One | Logic.X -> Held

let to_logic = function
  | Zero -> Some Logic.F
  | One -> Some Logic.T
  | Held -> Some Logic.X
  | Float | Top -> None

let eval kind vs =
  let n = Array.length vs in
  let logic = Array.make n Logic.X in
  let rec fill i =
    if i >= n then true
    else
      match to_logic vs.(i) with
      | Some l ->
        logic.(i) <- l;
        fill (i + 1)
      | None -> false
  in
  if fill 0 then of_logic (Logic.eval kind logic) else Top
