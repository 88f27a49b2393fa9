(** Planar geometry for placement, routing, and VGND wire-length budgeting.

    Coordinates are in micrometres throughout the repository. *)

type point = { x : float; y : float }

type bbox = { lx : float; ly : float; hx : float; hy : float }
(** Axis-aligned rectangle; invariant [lx <= hx && ly <= hy]. *)

val point : float -> float -> point

val manhattan : point -> point -> float
(** L1 distance, the routed-wire metric. *)

val euclid : point -> point -> float

val midpoint : point -> point -> point

val bbox_of_point : point -> bbox

val expand : bbox -> point -> bbox
(** Smallest bbox containing both. *)

val bbox_union : bbox -> bbox -> bbox

val bbox_of_points : point list -> bbox
(** Raises [Invalid_argument] on the empty list. *)

val hpwl : bbox -> float
(** Half-perimeter wirelength of the box. *)

val width : bbox -> float
val height : bbox -> float
val center : bbox -> point
val contains : bbox -> point -> bool
val overlap : bbox -> bbox -> bool

val clamp : float -> lo:float -> hi:float -> float

(** Recursive geometric bisection, the grouping behind clock-tree
    synthesis and MTE buffering. *)
type 'a bisection = Leaf of 'a list | Split of 'a bisection * 'a bisection

val bisect : cap:int -> ('a -> point) -> 'a list -> 'a bisection
(** [bisect ~cap at items]: a list of at most [cap] items is a [Leaf];
    a longer one is stably sorted on the longer side of the bounding box
    of its points (x when the box is at least as wide as tall), and its
    first [n / 2] and remaining items are bisected in turn.  [cap] must
    be positive. *)

val spanning_length : point list -> float
(** Length of a rectilinear minimum spanning tree over the points (on
    Manhattan distance); the VGND-line length model. Empty or singleton
    lists give [0.].

    The input size alone picks one of two paths.  Up to 1,024 points, dense
    Prim in O(n{^2}) time: every EM-capped cluster is far below that, so
    cluster lengths and switch widths come from this path.  Above it, the
    octant nearest-neighbour graph (Zhou, Shenoy and Nicholls, 2002) is
    built by a sweep and Kruskal runs over it, in O(n log n) time and O(n)
    memory; this serves the one-switch structure that spans every MT cell.
    The sweep orders points by the exact [x + y] and tests octants on
    exact sums ([y_i + x_j <= x_i + y_j]), breaking ties of the rounded
    sums with their rounding errors, so inexact coordinates (multiples of
    0.1, say) cannot make the graph miss an MST edge.
    Both paths take each edge weight from [manhattan] on the given points,
    and every minimum spanning tree has the same multiset of edge weights.
    So the two paths add the same weights, and only the order of the
    summation differs (within 1e-13 relative in practice). *)
