type point = { x : float; y : float }
type bbox = { lx : float; ly : float; hx : float; hy : float }

let point x y = { x; y }

let manhattan a b = abs_float (a.x -. b.x) +. abs_float (a.y -. b.y)

let euclid a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  sqrt ((dx *. dx) +. (dy *. dy))

let midpoint a b = { x = (a.x +. b.x) /. 2.0; y = (a.y +. b.y) /. 2.0 }

let bbox_of_point p = { lx = p.x; ly = p.y; hx = p.x; hy = p.y }

let expand b p =
  {
    lx = Float.min b.lx p.x;
    ly = Float.min b.ly p.y;
    hx = Float.max b.hx p.x;
    hy = Float.max b.hy p.y;
  }

let bbox_union a b =
  {
    lx = Float.min a.lx b.lx;
    ly = Float.min a.ly b.ly;
    hx = Float.max a.hx b.hx;
    hy = Float.max a.hy b.hy;
  }

let bbox_of_points = function
  | [] -> invalid_arg "Geom.bbox_of_points: empty"
  | p :: rest -> List.fold_left expand (bbox_of_point p) rest

let hpwl b = if b.lx > b.hx then 0.0 else b.hx -. b.lx +. (b.hy -. b.ly)

let width b = Float.max 0.0 (b.hx -. b.lx)
let height b = Float.max 0.0 (b.hy -. b.ly)
let center b = { x = (b.lx +. b.hx) /. 2.0; y = (b.ly +. b.hy) /. 2.0 }

let contains b p = p.x >= b.lx && p.x <= b.hx && p.y >= b.ly && p.y <= b.hy

let overlap a b = a.lx <= b.hx && b.lx <= a.hx && a.ly <= b.hy && b.ly <= a.hy

let clamp v ~lo ~hi = if v < lo then lo else if v > hi then hi else v

type 'a bisection = Leaf of 'a list | Split of 'a bisection * 'a bisection

let rec bisect ~cap at items =
  let n = List.length items in
  if n <= cap then Leaf items
  else begin
    let box = bbox_of_points (List.map at items) in
    let key = if width box >= height box then fun i -> (at i).x else fun i -> (at i).y in
    let sorted = List.stable_sort (fun a b -> compare (key a) (key b)) items in
    Split
      ( bisect ~cap at (List.filteri (fun i _ -> i < n / 2) sorted),
        bisect ~cap at (List.filteri (fun i _ -> i >= n / 2) sorted) )
  end

(* Prim's algorithm over Manhattan distance; O(n^2), fine for cluster-sized
   point sets (EM caps keep clusters small). *)
let prim_length pts =
  let n = Array.length pts in
  let in_tree = Array.make n false in
  let dist = Array.make n infinity in
  in_tree.(0) <- true;
  for j = 1 to n - 1 do
    dist.(j) <- manhattan pts.(0) pts.(j)
  done;
  let total = ref 0.0 in
  for _ = 1 to n - 1 do
    let best = ref (-1) in
    for j = 0 to n - 1 do
      if (not in_tree.(j)) && (!best = -1 || dist.(j) < dist.(!best)) then best := j
    done;
    let b = !best in
    in_tree.(b) <- true;
    total := !total +. dist.(b);
    for j = 0 to n - 1 do
      if not in_tree.(j) then dist.(j) <- Float.min dist.(j) (manhattan pts.(b) pts.(j))
    done
  done;
  !total

module Sweep = Map.Make (Float)

(* The rounding error of [s = a +. b] (Knuth's TwoSum): [a + b] is
   exactly [s + two_sum_err a b s]. *)
let two_sum_err a b s =
  let b' = s -. a in
  (a -. (s -. b')) +. (b -. b')

(* The order of the exact sums [a1 + b1] and [a2 + b2]: rounding is
   monotone, so only equal rounded sums need their errors compared. *)
let compare_sums a1 b1 a2 b2 =
  let s1 = a1 +. b1 and s2 = a2 +. b2 in
  if s1 < s2 then -1
  else if s1 > s2 then 1
  else Float.compare (two_sum_err a1 b1 s1) (two_sum_err a2 b2 s2)

(* Candidate edges for the rectilinear MST (Zhou, Shenoy and Nicholls,
   "Efficient minimum spanning tree construction without Delaunay
   triangulation", 2002): each point's nearest neighbour in each octant.
   Four sweeps cover the eight octants, since an edge serves both of its
   ends.  Each sweep visits the points in x+y order.  The map holds, keyed
   by -y, the points whose neighbour in the current octant is not found
   yet; a visited point becomes that neighbour for every waiting point
   whose octant it lies in, and those stop waiting.  Between sweeps the
   plane is reflected so the next octant takes the current one's place.
   The sweep order and the octant test compare exact sums, not rounded
   differences: on inexact coordinates (multiples of 0.1, say) a rounded
   comparison can drop an MST edge or split the graph.  At most 4(n-1)
   edges, in O(n log n). *)
let octant_edges pts =
  let n = Array.length pts in
  let xs = Array.map (fun p -> p.x) pts and ys = Array.map (fun p -> p.y) pts in
  let key = Array.make n 0.0 and err = Array.make n 0.0 in
  let order = Array.init n Fun.id in
  let eu = Array.make (4 * n) 0 and ev = Array.make (4 * n) 0 in
  let m = ref 0 in
  for octant = 0 to 3 do
    for i = 0 to n - 1 do
      key.(i) <- xs.(i) +. ys.(i);
      err.(i) <- two_sum_err xs.(i) ys.(i) key.(i)
    done;
    Array.stable_sort
      (fun i j ->
        let c = Float.compare key.(i) key.(j) in
        if c <> 0 then c else Float.compare err.(i) err.(j))
      order;
    let waiting = ref Sweep.empty in
    Array.iter
      (fun i ->
        let rec link () =
          match Sweep.find_first_opt (fun k -> k >= -.ys.(i)) !waiting with
          | Some (k, j) when compare_sums ys.(i) xs.(j) xs.(i) ys.(j) <= 0 ->
            eu.(!m) <- i;
            ev.(!m) <- j;
            incr m;
            waiting := Sweep.remove k !waiting;
            link ()
          | Some _ | None -> ()
        in
        link ();
        waiting := Sweep.add (-.ys.(i)) i !waiting)
      order;
    for i = 0 to n - 1 do
      if octant land 1 = 1 then xs.(i) <- -.xs.(i)
      else begin
        let x = xs.(i) in
        xs.(i) <- ys.(i);
        ys.(i) <- x
      end
    done
  done;
  (Array.sub eu 0 !m, Array.sub ev 0 !m)

(* Kruskal over the octant graph, which contains a minimum spanning tree
   of the complete graph.  Weights come from [manhattan] on the original
   points, so every accepted weight is one Prim would add. *)
let sweep_length pts =
  let n = Array.length pts in
  let eu, ev = octant_edges pts in
  let w = Array.mapi (fun e u -> manhattan pts.(u) pts.(ev.(e))) eu in
  let by_weight = Array.init (Array.length w) Fun.id in
  Array.stable_sort (fun a b -> Float.compare w.(a) w.(b)) by_weight;
  let parent = Array.init n Fun.id in
  let rec root i =
    let p = parent.(i) in
    if p = i then i
    else begin
      let r = root p in
      parent.(i) <- r;
      r
    end
  in
  let total = ref 0.0 and joined = ref 1 in
  Array.iter
    (fun e ->
      if !joined < n then begin
        let ru = root eu.(e) and rv = root ev.(e) in
        if ru <> rv then begin
          parent.(ru) <- rv;
          total := !total +. w.(e);
          incr joined
        end
      end)
    by_weight;
  !total

(* The crossover: at 1,024 points the sweep already runs ~2x faster than
   Prim, and the constant is far above any EM-capped cluster, so cluster
   lengths, switch widths and Table 1 keep Prim's exact summation. *)
let large_set = 1024

let spanning_length points =
  match Array.of_list points with
  | [||] -> 0.0
  | pts when Array.length pts = 1 -> 0.0
  | pts when Array.length pts > large_set -> sweep_length pts
  | pts -> prim_length pts
