module Rng = Smt_util.Rng
module Geom = Smt_util.Geom
module Vec = Smt_util.Vec
module Text_table = Smt_util.Text_table

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float msg expected got =
  Alcotest.(check (float 1e-9)) msg expected got

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_int_range () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int_in r (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_rng_int_invalid () =
  let r = Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_range () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_float_in () =
  let r = Rng.create 3 in
  for _ = 1 to 100 do
    let v = Rng.float_in r (-1.0) 1.0 in
    Alcotest.(check bool) "in [-1,1)" true (v >= -1.0 && v < 1.0)
  done

let test_rng_chance_extremes () =
  let r = Rng.create 5 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=0 never" false (Rng.chance r 0.0)
  done;
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=1 always" true (Rng.chance r 1.0)
  done

let test_rng_split_independent () =
  (* Drawing from the parent after the split must not affect the child. *)
  let parent = Rng.create 9 in
  let child = Rng.split parent in
  let c1 = Rng.bits64 child in
  let parent2 = Rng.create 9 in
  let child2 = Rng.split parent2 in
  ignore (Rng.bits64 parent2);
  ignore (Rng.bits64 parent2);
  Alcotest.(check int64) "child streams agree despite parent draws" c1 (Rng.bits64 child2)

let test_rng_copy () =
  let a = Rng.create 11 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_gaussian_moments () =
  let r = Rng.create 13 in
  let n = 20_000 in
  let xs = List.init n (fun _ -> Rng.gaussian r ~mean:3.0 ~sigma:2.0) in
  let mean ys = List.fold_left ( +. ) 0.0 ys /. float_of_int n in
  let m = mean xs in
  let s = sqrt (mean (List.map (fun x -> (x -. m) ** 2.0) xs)) in
  Alcotest.(check bool) "mean near 3" true (Float.abs (m -. 3.0) < 0.1);
  Alcotest.(check bool) "sigma near 2" true (Float.abs (s -. 2.0) < 0.1)

let test_rng_shuffle_permutation () =
  let r = Rng.create 17 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 Fun.id) sorted

let test_rng_sample () =
  let r = Rng.create 19 in
  let arr = Array.init 20 Fun.id in
  let s = Rng.sample r 5 arr in
  Alcotest.(check int) "5 drawn" 5 (Array.length s);
  let distinct = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "all distinct" 5 (List.length distinct)

let test_rng_pick_empty () =
  let r = Rng.create 1 in
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick r [||]))

(* --- Geom --- *)

let p = Geom.point

let test_geom_manhattan () =
  check_float "manhattan" 7.0 (Geom.manhattan (p 1.0 2.0) (p 4.0 (-2.0)))

let test_geom_euclid () =
  check_float "euclid 3-4-5" 5.0 (Geom.euclid (p 0.0 0.0) (p 3.0 4.0))

let test_geom_bbox () =
  let b = Geom.bbox_of_points [ p 1.0 1.0; p 4.0 0.0; p 2.0 5.0 ] in
  check_float "lx" 1.0 b.Geom.lx;
  check_float "hy" 5.0 b.Geom.hy;
  check_float "hpwl" 8.0 (Geom.hpwl b);
  Alcotest.(check bool) "contains" true (Geom.contains b (p 2.0 2.0));
  Alcotest.(check bool) "not contains" false (Geom.contains b (p 0.0 0.0))

let test_geom_bbox_empty () =
  Alcotest.check_raises "empty bbox" (Invalid_argument "Geom.bbox_of_points: empty")
    (fun () -> ignore (Geom.bbox_of_points []))

let test_geom_expand_union () =
  let b = Geom.expand (Geom.bbox_of_point (p 0.0 0.0)) (p 2.0 3.0) in
  check_float "width" 2.0 (Geom.width b);
  check_float "height" 3.0 (Geom.height b);
  let u = Geom.bbox_union b (Geom.bbox_of_point (p (-1.0) 0.0)) in
  check_float "union lx" (-1.0) u.Geom.lx

let test_geom_overlap () =
  let a = Geom.bbox_of_points [ p 0.0 0.0; p 2.0 2.0 ] in
  let b = Geom.bbox_of_points [ p 1.0 1.0; p 3.0 3.0 ] in
  let c = Geom.bbox_of_points [ p 5.0 5.0; p 6.0 6.0 ] in
  Alcotest.(check bool) "a-b overlap" true (Geom.overlap a b);
  Alcotest.(check bool) "a-c disjoint" false (Geom.overlap a c)

let test_geom_clamp () =
  check_float "below" 0.0 (Geom.clamp (-1.0) ~lo:0.0 ~hi:5.0);
  check_float "inside" 3.0 (Geom.clamp 3.0 ~lo:0.0 ~hi:5.0);
  check_float "above" 5.0 (Geom.clamp 9.0 ~lo:0.0 ~hi:5.0)

let test_geom_spanning_trivial () =
  check_float "empty" 0.0 (Geom.spanning_length []);
  check_float "single" 0.0 (Geom.spanning_length [ p 1.0 1.0 ]);
  check_float "pair" 5.0 (Geom.spanning_length [ p 0.0 0.0; p 2.0 3.0 ])

let test_geom_spanning_line () =
  (* collinear points: spanning = end-to-end distance *)
  let pts = List.init 5 (fun i -> p (float_of_int i) 0.0) in
  check_float "line" 4.0 (Geom.spanning_length pts)

let test_geom_spanning_star () =
  (* centre plus 4 arms of length 1: MST = 4 *)
  let pts = [ p 0.0 0.0; p 1.0 0.0; p (-1.0) 0.0; p 0.0 1.0; p 0.0 (-1.0) ] in
  check_float "star" 4.0 (Geom.spanning_length pts)

let test_geom_midpoint () =
  let m = Geom.midpoint (p 0.0 0.0) (p 4.0 2.0) in
  Alcotest.(check bool) "midpoint" true (feq m.Geom.x 2.0 && feq m.Geom.y 1.0)

(* --- Vec --- *)

let test_vec_push_get () =
  let v = Vec.create () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  let i0 = Vec.push v "a" and i1 = Vec.push v "b" in
  Alcotest.(check int) "index 0" 0 i0;
  Alcotest.(check int) "index 1" 1 i1;
  Alcotest.(check string) "get" "b" (Vec.get v 1);
  Vec.set v 0 "c";
  Alcotest.(check string) "set" "c" (Vec.get v 0)

let test_vec_bounds () =
  let v = Vec.create () in
  ignore (Vec.push v 1);
  Alcotest.(check bool) "oob raises" true
    (try
       ignore (Vec.get v 1);
       false
     with Invalid_argument _ -> true)

let test_vec_growth () =
  let v = Vec.create () in
  for i = 0 to 999 do
    ignore (Vec.push v i)
  done;
  Alcotest.(check int) "length" 1000 (Vec.length v);
  Alcotest.(check int) "last" 999 (Vec.get v 999);
  Alcotest.(check int) "fold" 499500 (Vec.fold ( + ) 0 v)

let test_vec_iters () =
  let v = Vec.of_list [ 10; 20; 30 ] in
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  Alcotest.(check (list (pair int int))) "iteri" [ (0, 10); (1, 20); (2, 30) ] (List.rev !acc);
  Alcotest.(check (list int)) "to_list" [ 10; 20; 30 ] (Vec.to_list v);
  Alcotest.(check (list int)) "map_to_list" [ 20; 40; 60 ] (Vec.map_to_list (fun x -> 2 * x) v);
  Alcotest.(check bool) "exists" true (Vec.exists (( = ) 20) v);
  Alcotest.(check (option int)) "find_index" (Some 2) (Vec.find_index (( = ) 30) v)

(* --- Text_table --- *)

let test_table_contains_cells () =
  let s = Text_table.render ~header:[ "A"; "B" ] [ [ "x"; "y" ]; [ "longer"; "z" ] ] in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec loop i = i + nn <= nh && (String.sub hay i nn = needle || loop (i + 1)) in
    loop 0
  in
  Alcotest.(check bool) "has header" true (contains s "A");
  Alcotest.(check bool) "has cell" true (contains s "longer")

let test_table_pads_short_rows () =
  let s = Text_table.render ~header:[ "A"; "B"; "C" ] [ [ "only" ] ] in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_table_formats () =
  Alcotest.(check string) "pct" "133.18%" (Text_table.pct 133.18);
  Alcotest.(check string) "f2" "1.50" (Text_table.f2 1.5)

let () =
  Alcotest.run "smt_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int_in range" `Quick test_rng_int_in;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "float_in range" `Quick test_rng_float_in;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "sample distinct" `Quick test_rng_sample;
          Alcotest.test_case "pick empty" `Quick test_rng_pick_empty;
        ] );
      ( "geom",
        [
          Alcotest.test_case "manhattan" `Quick test_geom_manhattan;
          Alcotest.test_case "euclid" `Quick test_geom_euclid;
          Alcotest.test_case "bbox/hpwl" `Quick test_geom_bbox;
          Alcotest.test_case "bbox empty" `Quick test_geom_bbox_empty;
          Alcotest.test_case "expand/union" `Quick test_geom_expand_union;
          Alcotest.test_case "overlap" `Quick test_geom_overlap;
          Alcotest.test_case "clamp" `Quick test_geom_clamp;
          Alcotest.test_case "spanning trivial" `Quick test_geom_spanning_trivial;
          Alcotest.test_case "spanning line" `Quick test_geom_spanning_line;
          Alcotest.test_case "spanning star" `Quick test_geom_spanning_star;
          Alcotest.test_case "midpoint" `Quick test_geom_midpoint;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get/set" `Quick test_vec_push_get;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "growth" `Quick test_vec_growth;
          Alcotest.test_case "iterators" `Quick test_vec_iters;
        ] );
      ( "text_table",
        [
          Alcotest.test_case "contains cells" `Quick test_table_contains_cells;
          Alcotest.test_case "pads short rows" `Quick test_table_pads_short_rows;
          Alcotest.test_case "formats" `Quick test_table_formats;
        ] );
    ]
