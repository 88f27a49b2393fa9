module J = Smt_obs.Obs_json

type t = {
  jb_circuit : string;
  jb_technique : string;
  jb_guard : string;
  jb_seed : int;
}

let id j =
  Printf.sprintf "%s~%s~%s~s%d" j.jb_circuit j.jb_technique j.jb_guard j.jb_seed

let name j =
  Printf.sprintf "%s/%s/%s/s%d" j.jb_circuit j.jb_technique j.jb_guard j.jb_seed

let matrix ~circuits ~techniques ~guards ~seeds =
  List.concat_map
    (fun c ->
      List.concat_map
        (fun t ->
          List.concat_map
            (fun g ->
              List.map
                (fun s ->
                  { jb_circuit = c; jb_technique = t; jb_guard = g; jb_seed = s })
                seeds)
            guards)
        techniques)
    circuits

let to_json j =
  J.obj
    [
      ("circuit", J.str j.jb_circuit);
      ("technique", J.str j.jb_technique);
      ("guard", J.str j.jb_guard);
      ("seed", string_of_int j.jb_seed);
    ]

let of_json v =
  let open J.Decode in
  {
    jb_circuit = field "circuit" string v;
    jb_technique = field "technique" string v;
    jb_guard = field "guard" string v;
    jb_seed = field "seed" int v;
  }
