type t = {
  name : string;
  kind : Func.kind;
  vth : Vth.t;
  style : Vth.mt_style;
  area : float;
  input_cap : float;
  intrinsic_delay : float;
  drive_res : float;
  leak_standby : float;
  leak_active : float;
  avg_current : float;
  peak_current : float;
  switch_width : float;
  setup : float;
  hold : float;
  drive : int;
}

let delay t ~load_ff = t.intrinsic_delay +. (t.drive_res *. load_ff)

let bounce_derate (tech : Tech.t) ~bounce_v =
  1.0 +. (tech.Tech.bounce_delay_factor *. Float.max 0.0 bounce_v /. tech.Tech.vdd)

let is_mt t = Vth.is_mt t.style

let delay_with_bounce tech t ~load_ff ~bounce_v =
  let base = delay t ~load_ff in
  if is_mt t then base *. bounce_derate tech ~bounce_v else base

let is_sequential t = Func.is_sequential t.kind

let pp fmt t =
  Format.fprintf fmt "%s(%s,%s,%s area=%.2f leak_stby=%.2f)" t.name
    (Func.to_string t.kind) (Vth.to_string t.vth)
    (Vth.style_to_string t.style) t.area t.leak_standby
