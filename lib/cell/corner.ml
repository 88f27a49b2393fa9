type process = Slow | Typical | Fast

type t = {
  process : process;
  temperature_c : float;
  vdd : float;
}

let typical (tech : Tech.t) = { process = Typical; temperature_c = 25.0; vdd = tech.Tech.vdd }

let make ?(process = Typical) ?(temperature_c = 25.0) (tech : Tech.t) =
  { process; temperature_c; vdd = tech.Tech.vdd }

let process_leak_factor = function Slow -> 0.5 | Typical -> 1.0 | Fast -> 2.5
let process_speed_factor = function Slow -> 1.15 | Typical -> 1.0 | Fast -> 0.9

let leakage_factor (tech : Tech.t) t =
  let thermal = exp ((t.temperature_c -. 25.0) /. 35.0) in
  let supply = (t.vdd /. tech.Tech.vdd) ** 3.0 in
  process_leak_factor t.process *. thermal *. supply

let delay_factor (tech : Tech.t) t =
  (* hotter and lower-supply silicon is slower; a mild linear model *)
  let thermal = 1.0 +. (0.0012 *. (t.temperature_c -. 25.0)) in
  let supply = tech.Tech.vdd /. t.vdd in
  process_speed_factor t.process *. thermal *. supply

let process_name = function Slow -> "SS" | Typical -> "TT" | Fast -> "FF"

let pp fmt t =
  Format.fprintf fmt "%s/%.0fC/%.2fV" (process_name t.process) t.temperature_c t.vdd
