module Rng = Adept_util.Rng

(* 730 MFlop/s reproduces the paper's DGEMM 200x200 single-server
   throughput of ~45 req/s: 2*200^3 flop = 16 MFlop per request, plus the
   Table 3 prediction cost, gives 1/((16 + 0.0064)/730) ~ 45.6 req/s. *)
let era_node_power = 730.0

let check_n n = if n <= 0 then invalid_arg "Generator: n must be positive"

let make_nodes ?(cluster = "default") ~n power_of_index =
  let prefix = cluster ^ "-" in
  List.init n (fun i ->
      Node.make ~id:i ~name:(prefix ^ string_of_int i) ~power:(power_of_index i)
        ~cluster ())

let homogeneous ?(bandwidth = 1000.0) ?cluster ~n ~power () =
  check_n n;
  let link = Link.homogeneous ~bandwidth () in
  Platform.create ~link (make_nodes ?cluster ~n (fun _ -> power))

let uniform_heterogeneous ?(bandwidth = 1000.0) ?cluster ~rng ~n ~power_min ~power_max () =
  check_n n;
  if power_min <= 0.0 || power_max < power_min then
    invalid_arg "Generator.uniform_heterogeneous: need 0 < power_min <= power_max";
  let powers = Array.init n (fun _ -> Rng.float_in rng power_min power_max) in
  let link = Link.homogeneous ~bandwidth () in
  Platform.create ~link (make_nodes ?cluster ~n (fun i -> powers.(i)))

let background_loaded ?(bandwidth = 1000.0) ?cluster ~rng ~n ~power ~load_fraction
    ~load_levels () =
  check_n n;
  if load_fraction < 0.0 || load_fraction >= 1.0 then
    invalid_arg "Generator.background_loaded: load_fraction must be in [0, 1)";
  if load_levels < 1 then
    invalid_arg "Generator.background_loaded: load_levels must be >= 1";
  let level_power level =
    if load_levels = 1 then power
    else
      let k = float_of_int level /. float_of_int (load_levels - 1) in
      power *. (1.0 -. (load_fraction *. k))
  in
  let powers = Array.init n (fun _ -> level_power (Rng.int rng load_levels)) in
  let link = Link.homogeneous ~bandwidth () in
  Platform.create ~link (make_nodes ?cluster ~n (fun i -> powers.(i)))

let grid5000_orsay ~rng ~n () =
  background_loaded ~bandwidth:1000.0 ~cluster:"orsay" ~rng ~n ~power:era_node_power
    ~load_fraction:0.65 ~load_levels:4 ()

let grid5000_lyon ~n () =
  homogeneous ~bandwidth:100.0 ~cluster:"lyon" ~n ~power:era_node_power ()

let two_sites ~rng ~n_orsay ~n_lyon ~wan_bandwidth () =
  check_n n_orsay;
  check_n n_lyon;
  let orsay =
    List.init n_orsay (fun i ->
        let loaded = Rng.int rng 4 in
        let power = era_node_power *. (1.0 -. (0.65 *. float_of_int loaded /. 3.0)) in
        Node.make ~id:i ~name:(Printf.sprintf "orsay-%d" i) ~power ~cluster:"orsay" ())
  in
  let lyon =
    List.init n_lyon (fun i ->
        Node.make ~id:(n_orsay + i)
          ~name:(Printf.sprintf "lyon-%d" i)
          ~power:era_node_power ~cluster:"lyon" ())
  in
  let link =
    Link.inter_cluster ~default:1000.0 [ (("orsay", "lyon"), wan_bandwidth) ]
  in
  Platform.create ~link (orsay @ lyon)
