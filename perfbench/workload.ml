(* The benchmark's three traffic mixes, generated from the workload seed.

   Each stresses one part of adept and leaves the others nearly idle:

   - [Warm_hit]: plans over 32 homogeneous 50-node specs, all primed into
     the server's 128-entry cache before timing.  Every timed request is
     answered on the event loop from the cache, so the loop, [Wire],
     [Protocol] and [Cache.find] do all the work and the planner none.
   - [Cold_plan]: every request is a new heterogeneous 2,000-node spec
     (spec seed = workload seed + request counter): nothing hits the
     cache or coalesces, and each request is a full Algorithm 1 run on a
     worker domain while the loop idles.
   - [Mixed_churn]: Zipf(1.0) popularity over 512 heterogeneous 200-node
     specs (4x the cache, so LRU eviction runs), 90% plan, 8% replan (one
     failed node, which invalidates the spec's cached plans) and 2%
     observe (a seeded 20-node simulation).  The only mix with cache
     invalidations and the simulator.

   The server only ever receives the requests [next] returns; the seed
   stays on this side. *)

module P = Adept_serve.Protocol
module Rng = Adept_util.Rng

type kind = Warm_hit | Cold_plan | Mixed_churn

let all = [ Warm_hit; Cold_plan; Mixed_churn ]

let name = function
  | Warm_hit -> "warm-hit"
  | Cold_plan -> "cold-plan"
  | Mixed_churn -> "mixed-churn"

let of_string s = List.find_opt (fun k -> name k = s) all

let dgemm = 310
let warm_specs = 32
let warm_nodes = 50
let cold_nodes = 2000
let churn_specs = 512
let churn_nodes = 200
let observe_nodes = 20

type t = {
  kind : kind;
  seed : int;
  rng : Rng.t;
  specs : P.platform_spec array;
  zipf_cdf : float array;
  mutable counter : int;
}

let hetero ~nodes ~seed =
  P.Synthetic { nodes; power = 730.0; bandwidth = 1000.0; heterogeneous = true; seed }

(* 32 distinct homogeneous platforms: distinct powers, so both the cache
   keys and the plans differ. *)
let warm_spec_set rng =
  let powers = Hashtbl.create warm_specs in
  let rec draw acc =
    if List.length acc = warm_specs then Array.of_list (List.rev acc)
    else
      let power = float_of_int (200 + Rng.int rng 800) in
      if Hashtbl.mem powers power then draw acc
      else begin
        Hashtbl.add powers power ();
        draw
          (P.Synthetic
             { nodes = warm_nodes; power; bandwidth = 1000.0; heterogeneous = false; seed = 0 }
          :: acc)
      end
  in
  draw []

let zipf_cdf n =
  let w = Array.init n (fun i -> 1.0 /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let create kind ~seed =
  let rng = Rng.create seed in
  let specs =
    match kind with
    | Warm_hit -> warm_spec_set rng
    | Cold_plan -> [||]
    | Mixed_churn ->
        Array.init churn_specs (fun i -> hetero ~nodes:churn_nodes ~seed:((seed * churn_specs) + i))
  in
  let zipf_cdf = if kind = Mixed_churn then zipf_cdf churn_specs else [||] in
  { kind; seed; rng; specs; zipf_cdf; counter = 0 }

let plan spec = P.Plan { P.spec; dgemm; demand = None; strategy = "heuristic"; use_cache = true }

(* First index whose cumulative weight exceeds [u]. *)
let zipf_draw t =
  let u = Rng.float t.rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length t.zipf_cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.zipf_cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let replan_params spec ~failed =
  { P.r_spec = spec; r_dgemm = dgemm; r_demand = None; r_strategy = "heuristic"; r_failed = [ failed ] }

let observe_params ~spec_seed ~sim_seed =
    {
      P.o_spec = hetero ~nodes:observe_nodes ~seed:spec_seed;
      o_dgemm = dgemm;
      o_demand = None;
      o_strategy = "heuristic";
      o_seed = sim_seed;
      o_clients = 20;
      o_warmup = 0.5;
      o_duration = 1.0;
    }

let next t =
  let i = t.counter in
  t.counter <- i + 1;
  match t.kind with
  | Warm_hit -> plan t.specs.(Rng.int t.rng warm_specs)
  | Cold_plan -> plan (hetero ~nodes:cold_nodes ~seed:(t.seed + i))
  | Mixed_churn -> (
      let spec = t.specs.(zipf_draw t) in
      let u = Rng.float t.rng 1.0 in
      if u < 0.90 then plan spec
      else if u < 0.98 then P.Replan (replan_params spec ~failed:(Rng.int t.rng churn_nodes))
      else
        let s = Rng.int t.rng 1_000_000 in
        P.Observe (observe_params ~spec_seed:s ~sim_seed:s))

(* Requests sent before timing whose cost counts as set-up. *)
let priming t =
  match t.kind with Warm_hit -> Array.to_list (Array.map plan t.specs) | Cold_plan | Mixed_churn -> []

(* A replan and an observe shaped like [Mixed_churn]'s, on a spec of this
   workload, so that every workload reports the replan and simulator
   layers. *)
let replan_sample t =
  let spec, nodes =
    match t.kind with
    | Warm_hit -> (t.specs.(0), warm_nodes)
    | Cold_plan -> (hetero ~nodes:cold_nodes ~seed:t.seed, cold_nodes)
    | Mixed_churn -> (t.specs.(0), churn_nodes)
  in
  replan_params spec ~failed:((t.seed land max_int) mod nodes)

let observe_sample t = observe_params ~spec_seed:t.seed ~sim_seed:t.seed
