open Adept_platform
open Adept_hierarchy
module Throughput = Adept_model.Throughput

let spec_of_tree ~wapp tree =
  let agents =
    List.map
      (fun (node, degree) ->
        if degree = 0 then
          invalid_arg
            (Printf.sprintf "Evaluate.spec_of_tree: agent %s has no children"
               (Node.name node));
        (Node.power node, degree))
      (Tree.agents_with_degree tree)
  in
  let servers =
    List.map (fun node -> { Throughput.power = Node.power node; wapp }) (Tree.servers tree)
  in
  if servers = [] then invalid_arg "Evaluate.spec_of_tree: hierarchy has no servers";
  { Throughput.agents; servers }

(* Eq. 16 accumulators for {!rho}: an all-float record is stored flat,
   so updating a field boxes nothing. *)
type sums = {
  mutable agent_min : float;
  mutable server_min : float;
  mutable ratio_sum : float;
  mutable rate_sum : float;
}

(* [Throughput.platform] over [spec_of_tree], in one pre-order walk that
   builds no spec lists.  Each accumulator folds the same terms in the
   same order as the list-based path — the agents in pre-order from
   infinity, the servers in pre-order from infinity and from 0.0 — and
   Eq. 15 is [Service_power.of_sums], which mirrors [Throughput.service]
   operation for operation, so the result is bit-identical to it. *)
let rho params ~bandwidth ~wapp tree =
  let s =
    {
      agent_min = Float.infinity;
      server_min = Float.infinity;
      ratio_sum = 0.0;
      rate_sum = 0.0;
    }
  in
  let agents = ref 0 and servers = ref 0 in
  let ratio = params.Adept_model.Params.server.wpre /. wapp in
  let rec walk = function
    | Tree.Server node ->
        let power = Node.power node in
        s.server_min <-
          Float.min s.server_min (Throughput.server_sched params ~bandwidth ~power);
        s.ratio_sum <- s.ratio_sum +. ratio;
        s.rate_sum <- s.rate_sum +. (power /. wapp);
        incr servers
    | Tree.Agent (node, children) ->
        let degree = List.length children in
        if degree = 0 then
          invalid_arg
            (Printf.sprintf "Evaluate.rho: agent %s has no children" (Node.name node));
        s.agent_min <-
          Float.min s.agent_min
            (Throughput.agent_sched params ~bandwidth ~power:(Node.power node) ~degree);
        incr agents;
        List.iter walk children
  in
  walk tree;
  if !servers = 0 then invalid_arg "Evaluate.rho: hierarchy has no servers";
  if wapp <= 0.0 || not (Float.is_finite wapp) then
    invalid_arg "Evaluate.rho: wapp must be positive and finite";
  let service =
    Service_power.of_sums params ~bandwidth ~ratio_sum:s.ratio_sum ~rate_sum:s.rate_sum
  in
  if !agents = 0 then invalid_arg "Evaluate.rho: the root is a server, not an agent";
  Float.min (Float.min s.agent_min s.server_min) service

let rho_on params ~platform ~wapp tree =
  rho params ~bandwidth:(Platform.uniform_bandwidth platform) ~wapp tree

let bottleneck params ~bandwidth ~wapp tree =
  Throughput.bottleneck params ~bandwidth (spec_of_tree ~wapp tree)

type bottleneck_element = {
  be_side : [ `Sched | `Service ];
  be_role : [ `Agent | `Server ];
  be_node : Node.t option;
  be_rho_sched : float;
  be_rho_service : float;
  be_element_rho : float;
}

let bottleneck_element params ~bandwidth ~wapp tree =
  if wapp <= 0.0 || not (Float.is_finite wapp) then
    invalid_arg "Evaluate.bottleneck_element: wapp must be positive and finite";
  let spec = spec_of_tree ~wapp tree in
  let sched = Throughput.sched params ~bandwidth spec in
  let service = Throughput.service params ~bandwidth spec.Throughput.servers in
  (* Locate the Eq. 14 argmin.  Ties resolve to the element first reached
     by a pre-order walk (agents before their subtrees), matching the
     agent-before-server tie order of {!Throughput.bottleneck}. *)
  let best = ref None in
  let consider node role term =
    match !best with
    | Some (_, _, t) when t <= term -> ()
    | Some _ | None -> best := Some (node, role, term)
  in
  let rec walk = function
    | Tree.Server node ->
        consider node `Server
          (Throughput.server_sched params ~bandwidth ~power:(Node.power node))
    | Tree.Agent (node, children) ->
        consider node `Agent
          (Throughput.agent_sched params ~bandwidth ~power:(Node.power node)
             ~degree:(List.length children));
        List.iter walk children
  in
  walk tree;
  let node, role, element_rho =
    match !best with
    | Some b -> b
    | None -> invalid_arg "Evaluate.bottleneck_element: empty hierarchy"
  in
  if service < sched then
    (* The collective Eqs. 6-13 service capacity binds: under the load
       split every server saturates together, so no single server is
       singled out. *)
    {
      be_side = `Service;
      be_role = `Server;
      be_node = None;
      be_rho_sched = sched;
      be_rho_service = service;
      be_element_rho = service;
    }
  else
    {
      be_side = `Sched;
      be_role = role;
      be_node = Some node;
      be_rho_sched = sched;
      be_rho_service = service;
      be_element_rho = element_rho;
    }

let describe_bottleneck_element be =
  let side =
    match be.be_side with
    | `Sched -> "scheduling (Eq. 14)"
    | `Service -> "service (Eq. 15)"
  in
  let element =
    match (be.be_side, be.be_node) with
    | `Service, _ -> "the server set collectively"
    | `Sched, Some node ->
        Printf.sprintf "%s %s (node %d)"
          (match be.be_role with `Agent -> "agent" | `Server -> "server")
          (Node.name node) (Node.id node)
    | `Sched, None -> "unknown element"
  in
  Printf.sprintf
    "%s side binds at %.2f req/s (rho_sched %.2f, rho_service %.2f): %s" side
    be.be_element_rho be.be_rho_sched be.be_rho_service element

let rho_hetero (params : Adept_model.Params.t) ~platform ~wapp tree =
  if wapp <= 0.0 || not (Float.is_finite wapp) then
    invalid_arg "Evaluate.rho_hetero: wapp must be positive and finite";
  let bw a b = Platform.bandwidth platform (Node.id a) (Node.id b) in
  let client_bw node = Platform.bandwidth platform (Node.id node) (Node.id node) in
  let ag = params.Adept_model.Params.agent in
  let srv = params.Adept_model.Params.server in
  (* Eq. 14 agent term with per-link bandwidths: the parent (or client)
     link carries one request down and one reply up; each child link
     carries one request and one reply, always at agent-level sizes. *)
  let agent_term ~parent node children =
    let up = match parent with Some p -> bw p node | None -> client_bw node in
    let degree = List.length children in
    let comm_up = (ag.sreq +. ag.srep) /. up in
    let comm_down =
      List.fold_left
        (fun acc child -> acc +. ((ag.sreq +. ag.srep) /. bw node (Tree.root_node child)))
        0.0 children
    in
    let compute =
      (ag.wreq +. Adept_model.Params.wrep params ~degree) /. Node.power node
    in
    1.0 /. (compute +. comm_up +. comm_down)
  in
  let server_term ~parent node =
    let up = bw parent node in
    1.0 /. ((srv.wpre /. Node.power node) +. ((srv.sreq +. srv.srep) /. up))
  in
  let rec sched_min ~parent tree =
    match tree with
    | Tree.Server node -> (
        match parent with
        | Some p -> server_term ~parent:p node
        | None -> invalid_arg "Evaluate.rho_hetero: root server")
    | Tree.Agent (node, children) ->
        if children = [] then
          invalid_arg "Evaluate.rho_hetero: agent without children";
        List.fold_left
          (fun acc child -> Float.min acc (sched_min ~parent:(Some node) child))
          (agent_term ~parent node children)
          children
  in
  let servers = Tree.servers tree in
  if servers = [] then invalid_arg "Evaluate.rho_hetero: hierarchy has no servers";
  (* Eq. 15 with the load split of Eqs. 6-9 weighting each server's
     client-link cost. *)
  let rate_sum = List.fold_left (fun acc s -> acc +. (Node.power s /. wapp)) 0.0 servers in
  let ratio_sum = List.fold_left (fun acc _ -> acc +. (srv.wpre /. wapp)) 0.0 servers in
  let comm_mean =
    List.fold_left
      (fun acc s ->
        let x = Node.power s /. wapp /. rate_sum in
        acc +. (x *. ((srv.sreq +. srv.srep) /. client_bw s)))
      0.0 servers
  in
  let service = 1.0 /. (comm_mean +. ((1.0 +. ratio_sum) /. rate_sum)) in
  Float.min (sched_min ~parent:None tree) service

type element_cost = {
  ec_node : Node.t;
  ec_level : int;
  ec_role : [ `Agent | `Server ];
  ec_degree : int;
  ec_wreq_s : float;
  ec_wrep_s : float;
  ec_wpre_s : float;
  ec_service_s : float;
}

let element_costs (params : Adept_model.Params.t) ~wapp tree =
  if wapp <= 0.0 || not (Float.is_finite wapp) then
    invalid_arg "Evaluate.element_costs: wapp must be positive and finite";
  let ag = params.Adept_model.Params.agent in
  let srv = params.Adept_model.Params.server in
  let rec walk level acc tree =
    match tree with
    | Tree.Server node ->
        let w = Node.power node in
        {
          ec_node = node;
          ec_level = level;
          ec_role = `Server;
          ec_degree = 0;
          ec_wreq_s = 0.0;
          ec_wrep_s = 0.0;
          ec_wpre_s = srv.wpre /. w;
          ec_service_s = wapp /. w;
        }
        :: acc
    | Tree.Agent (node, children) ->
        let w = Node.power node in
        let degree = List.length children in
        let cost =
          {
            ec_node = node;
            ec_level = level;
            ec_role = `Agent;
            ec_degree = degree;
            ec_wreq_s = ag.wreq /. w;
            ec_wrep_s = Adept_model.Params.wrep params ~degree /. w;
            ec_wpre_s = 0.0;
            ec_service_s = 0.0;
          }
        in
        List.fold_left (fun acc child -> walk (level + 1) acc child) (cost :: acc) children
  in
  walk 0 [] tree
  |> List.sort (fun a b -> Int.compare (Node.id a.ec_node) (Node.id b.ec_node))

let report params ~bandwidth ~wapp tree =
  let spec = spec_of_tree ~wapp tree in
  let sched = Throughput.sched params ~bandwidth spec in
  let service = Throughput.service params ~bandwidth spec.Throughput.servers in
  let total = Throughput.platform params ~bandwidth spec in
  let limit =
    match Throughput.bottleneck params ~bandwidth spec with
    | `Agent_sched -> "agent scheduling"
    | `Server_sched -> "server prediction"
    | `Service -> "service capacity"
  in
  Format.asprintf
    "%s@.rho_sched   = %.2f req/s@.rho_service = %.2f req/s@.rho         = %.2f req/s \
     (bottleneck: %s)"
    (Metrics.describe tree) sched service total limit
