(** Model evaluation of arbitrary hierarchies: bridges {!Adept_hierarchy}
    trees and the Eq. 16 throughput model. *)

open Adept_platform
open Adept_hierarchy

val spec_of_tree :
  wapp:float -> Tree.t -> Adept_model.Throughput.deployment_spec
(** Agents with their degrees and servers with their powers, as the
    throughput model wants them.  @raise Invalid_argument if the tree has
    no servers or an agent with no children. *)

val rho :
  Adept_model.Params.t -> bandwidth:float -> wapp:float -> Tree.t -> float
(** Eq. 16 completed-request throughput of the deployment, bit-identical
    to [Throughput.platform] over {!spec_of_tree}.
    @raise Invalid_argument if the tree has no servers, an agent with no
    children or a server at its root, or if [wapp] is not positive and
    finite. *)

val rho_on :
  Adept_model.Params.t -> platform:Platform.t -> wapp:float -> Tree.t -> float
(** {!rho} with the platform's uniform bandwidth.
    @raise Invalid_argument on heterogeneous connectivity. *)

val bottleneck :
  Adept_model.Params.t ->
  bandwidth:float ->
  wapp:float ->
  Tree.t ->
  [ `Agent_sched | `Server_sched | `Service ]
(** Which side of Eq. 16 limits the deployment. *)

type bottleneck_element = {
  be_side : [ `Sched | `Service ];
      (** Which side of [rho = min(rho_sched, rho_service)] attains the
          minimum (ties go to the scheduling side, like {!bottleneck}). *)
  be_role : [ `Agent | `Server ];
  be_node : Node.t option;
      (** The saturating element of Eq. 14 when the scheduling side
          binds.  [None] when the service side binds: under the Eqs. 6–9
          load split every server saturates together, so no single
          element is singled out. *)
  be_rho_sched : float;  (** Eq. 14, req/s. *)
  be_rho_service : float;  (** Eq. 15, req/s. *)
  be_element_rho : float;  (** The binding element's (or side's) own term. *)
}

val bottleneck_element :
  Adept_model.Params.t ->
  bandwidth:float ->
  wapp:float ->
  Tree.t ->
  bottleneck_element
(** {!bottleneck} refined to a concrete element: which node's Eq. 14 term
    (or the collective Eq. 15 service capacity) limits the deployment —
    the model-side prediction that measured critical-path attribution
    ({!Adept_obs} [Attribution]) is checked against.
    @raise Invalid_argument on a non-positive [wapp] or a tree without
    servers. *)

val describe_bottleneck_element : bottleneck_element -> string
(** One-line human rendering of the prediction. *)

val rho_hetero :
  Adept_model.Params.t -> platform:Platform.t -> wapp:float -> Tree.t -> float
(** Eq. 16 generalised to heterogeneous connectivity — the paper's "we
    plan to deal with heterogeneous communication in future works", made
    concrete:

    - every term of Eq. 14 charges each message at the bandwidth of the
      link it crosses (an agent's parent link and each of its child
      links); the root's client link and each server's client link use
      that node's intra-cluster bandwidth;
    - Eq. 15's shared communication term becomes the load-weighted mean of
      the per-server client-link costs, with the Eqs. 6–9 split
      [x_i = (w_i / wapp) / sum_j (w_j / wapp)].

    With a uniform bandwidth this reduces exactly to {!rho} (tested). *)

type element_cost = {
  ec_node : Node.t;
  ec_level : int;  (** Depth in the hierarchy, root = 0. *)
  ec_role : [ `Agent | `Server ];
  ec_degree : int;  (** Children for agents, 0 for servers. *)
  ec_wreq_s : float;  (** Agent request processing [Wreq / w], seconds. *)
  ec_wrep_s : float;  (** Agent reply aggregation [Wrep(d) / w], seconds. *)
  ec_wpre_s : float;  (** Server prediction [Wpre / w], seconds. *)
  ec_service_s : float;  (** Server execution [Wapp / w], seconds. *)
}

val element_costs :
  Adept_model.Params.t -> wapp:float -> Tree.t -> element_cost list
(** The per-element compute components of Eqs. 1–5, per node of the
    hierarchy (sorted by node id): what each element should charge per
    request, to set against measured per-element timings.  Fields that
    do not apply to the element's role are 0. *)

val report :
  Adept_model.Params.t -> bandwidth:float -> wapp:float -> Tree.t -> string
(** Multi-line human summary: shape, throughputs, bottleneck. *)
