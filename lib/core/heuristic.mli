(** The deployment-planning heuristic for heterogeneous platforms
    (the paper's Algorithm 1).

    Given heterogeneous nodes with homogeneous connectivity, an
    application cost [wapp] and a client demand, build a hierarchy
    maximising the completed-request throughput [rho] (Eq. 16), preferring
    fewer resources at equal throughput.

    The paper's pseudo-code is informal; this is a faithful reconstruction
    built from its own primitives (DESIGN.md §5 documents each choice):

    + nodes are sorted once by scheduling power with [n - 1] children
      (Steps 1–2, {!Sched_power.sort_nodes}); agents are always drawn from
      the front of this order, the paper's rule for picking agent-worthy
      nodes;
    + for a candidate target throughput [T], a hierarchy is grown level by
      level: each agent receives at most [supported_children] children —
      the largest degree keeping its Eq. 14 scheduling power at or above
      [T] — and servers are taken from the sorted order until the Eq. 15
      service power reaches [T] (the paper's balance between
      [vir_max_sch_pow] and [vir_max_ser_pow]); when the current level
      cannot host enough servers, frontier slots are converted into agents
      (the paper's [shift_nodes] server-to-agent conversion) and the build
      recurses one level deeper;
    + the achievable [T] is maximised by bisection — feasibility is
      monotone in [T] — which plays the role of the paper's
      [diff]/[throughput_diff] stopping rule; every probe's hierarchy is
      evaluated with the exact Eq. 16 model and the best is kept;
    + the degenerate Step 6 answer (one agent, one server) falls out of
      small targets, and a demand caps the search so the plan meeting the
      demand with the fewest resources is returned;
    + a final {e agent lightening} pass — an improvement over the paper's
      strongest-first rule — swaps strong agents for the weakest servers
      that still hold the position with a 4x scheduling-power margin,
      returning compute power to the service side (DESIGN.md §5). *)

open Adept_platform
open Adept_hierarchy

type probe = {
  target : float;  (** Candidate throughput [T] probed, req/s. *)
  feasible : bool;
  achieved_rho : float;  (** Eq. 16 rho of the built hierarchy (0 if infeasible). *)
  nodes_used : int;  (** 0 if infeasible. *)
}

type result = {
  tree : Tree.t;
  predicted_rho : float;  (** Eq. 16 throughput of [tree]. *)
  probes : probe list;  (** Bisection trace, for diagnostics. *)
  demand_met : bool;
}

val plan :
  Adept_model.Params.t ->
  platform:Platform.t ->
  wapp:float ->
  demand:Adept_model.Demand.t ->
  (result, string) Stdlib.result
(** Plan a deployment.  Errors: fewer than two nodes, non-positive [wapp],
    or heterogeneous connectivity (the model needs a single [B]).
    The returned tree always passes [Validate.check ~platform]. *)

(** {1 Selection}

    How {!plan} picks among its feasible probes, exposed so the tie rule
    can be tested on payloads that differ (tied probes of a real plan
    rebuild the same tree). *)

type 'a choice
(** The running best over the probes offered so far. *)

val no_choice : 'a choice
(** Nothing offered yet. *)

val offer :
  demand:Adept_model.Demand.t ->
  'a choice ->
  rho:float ->
  used:int ->
  'a ->
  'a choice
(** Offer the next feasible probe, in probe order.  Among all offers the
    choice keeps the most [rho] (then the fewest [used]); among offers
    with [rho >= r * (1 - 1e-9)] for a demand [Rate r], the fewest [used]
    (then the most [rho]).  On a full tie the later offer wins. *)

val chosen : 'a choice -> ('a * float * bool) option
(** The pick and its [rho], and whether it meets the demand: the
    fewest-[used] offer meeting the demand if there is one, else the
    most-[rho] offer; [None] before any offer. *)

val probe :
  Adept_model.Params.t -> Node_pool.t -> target:float -> Tree.t option
(** One bisection probe against a prepared pool: the level-by-level
    build (including normalization and agent lightening) at [target].
    A pure function of its arguments over an immutable pool. *)

val pool_of :
  Adept_model.Params.t ->
  platform:Platform.t ->
  wapp:float ->
  Node_pool.t option
(** The pool {!plan} would build internally — [None] on heterogeneous
    connectivity.  Lets callers re-run single {!probe}s (e.g. to time
    them one by one) against the same sorted view the driver uses. *)

val plan_tree :
  Adept_model.Params.t ->
  platform:Platform.t ->
  wapp:float ->
  demand:Adept_model.Demand.t ->
  (Tree.t, string) Stdlib.result
(** [plan] keeping only the hierarchy. *)

val build_for_target :
  Adept_model.Params.t ->
  platform:Platform.t ->
  wapp:float ->
  target:float ->
  Tree.t option
(** The level-by-level builder for one target throughput, exposed for
    tests and ablations: [Some tree] whose model rho is >= [target] when
    the platform can host it, [None] otherwise. *)
