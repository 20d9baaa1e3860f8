(** Request execution with batch-CLI-identical text rendering.

    The service's core fidelity contract: a [plan]/[replan]/[observe]
    request answered here produces {e byte-for-byte} the text the
    corresponding [adept plan]/[adept replan]/[adept observe] invocation
    prints (the CI smoke job diffs the two).  All planning uses the
    CLI's calibrated {!Adept_model.Params.diet_lyon} parameters. *)

open Adept_platform

val params : Adept_model.Params.t
(** The parameter set every request is planned under (the CLI's). *)

val platform_of_spec : Protocol.platform_spec -> (Platform.t, string) result
(** Build the platform a request describes: the CLI's synthetic
    generators (same load fraction and levels), or an inline catalog
    parse.  Generator preconditions surface as [Error]. *)

val wapp_of_dgemm : int -> (float, string) result
val demand_of : float option -> Adept_model.Demand.t
val strategy_of_string : string -> (Adept.Planner.strategy, string) result

val plan_text : platform:Platform.t -> wapp:float -> Adept.Planner.plan -> string
(** The [adept plan] stdout for this plan (summary + model report, or
    the heterogeneous-links rho line). *)

val run_plan :
  ?pool:Domain_pool.t ->
  ?shards:int ->
  ?prof:Prof.t ->
  Adept.Planner.strategy ->
  platform:Platform.t ->
  wapp:float ->
  demand:Adept_model.Demand.t ->
  (Adept.Planner.plan, string) result
(** Plan inline with {!Adept.Planner.run}; [prof] collects one wall-clock
    [Plan] stage sample.  [pool] and [shards] are accepted and ignored:
    they remain only for callers written against the retired sharded
    planner, which passed them here. *)

val plan : ?prof:Prof.t -> Protocol.plan_params -> (string * float * int, string) result
(** Execute a plan request: [(text, predicted_rho, nodes_used)].
    [prof] collects wall-clock [Plan] and [Render_reply] stage samples;
    passing it never changes the produced bytes. *)

val replan : Protocol.replan_params -> (string * float, string) result
(** Execute a replan request: [(text, rho_after)].  An empty failed list
    is an error, as in the CLI. *)

val observe : Protocol.observe_params -> (string * float, string) result
(** Execute an observe request: [(text, measured throughput)].  Runs the
    full instrumented simulation — deterministic in the request's seed. *)
