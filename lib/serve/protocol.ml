(* Typed requests and responses for the planning service, with total
   JSON codecs.  The shapes mirror the batch CLI's flags one-to-one so
   [adept query ...] can be diffed bit-for-bit against [adept plan ...]:
   a platform is either the synthetic-generator parameters or an inline
   catalog text, and the workload/demand/strategy fields carry the same
   defaults as the CLI arguments. *)

type platform_spec =
  | Synthetic of {
      nodes : int;
      power : float;
      bandwidth : float;
      heterogeneous : bool;
      seed : int;
    }
  | Catalog of string  (** catalog text, inline (not a path: the server
                           may run on another machine) *)

type plan_params = {
  spec : platform_spec;
  dgemm : int;
  demand : float option;
  strategy : string;
  use_cache : bool;
      (** [false] bypasses the plan-fragment cache (cold benchmarks). *)
}

type replan_params = {
  r_spec : platform_spec;
  r_dgemm : int;
  r_demand : float option;
  r_strategy : string;
  r_failed : int list;
}

type observe_params = {
  o_spec : platform_spec;
  o_dgemm : int;
  o_demand : float option;
  o_strategy : string;
  o_seed : int;  (** simulation seed (the CLI reuses --seed for this) *)
  o_clients : int;
  o_warmup : float;
  o_duration : float;
}

type request =
  | Plan of plan_params
  | Replan of replan_params
  | Observe of observe_params
  | Stats
  | Trace_dump
  | Otlp_dump

(* [trace] is the optional trace context: a client-generated trace id
   the server head-samples deterministically.  Old clients simply never
   send it (the member is absent, not null), and old servers ignore it
   — the field rides the envelope, so every method can carry it. *)
type envelope = { id : int; trace : int option; request : request }

type error_kind =
  | Parse_error  (** payload is not valid JSON *)
  | Invalid_request  (** JSON but not a request envelope *)
  | Unknown_method of string
  | Invalid_params of string
  | Plan_failed of string  (** planner/simulator returned a typed error *)

(* Wall-clock observability snapshot, present only when the server runs
   with live observability on — the deterministic counters alone keep
   the golden transcript reproducible. *)
(* Per-connection trace aggregation: what each live connection has
   contributed to the sampled-span stream. *)
type conn_stats = {
  conn_id : int;
  conn_requests : int;  (** traced requests finished on this connection *)
  conn_spans : int;
  conn_seconds : float;  (** wall-clock seconds inside those requests *)
}

type live_stats = {
  uptime_seconds : float;
  latency_p50 : float;
  latency_p99 : float;
  cache_hit_ratio : float;
  gc_pause_p99 : float;
  domain_busy : float list;  (** per worker domain, last scrape interval *)
  traces_sampled : int;
  firing_alerts : (string * string) list;  (** (rule name, severity) *)
  connections : conn_stats list;  (** traced connections, by id *)
}

type server_stats = {
  plan_requests : int;
  replan_requests : int;
  observe_requests : int;
  stats_requests : int;
  errors : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_invalidations : int;
  coalesced : int;
  workers : int;
  live : live_stats option;
}

type response =
  | Plan_ok of { text : string; rho : float; nodes_used : int; cached : bool }
  | Replan_ok of { text : string; rho_after : float }
  | Observe_ok of { text : string; throughput : float }
  | Stats_ok of server_stats
  | Trace_ok of { chrome : string }
  | Otlp_ok of { otlp : string }
  | Error of error_kind

type reply = { reply_id : int; response : response }

(* ---------- encoding ---------- *)

let json_of_spec = function
  | Synthetic { nodes; power; bandwidth; heterogeneous; seed } ->
      Json.Obj
        [
          ( "synthetic",
            Json.Obj
              [
                ("nodes", Json.Int nodes);
                ("power", Json.Float power);
                ("bandwidth", Json.Float bandwidth);
                ("heterogeneous", Json.Bool heterogeneous);
                ("seed", Json.Int seed);
              ] );
        ]
  | Catalog text -> Json.Obj [ ("catalog", Json.String text) ]

let json_of_demand = function
  | None -> Json.Null
  | Some r -> Json.Float r

let json_of_request = function
  | Plan { spec; dgemm; demand; strategy; use_cache } ->
      ( "plan",
        Json.Obj
          [
            ("platform", json_of_spec spec);
            ("dgemm", Json.Int dgemm);
            ("demand", json_of_demand demand);
            ("strategy", Json.String strategy);
            ("use_cache", Json.Bool use_cache);
          ] )
  | Replan { r_spec; r_dgemm; r_demand; r_strategy; r_failed } ->
      ( "replan",
        Json.Obj
          [
            ("platform", json_of_spec r_spec);
            ("dgemm", Json.Int r_dgemm);
            ("demand", json_of_demand r_demand);
            ("strategy", Json.String r_strategy);
            ("failed", Json.List (List.map (fun i -> Json.Int i) r_failed));
          ] )
  | Observe { o_spec; o_dgemm; o_demand; o_strategy; o_seed; o_clients; o_warmup; o_duration }
    ->
      ( "observe",
        Json.Obj
          [
            ("platform", json_of_spec o_spec);
            ("dgemm", Json.Int o_dgemm);
            ("demand", json_of_demand o_demand);
            ("strategy", Json.String o_strategy);
            ("seed", Json.Int o_seed);
            ("clients", Json.Int o_clients);
            ("warmup", Json.Float o_warmup);
            ("duration", Json.Float o_duration);
          ] )
  | Stats -> ("stats", Json.Obj [])
  | Trace_dump -> ("trace", Json.Obj [])
  | Otlp_dump -> ("otlp", Json.Obj [])

(* The canonical encoding doubles as the cache/coalescing identity:
   equal specs encode equally (deterministic member order), and a
   catalog digest covers exactly the platform text. *)
let spec_digest spec = Digest.to_hex (Digest.string (Json.to_string (json_of_spec spec)))

let encode_request { id; trace; request } =
  let method_, params = json_of_request request in
  Json.to_string
    (Json.Obj
       (("id", Json.Int id)
        :: (match trace with
           | None -> []  (* absent, not null: old servers never see it *)
           | Some tid -> [ ("trace", Json.Int tid) ])
       @ [ ("method", Json.String method_); ("params", params) ]))

let error_kind_fields = function
  | Parse_error -> ("parse-error", "request payload is not valid JSON")
  | Invalid_request -> ("invalid-request", "payload is not a request envelope")
  | Unknown_method m -> ("unknown-method", Printf.sprintf "unknown method %S" m)
  | Invalid_params msg -> ("invalid-params", msg)
  | Plan_failed msg -> ("plan-failed", msg)

(* Non-finite floats would encode as JSON null and decode as absent;
   clamp at the codec boundary so the fixpoint holds for every value a
   misbehaving clock could produce. *)
let finite v = if Float.is_finite v then v else 0.0

let json_of_live l =
  Json.Obj
    ([
      ("uptime_seconds", Json.Float (finite l.uptime_seconds));
      ("latency_p50", Json.Float (finite l.latency_p50));
      ("latency_p99", Json.Float (finite l.latency_p99));
      ("cache_hit_ratio", Json.Float (finite l.cache_hit_ratio));
      ("gc_pause_p99", Json.Float (finite l.gc_pause_p99));
      ( "domain_busy",
        Json.List (List.map (fun v -> Json.Float (finite v)) l.domain_busy) );
      ("traces_sampled", Json.Int l.traces_sampled);
      ( "firing_alerts",
        Json.List
          (List.map
             (fun (name, severity) ->
               Json.Obj
                 [
                   ("name", Json.String name);
                   ("severity", Json.String severity);
                 ])
             l.firing_alerts) );
    ]
    @
    (* absent when empty, like the trace member on envelopes: clients
       predating per-connection aggregation never see it *)
    match l.connections with
    | [] -> []
    | conns ->
        [
          ( "connections",
            Json.List
              (List.map
                 (fun c ->
                   Json.Obj
                     [
                       ("id", Json.Int c.conn_id);
                       ("requests", Json.Int c.conn_requests);
                       ("spans", Json.Int c.conn_spans);
                       ("seconds", Json.Float (finite c.conn_seconds));
                     ])
                 conns) );
        ])

let json_of_stats s =
  Json.Obj
    ([
       ( "requests",
         Json.Obj
           [
             ("plan", Json.Int s.plan_requests);
             ("replan", Json.Int s.replan_requests);
             ("observe", Json.Int s.observe_requests);
             ("stats", Json.Int s.stats_requests);
           ] );
       ("errors", Json.Int s.errors);
       ( "cache",
         Json.Obj
           [
             ("hits", Json.Int s.cache_hits);
             ("misses", Json.Int s.cache_misses);
             ("evictions", Json.Int s.cache_evictions);
             ("invalidations", Json.Int s.cache_invalidations);
           ] );
       ("coalesced", Json.Int s.coalesced);
       ("workers", Json.Int s.workers);
     ]
    @ match s.live with None -> [] | Some l -> [ ("live", json_of_live l) ])

let encode_reply { reply_id; response } =
  let body =
    match response with
    | Plan_ok { text; rho; nodes_used; cached } ->
        ( "ok",
          Json.Obj
            [
              ("text", Json.String text);
              ("rho", Json.Float rho);
              ("nodes_used", Json.Int nodes_used);
              ("cached", Json.Bool cached);
            ] )
    | Replan_ok { text; rho_after } ->
        ( "ok",
          Json.Obj
            [ ("text", Json.String text); ("rho_after", Json.Float rho_after) ] )
    | Observe_ok { text; throughput } ->
        ( "ok",
          Json.Obj
            [ ("text", Json.String text); ("throughput", Json.Float throughput) ]
        )
    | Stats_ok s -> ("ok", json_of_stats s)
    | Trace_ok { chrome } -> ("ok", Json.Obj [ ("chrome", Json.String chrome) ])
    | Otlp_ok { otlp } -> ("ok", Json.Obj [ ("otlp", Json.String otlp) ])
    | Error kind ->
        let k, msg = error_kind_fields kind in
        ("error", Json.Obj [ ("kind", Json.String k); ("message", Json.String msg) ])
  in
  let tag, payload = body in
  Json.to_string (Json.Obj [ ("id", Json.Int reply_id); (tag, payload) ])

(* ---------- decoding ---------- *)

let ( let* ) = Result.bind

(* [Stdlib.Error] throughout: the [response] type's [Error] constructor
   shadows the result one in this scope. *)
let field name conv j ~default =
  match Json.member name j with
  | None | Some Json.Null -> (
      match default with
      | Some d -> Ok d
      | None -> Stdlib.Error (Printf.sprintf "missing field %S" name))
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Stdlib.Error (Printf.sprintf "field %S has the wrong type" name))

let decode_spec j =
  match Json.member "platform" j with
  | None -> Stdlib.Error "missing field \"platform\""
  | Some p -> (
      match (Json.member "synthetic" p, Json.member "catalog" p) with
      | Some s, None ->
          let* nodes = field "nodes" Json.to_int s ~default:(Some 50) in
          let* power = field "power" Json.to_float s ~default:(Some 730.0) in
          let* bandwidth =
            field "bandwidth" Json.to_float s ~default:(Some 1000.0)
          in
          let* heterogeneous =
            field "heterogeneous" Json.to_bool s ~default:(Some false)
          in
          let* seed = field "seed" Json.to_int s ~default:(Some 42) in
          Ok (Synthetic { nodes; power; bandwidth; heterogeneous; seed })
      | None, Some c -> (
          match Json.to_string_v c with
          | Some text -> Ok (Catalog text)
          | None -> Stdlib.Error "field \"catalog\" must be a string")
      | Some _, Some _ ->
          Stdlib.Error "platform is either synthetic or catalog, not both"
      | None, None -> Stdlib.Error "platform needs a synthetic or catalog member")

let decode_common j =
  let* spec = decode_spec j in
  let* dgemm = field "dgemm" Json.to_int j ~default:(Some 310) in
  let* demand =
    field
      (* [None] and JSON null both mean unbounded *)
      "demand"
      (fun v -> Option.map Option.some (Json.to_float v))
      j ~default:(Some None)
  in
  let* strategy = field "strategy" Json.to_string_v j ~default:(Some "heuristic") in
  Ok (spec, dgemm, demand, strategy)

let decode_params method_ params =
  match method_ with
  | "plan" ->
      let* spec, dgemm, demand, strategy = decode_common params in
      let* use_cache = field "use_cache" Json.to_bool params ~default:(Some true) in
      Ok (Plan { spec; dgemm; demand; strategy; use_cache })
  | "replan" ->
      let* r_spec, r_dgemm, r_demand, r_strategy = decode_common params in
      let* r_failed =
        field "failed"
          (fun v ->
            Option.bind (Json.to_list v) (fun items ->
                let ids = List.filter_map Json.to_int items in
                if List.length ids = List.length items then Some ids else None))
          params ~default:None
      in
      Ok (Replan { r_spec; r_dgemm; r_demand; r_strategy; r_failed })
  | "observe" ->
      let* o_spec, o_dgemm, o_demand, o_strategy = decode_common params in
      let* o_seed = field "seed" Json.to_int params ~default:(Some 42) in
      let* o_clients = field "clients" Json.to_int params ~default:(Some 100) in
      let* o_warmup = field "warmup" Json.to_float params ~default:(Some 2.0) in
      let* o_duration = field "duration" Json.to_float params ~default:(Some 4.0) in
      Ok
        (Observe
           { o_spec; o_dgemm; o_demand; o_strategy; o_seed; o_clients; o_warmup;
             o_duration })
  | "stats" -> Ok Stats
  | "trace" -> Ok Trace_dump
  | "otlp" -> Ok Otlp_dump
  | other -> Stdlib.Error (Printf.sprintf "unknown method %S" other)

type decoded = Request of envelope | Bad of int option * error_kind

let decode_request payload =
  match Json.of_string payload with
  | Error _ -> Bad (None, Parse_error)
  | Ok j -> (
      let id = Option.bind (Json.member "id" j) Json.to_int in
      match (id, Option.bind (Json.member "method" j) Json.to_string_v) with
      | None, _ | _, None -> Bad (id, Invalid_request)
      | Some id, Some method_ ->
          if
            not
              (List.mem method_
                 [ "plan"; "replan"; "observe"; "stats"; "trace"; "otlp" ])
          then Bad (Some id, Unknown_method method_)
          else
            (* Absent or non-integer trace context degrades to "no
               trace" — a malformed trace id must never reject an
               otherwise valid request. *)
            let trace = Option.bind (Json.member "trace" j) Json.to_int in
            let params =
              Option.value ~default:(Json.Obj []) (Json.member "params" j)
            in
            (match decode_params method_ params with
            | Ok request -> Request { id; trace; request }
            | Stdlib.Error msg -> Bad (Some id, Invalid_params msg)))

(* Tolerant by construction: each member defaults independently, so a
   newer server can grow the live block without breaking this client. *)
let decode_live j =
  let num name d =
    Option.value ~default:d (Option.bind (Json.member name j) Json.to_float)
  in
  let domain_busy =
    match Option.bind (Json.member "domain_busy" j) Json.to_list with
    | None -> []
    | Some items -> List.filter_map Json.to_float items
  in
  let firing_alerts =
    match Option.bind (Json.member "firing_alerts" j) Json.to_list with
    | None -> []
    | Some items ->
        List.filter_map
          (fun a ->
            match
              ( Option.bind (Json.member "name" a) Json.to_string_v,
                Option.bind (Json.member "severity" a) Json.to_string_v )
            with
            | Some name, Some severity -> Some (name, severity)
            | _ -> None)
          items
  in
  let connections =
    match Option.bind (Json.member "connections" j) Json.to_list with
    | None -> []
    | Some items ->
        List.filter_map
          (fun c ->
            match Option.bind (Json.member "id" c) Json.to_int with
            | None -> None
            | Some conn_id ->
                let int name d =
                  Option.value ~default:d
                    (Option.bind (Json.member name c) Json.to_int)
                in
                Some
                  {
                    conn_id;
                    conn_requests = int "requests" 0;
                    conn_spans = int "spans" 0;
                    conn_seconds =
                      Option.value ~default:0.0
                        (Option.bind (Json.member "seconds" c) Json.to_float);
                  })
          items
  in
  {
    uptime_seconds = num "uptime_seconds" 0.0;
    latency_p50 = num "latency_p50" 0.0;
    latency_p99 = num "latency_p99" 0.0;
    cache_hit_ratio = num "cache_hit_ratio" 0.0;
    gc_pause_p99 = num "gc_pause_p99" 0.0;
    domain_busy;
    traces_sampled =
      Option.value ~default:0
        (Option.bind (Json.member "traces_sampled" j) Json.to_int);
    firing_alerts;
    connections;
  }

let decode_stats j =
  let req name =
    Option.bind (Json.member "requests" j) (fun r ->
        Option.bind (Json.member name r) Json.to_int)
  in
  let cache name =
    Option.bind (Json.member "cache" j) (fun c ->
        Option.bind (Json.member name c) Json.to_int)
  in
  let top name = Option.bind (Json.member name j) Json.to_int in
  match
    ( req "plan",
      req "replan",
      req "observe",
      req "stats",
      top "errors",
      cache "hits",
      cache "misses",
      cache "evictions",
      cache "invalidations",
      top "coalesced",
      top "workers" )
  with
  | ( Some plan_requests,
      Some replan_requests,
      Some observe_requests,
      Some stats_requests,
      Some errors,
      Some cache_hits,
      Some cache_misses,
      Some cache_evictions,
      Some cache_invalidations,
      Some coalesced,
      Some workers ) ->
      Some
        {
          plan_requests;
          replan_requests;
          observe_requests;
          stats_requests;
          errors;
          cache_hits;
          cache_misses;
          cache_evictions;
          cache_invalidations;
          coalesced;
          workers;
          live = Option.map decode_live (Json.member "live" j);
        }
  | _ -> None

let error_kind_of_wire kind msg =
  match kind with
  | "parse-error" -> Some Parse_error
  | "invalid-request" -> Some Invalid_request
  | "unknown-method" -> (
      (* message shape: unknown method "<name>" *)
      match String.index_opt msg '"' with
      | Some i when String.length msg > i + 1 -> (
          match String.index_from_opt msg (i + 1) '"' with
          | Some j -> Some (Unknown_method (String.sub msg (i + 1) (j - i - 1)))
          | None -> Some (Unknown_method msg))
      | _ -> Some (Unknown_method msg))
  | "invalid-params" -> Some (Invalid_params msg)
  | "plan-failed" -> Some (Plan_failed msg)
  | _ -> None

let decode_reply payload =
  match Json.of_string payload with
  | Error e -> Result.Error ("reply is not JSON: " ^ e)
  | Ok j -> (
      match Option.bind (Json.member "id" j) Json.to_int with
      | None -> Result.Error "reply has no id"
      | Some reply_id -> (
          match (Json.member "ok" j, Json.member "error" j) with
          | Some ok, None -> (
              let str name = Option.bind (Json.member name ok) Json.to_string_v in
              let num name = Option.bind (Json.member name ok) Json.to_float in
              let int name = Option.bind (Json.member name ok) Json.to_int in
              let bool name = Option.bind (Json.member name ok) Json.to_bool in
              match (str "text", num "rho", int "nodes_used", bool "cached") with
              | Some text, Some rho, Some nodes_used, Some cached ->
                  Result.Ok
                    { reply_id;
                      response = Plan_ok { text; rho; nodes_used; cached } }
              | _ -> (
                  match (str "text", num "rho_after") with
                  | Some text, Some rho_after ->
                      Result.Ok
                        { reply_id; response = Replan_ok { text; rho_after } }
                  | _ -> (
                      match (str "text", num "throughput") with
                      | Some text, Some throughput ->
                          Result.Ok
                            { reply_id;
                              response = Observe_ok { text; throughput } }
                      | _ -> (
                          match str "chrome" with
                          | Some chrome ->
                              Result.Ok
                                { reply_id; response = Trace_ok { chrome } }
                          | None -> (
                              match str "otlp" with
                              | Some otlp ->
                                  Result.Ok
                                    { reply_id; response = Otlp_ok { otlp } }
                              | None -> (
                                  match decode_stats ok with
                                  | Some s ->
                                      Result.Ok
                                        { reply_id; response = Stats_ok s }
                                  | None ->
                                      Result.Error "unrecognized ok payload"))))))
          | None, Some err -> (
              match
                ( Option.bind (Json.member "kind" err) Json.to_string_v,
                  Option.bind (Json.member "message" err) Json.to_string_v )
              with
              | Some kind, Some msg -> (
                  match error_kind_of_wire kind msg with
                  | Some k -> Result.Ok { reply_id; response = Error k }
                  | None -> Result.Error ("unknown error kind " ^ kind))
              | _ -> Result.Error "malformed error payload")
          | _ -> Result.Error "reply needs exactly one of ok/error"))
