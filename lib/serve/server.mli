(** The long-lived planning server.

    One event-loop domain multiplexes connections over [Unix.select]; a
    {!Domain_pool} of worker domains runs the planning and simulation; a
    {!Cache} answers repeated plan queries without replanning.  Requests
    identical to one already in flight coalesce onto it instead of
    planning twice.  See docs/SERVE.md for the protocol and the
    operational story. *)

type address = Unix_socket of string | Tcp of string * int

val address_of_string : string -> (address, string) result
(** ["unix:<path>"], ["tcp:<host>:<port>"], or a bare path (Unix
    socket). *)

val address_to_string : address -> string

(** Where the scrape-cadence OTLP push goes: an atomically-rewritten
    file, or one short-lived TCP connection per push. *)
type otlp_sink = Otlp_file of string | Otlp_tcp of string * int

val otlp_sink_of_string : string -> (otlp_sink, string) result
(** ["tcp:<host>:<port>"], or any other non-empty string as a file
    path. *)

val otlp_sink_to_string : otlp_sink -> string

(** Wall-clock observability for a serving process.  The hard
    invariant: observability never changes answers — responses are
    byte-identical with it on or off, and trace sampling is a
    deterministic hash of the client-sent trace id (no RNG). *)
type obs_config = {
  clock : Adept_obs.Clock.t;
      (** The one [now] provider for spans, scrapes, alerts and the
          access log.  [Clock.source Unix.gettimeofday] for real
          serving; a manual clock turns the scrape loop event-driven
          (deterministic tests). *)
  trace_sample_rate : float;  (** Fraction of trace ids sampled, [0, 1]. *)
  trace_slowest : int;  (** Slowest-N exemplar traces retained. *)
  rules : Adept_obs.Rule.t list;  (** Alert rules over the serve metrics. *)
  scrape_interval : float;  (** Seconds between registry scrapes. *)
  retention : float;  (** Time-series retention window, seconds. *)
  access_log : string option;  (** JSONL per-request log path (append). *)
  prom_path : string option;
      (** Re-written atomically on every scrape and at teardown, so an
          external scraper (or CI) can read a mid-run snapshot. *)
  runtime_events : bool;
      (** Consume the OCaml runtime's event ring into
          [adept_runtime_gc_pause_seconds]. *)
  journal_dir : string option;
      (** Flight-recorder directory ({!Adept_obs.Journal}); [None]
          disables the recorder.  A failed open logs a warning and
          serves without it — recording never blocks serving. *)
  journal_segment_bytes : int;  (** Rotate segments past this size. *)
  journal_max_segments : int;  (** Oldest segments pruned beyond this. *)
  otlp : otlp_sink option;
      (** Push an OTLP/JSON document (spans + metrics) on every scrape
          tick and at teardown; export failures warn and continue. *)
}

val default_obs : unit -> obs_config
(** Wall clock, sample everything, 32 exemplars, {!default_rules}, 1 s
    scrapes, 300 s retention, no access log, no scrape file, runtime
    events on, no flight recorder (4 MiB × 8 segments when enabled),
    no OTLP sink. *)

val default_rules_text : string
(** The built-in alert rules in {!Adept_obs.Rule.parse} syntax: p99
    latency, queue depth, cache hit-ratio floor, and a two-window cache
    miss burn rate. *)

val default_rules : unit -> Adept_obs.Rule.t list

type config = {
  address : address;
  workers : int option;
      (** Worker domains; default [Domain.recommended_domain_count - 1]. *)
  cache_capacity : int;  (** Plan cache entries (LRU). *)
  max_requests : int option;
      (** Drain and exit after this many dispatched requests — lets
          tests and CI run a server with a bounded lifetime. *)
  registry : Adept_obs.Registry.t option;
      (** Metrics destination ([adept_serve_*]); a private registry is
          created when absent. *)
  obs : obs_config option;
      (** [None] (the default) serves exactly as before observability
          existed: no clock reads on the request path, select blocks
          indefinitely, stats carry no live block. *)
}

val default_config : address -> config
(** Defaults: pool-sized workers, 128 cache entries, no request bound,
    private registry, observability off. *)

val run : config -> unit
(** Bind, serve, block until drained (SIGINT/SIGTERM or
    [max_requests]), then tear down: listener closed, in-flight
    requests answered, connections closed, worker domains joined, Unix
    socket path removed. *)

type t

val create : config -> t
(** Install the SIGINT/SIGTERM drain handlers, spawn the worker pool
    and bind the listener, without serving yet.  A signal that arrives
    from here on drains the server once {!serve} runs.  Raises
    [Unix.Unix_error] when the address cannot be bound,
    [Invalid_argument] on an invalid [obs] rule set. *)

val registry : t -> Adept_obs.Registry.t
(** The server's metrics registry (the configured one, or the private
    registry created in its absence). *)

val serve : t -> unit
(** The blocking loop of {!run} on an already-created server. *)

val stop : t -> unit
(** Request a drain (from a signal handler or another thread): {!serve}
    finishes in-flight work, answers it, and returns.  On OCaml 5.1,
    run the server in its own process rather than on a sibling thread
    of blocking client calls — see the runtime note in docs/SERVE.md. *)
