(** A fixed pool of OCaml 5 worker domains with futures.

    Domains are heavyweight (one runtime each), so the pool is sized
    once at server start and every unit of CPU work goes through
    {!submit}.  Tasks must not await other tasks of the same pool: a
    worker blocked in {!await} runs nothing else meanwhile. *)

type t

val create : ?workers:int -> unit -> t
(** Spawn the worker domains.  Default:
    [Domain.recommended_domain_count () - 1] (the caller's domain keeps
    one), at least 1.  Workers block SIGINT and SIGTERM, so those
    signals always reach a thread outside the pool. *)

val size : t -> int
(** Number of worker domains. *)

val busy_seconds : t -> float array
(** Cumulative wall seconds each worker domain has spent running task
    bodies, indexed by worker.  Monotone; the scrape loop differences
    consecutive snapshots into per-domain busy ratios.  Safe to call
    from any domain. *)

type 'a future

val submit : ?on_resolve:(unit -> unit) -> t -> (unit -> 'a) -> 'a future
(** Enqueue.  Tasks start in submission order.  A task submitted after
    {!shutdown} runs inline on the submitting domain — a draining pool
    never loses work.

    [on_resolve] fires on the running domain {e after} the future is
    resolved — including when the task raises.  Use it for wakeup
    notifications (e.g. poking an event loop's pipe): firing before
    resolution would let the observer consume the wakeup, read the
    future as pending, and sleep forever.  Exceptions from the hook are
    swallowed. *)

val await : 'a future -> 'a
(** Block until resolved.  Re-raises (with backtrace) if the task
    raised. *)

val is_resolved : 'a future -> bool
(** Non-blocking completion check. *)

val shutdown : t -> unit
(** Stop accepting queued work, finish what is queued, join the
    domains.  Idempotent. *)
