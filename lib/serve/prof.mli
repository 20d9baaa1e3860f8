(** Wall-clock stage samples collected while computing one request.

    Worker domains cannot touch the event loop's span store (it is
    single-writer), so the work closure collects raw [(stage, start,
    stop)] samples here and the event loop converts them into
    {!Adept_obs.Request_trace} spans at reap time.  One request runs on
    one worker domain, and the event loop reads the samples only after
    the request's future resolved, so no lock is needed.

    Every helper accepts [t option] and is a no-op on [None], so the
    untraced path stays zero-cost (no clock reads, no allocation). *)

type sample = {
  ps_stage : Adept_obs.Request_trace.stage;
  ps_start : float;
  ps_stop : float;
}

type t

val create : now:(unit -> float) -> t
(** [now] must be safe to call from any domain (a raw wall reader, not
    a clamping {!Adept_obs.Clock}). *)

val time : t option -> stage:Adept_obs.Request_trace.stage -> (unit -> 'a) -> 'a
(** Run the thunk, recording one sample around it (exceptions
    propagate; the sample is still recorded). *)

val samples : t -> sample list
(** Samples in recording order. *)

val graft :
  t ->
  Adept_obs.Request_trace.t ->
  Adept_obs.Request_trace.handle ->
  parent:int ->
  int
(** Append the samples to a sampled request's chain, in recording
    order, starting from span [parent]; returns the last span's id
    ([parent] when there are none). *)
