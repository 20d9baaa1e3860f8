(* A fixed pool of worker domains with a shared run queue and futures.

   OCaml 5 domains are heavyweight (one runtime per domain), so the pool
   is sized once at server start — never per request — and every unit of
   CPU work (one whole request) goes through [submit].  Tasks do not
   submit tasks, so [await] is a plain wait on the future. *)

type t = {
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
  mutable domains : unit Domain.t array;
  workers : int;
  (* Wall seconds each worker spent inside task bodies.  One writer per
     cell; [Atomic] so the event-loop domain reads torn-free. *)
  busy : float Atomic.t array;
}

type 'a state = Pending | Done of 'a | Raised of exn * Printexc.raw_backtrace

type 'a future = {
  mutable state : 'a state;
  fm : Mutex.t;
  resolved : Condition.t;
}

let worker_loop t idx () =
  (* SIGINT/SIGTERM belong to the thread that spawned the pool (a
     server's event loop): blocked here, the kernel never hands one to
     a worker parked in [Condition.wait], where it would wake nothing,
     and OCaml runs their handlers on the spawning domain only. *)
  ignore (Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigint; Sys.sigterm ]);
  let rec go () =
    Mutex.lock t.mutex;
    let rec wait () =
      match Queue.take_opt t.queue with
      | Some task ->
          Mutex.unlock t.mutex;
          let started = Unix.gettimeofday () in
          task ();
          Atomic.set t.busy.(idx)
            (Atomic.get t.busy.(idx) +. (Unix.gettimeofday () -. started));
          true
      | None ->
          if t.closed then begin
            Mutex.unlock t.mutex;
            false
          end
          else begin
            Condition.wait t.nonempty t.mutex;
            wait ()
          end
    in
    if wait () then go ()
  in
  go ()

let create ?workers () =
  let workers =
    match workers with
    | Some w -> max 1 w
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  let t =
    {
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      closed = false;
      domains = [||];
      workers;
      busy = Array.init workers (fun _ -> Atomic.make 0.0);
    }
  in
  t.domains <- Array.init workers (fun i -> Domain.spawn (worker_loop t i));
  t

let size t = t.workers

let busy_seconds t = Array.map Atomic.get t.busy

let submit ?on_resolve t f =
  let fut = { state = Pending; fm = Mutex.create (); resolved = Condition.create () } in
  let run () =
    let outcome =
      match f () with
      | v -> Done v
      | exception e -> Raised (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock fut.fm;
    fut.state <- outcome;
    Condition.broadcast fut.resolved;
    Mutex.unlock fut.fm;
    (* Only after the future is visibly resolved: a notification hook
       that fires before resolution (or not at all, when [f] raises) is
       a lost wakeup — an observer can consume it, find the future still
       pending, and then sleep forever. *)
    match on_resolve with
    | None -> ()
    | Some g -> ( try g () with _ -> ())
  in
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    (* A draining pool accepts no new work; run inline so shutdown can
       never lose a task. *)
    run ()
  end
  else begin
    Queue.push run t.queue;
    Condition.signal t.nonempty;
    Mutex.unlock t.mutex
  end;
  fut

let peek fut =
  Mutex.lock fut.fm;
  let s = fut.state in
  Mutex.unlock fut.fm;
  s

let await fut =
  Mutex.lock fut.fm;
  while fut.state = Pending do
    Condition.wait fut.resolved fut.fm
  done;
  let s = fut.state in
  Mutex.unlock fut.fm;
  match s with
  | Done v -> v
  | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let is_resolved fut = peek fut <> Pending

let shutdown t =
  Mutex.lock t.mutex;
  if not t.closed then begin
    t.closed <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.domains
  end
  else Mutex.unlock t.mutex
