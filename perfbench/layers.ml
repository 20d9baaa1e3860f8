(* In-process timing of adept's layers, from the benchmark's own code.

   Each function here calls one layer's public functions on the
   workload's own requests and times the calls.  Nothing in adept is
   instrumented: the spans are opened and closed around the calls, in a
   {!Spans} store shared with the served run.

   Order matters to the caller: everything except {!domain_pool} must run
   before the process creates a domain, since an idle worker domain alone
   slows in-process planning. *)

module P = Adept_serve.Protocol
module Render = Adept_serve.Render
module Cache = Adept_serve.Cache
module Wire = Adept_serve.Wire
module Domain_pool = Adept_serve.Domain_pool
module H = Adept.Heuristic

let now = Clock.now

(* Seconds per call of [f ()] over a batch sized to last at least
   [min_s]; the median of [rounds] such batches. *)
let per_call ?(rounds = 5) ?(min_s = 0.02) f =
  let reps =
    let t0 = now () in
    f ();
    let once = Float.max 1e-7 (now () -. t0) in
    max 1 (int_of_float (min_s /. once))
  in
  Stat.median
    (List.init rounds (fun _ ->
         let t0 = now () in
         for _ = 1 to reps do
           f ()
         done;
         (now () -. t0) /. float_of_int reps))

(* ---------- the server's handler, replayed ---------- *)

(* One request as the server would handle it: decode, look up the cache
   key, probe the cache, plan/replan/observe on a miss (the part a worker
   domain does), encode the reply. *)
type handled = {
  payload : string;  (** request frame payload *)
  reply : string;  (** reply frame payload *)
  key : (string * string * float * float option) option;  (** cache key of a plan *)
  loop_s : float;  (** event-loop share of the handler *)
  worker_s : float;  (** worker share: 0 on a cache hit *)
}

type replay = { handled : handled array; cache : Cache.t }

let plan_key (p : P.plan_params) =
  match Render.wapp_of_dgemm p.P.dgemm with
  | Ok wapp -> Some (P.spec_digest p.P.spec, p.P.strategy, wapp, p.P.demand)
  | Error _ -> None

let fail_on_error what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* Serve [warm] then [n] requests of the workload's stream in-process,
   through a cache of the server's default capacity that the workload's
   priming requests filled first.  Only the last [n] are kept: the first
   bring the cache to the state the served window sees. *)
let replay_handler (w : Workload.t) ~warm ~n ~spans =
  let cache = Cache.create ~capacity:128 () in
  let serve ~req payload =
    let t0 = now () in
    let worker = ref 0. and key = ref None in
    let reply =
      Spans.time spans ~req ~parent:(-1) "server.handler" (fun root ->
          let step name f = Spans.time spans ~req ~parent:root name (fun _ -> f ()) in
          let work name f =
            let t = now () in
            let r = fail_on_error name (step name f) in
            worker := !worker +. (now () -. t);
            r
          in
          let env =
            step "protocol.decode_request" (fun () ->
                match P.decode_request payload with P.Request e -> e | P.Bad _ -> failwith "undecodable request")
          in
          let response =
            match env.P.request with
            | P.Plan p -> (
                key := plan_key p;
                let digest, strategy, wapp, demand = Option.get !key in
                match step "cache.find" (fun () -> Cache.find cache ~digest ~strategy ~wapp ~demand) with
                | Some e ->
                    P.Plan_ok { text = e.Cache.text; rho = e.Cache.rho; nodes_used = e.Cache.nodes_used; cached = true }
                | None ->
                    let text, rho, nodes_used = work "worker.plan" (fun () -> Render.plan p) in
                    Cache.add cache ~digest ~strategy ~wapp ~demand { Cache.text; rho; nodes_used };
                    P.Plan_ok { text; rho; nodes_used; cached = false })
            | P.Replan r ->
                let text, rho_after = work "worker.replan" (fun () -> Render.replan r) in
                ignore (Cache.invalidate_platform cache ~digest:(P.spec_digest r.P.r_spec));
                P.Replan_ok { text; rho_after }
            | P.Observe o ->
                let text, throughput = work "worker.observe" (fun () -> Render.observe o) in
                P.Observe_ok { text; throughput }
            | _ -> failwith "not a planning request"
          in
          step "protocol.encode_reply" (fun () -> P.encode_reply { P.reply_id = env.P.id; response }))
    in
    let total = now () -. t0 in
    { payload; reply; key = !key; loop_s = total -. !worker; worker_s = !worker }
  in
  (* Request ids of the replay: its position, priming included, past
     the served run's stream indices. *)
  let position = ref 1_000_000_000 in
  let serve_next req =
    incr position;
    serve ~req:!position (P.encode_request { P.id = !position; trace = None; request = req })
  in
  List.iter (fun req -> ignore (serve_next req)) (Workload.priming w);
  for _ = 1 to warm do
    ignore (serve_next (Workload.next w))
  done;
  let handled = Array.init n (fun _ -> serve_next (Workload.next w)) in
  { handled; cache }

(* ---------- codec, cache probe and frame I/O micro-timings ---------- *)

let decode_request_s r =
  per_call (fun () -> Array.iter (fun h -> ignore (P.decode_request h.payload)) r.handled)
  /. float_of_int (Array.length r.handled)

let encode_reply_s r =
  let replies =
    Array.map
      (fun h -> match P.decode_reply h.reply with Ok rep -> rep | Error e -> failwith e)
      r.handled
  in
  per_call (fun () -> Array.iter (fun rep -> ignore (P.encode_reply rep)) replies)
  /. float_of_int (Array.length replies)

(* [None] when the workload sends no plan requests. *)
let cache_find_s r =
  let keys = Array.of_list (List.filter_map (fun h -> h.key) (Array.to_list r.handled)) in
  if keys = [||] then None
  else
    Some
      (per_call (fun () ->
           Array.iter
             (fun (digest, strategy, wapp, demand) -> ignore (Cache.find r.cache ~digest ~strategy ~wapp ~demand))
             keys)
      /. float_of_int (Array.length keys))

(* The event loop's own frame I/O per request, over a socket pair: wait
   for readability, read and frame the request, write the reply.  The
   peer's writes and reads stay outside the timing. *)
let loop_io_s r =
  let server, client = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let buf = Bytes.create 65536 in
  let reader = Wire.reader () in
  let one h =
    Wire.write_frame client h.payload;
    let t0 = now () in
    ignore (Unix.select [ server ] [] [] 1.0);
    let rec frame () =
      match Wire.step reader with
      | Wire.Frame _ -> ()
      | Wire.Need_more | Wire.Oversized _ ->
          let k = Unix.read server buf 0 (Bytes.length buf) in
          Wire.feed reader (Bytes.unsafe_to_string buf) 0 k;
          frame ()
    in
    frame ();
    Wire.write_frame server h.reply;
    let dt = now () -. t0 in
    ignore (Wire.read_frame client);
    dt
  in
  let sample = Array.sub r.handled 0 (min 256 (Array.length r.handled)) in
  let times = List.concat (List.init 8 (fun _ -> Array.to_list (Array.map one sample))) in
  Unix.close server;
  Unix.close client;
  Stat.median times

(* ---------- planner layers ---------- *)

type planner = {
  build_s : float;  (** per plan *)
  pool_s : float;
  probes : float;  (** per plan *)
  feasible_ratio : float;
  probe_s : float;  (** per probe *)
  rho_calls : float;  (** per plan *)
  rho_s : float;  (** per call *)
  render_s : float;  (** per plan *)
  total_s : float;  (** per plan: [Render.plan], as a worker runs it *)
  unattributed_s : float;
  minor_words : float;  (** per plan, over [Render.plan] *)
  minor_collections : float;
  major_collections : float;
}

(* Replay each plan request layer by layer — platform build, node pool,
   every bisection probe [Heuristic.plan] recorded, an Eq. 16 evaluation
   of every probe tree, text rendering — then as one [Render.plan] call,
   the total the parts are set against, with the GC's counters read
   around it. *)
let planner (plans : P.plan_params list) ~spans =
  let params = Render.params in
  let build = ref 0. and pool_t = ref 0. and probes = ref 0 and feasible = ref 0 in
  let probe_t = ref 0. and rho_calls = ref 0 and rho_t = ref 0. and render_t = ref 0. in
  let total = ref 0. and minor_words = ref 0. and minor = ref 0 and major = ref 0 in
  List.iteri
    (fun i (p : P.plan_params) ->
      let req = 2_000_000_000 + i in
      Spans.time spans ~req ~parent:(-1) "replay.plan" (fun root ->
          let timed acc name f =
            let t0 = now () in
            let r = Spans.time spans ~req ~parent:root name (fun _ -> f ()) in
            acc := !acc +. (now () -. t0);
            r
          in
          let platform =
            timed build "platform.build" (fun () -> fail_on_error "platform" (Render.platform_of_spec p.P.spec))
          in
          let wapp = fail_on_error "workload" (Render.wapp_of_dgemm p.P.dgemm) in
          let demand = Render.demand_of p.P.demand in
          let pool = timed pool_t "node_pool.create" (fun () -> Option.get (H.pool_of params ~platform ~wapp)) in
          let result = fail_on_error "heuristic" (H.plan params ~platform ~wapp ~demand) in
          List.iter
            (fun (pr : H.probe) ->
              incr probes;
              if pr.H.feasible then incr feasible;
              match timed probe_t "heuristic.probe" (fun () -> H.probe params pool ~target:pr.H.target) with
              | None -> ()
              | Some tree ->
                  incr rho_calls;
                  ignore (timed rho_t "evaluate.rho" (fun () -> Adept.Evaluate.rho_on params ~platform ~wapp tree)))
            result.H.probes;
          let plan = fail_on_error "plan" (Render.run_plan Adept.Planner.Heuristic ~platform ~wapp ~demand) in
          ignore (timed render_t "render.text" (fun () -> Render.plan_text ~platform ~wapp plan)));
      let g0 = Gc.quick_stat () in
      let t0 = now () in
      ignore (fail_on_error "plan" (Spans.time spans ~req ~parent:(-1) "render.plan" (fun _ -> Render.plan p)));
      total := !total +. (now () -. t0);
      let g1 = Gc.quick_stat () in
      minor_words := !minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
      minor := !minor + (g1.Gc.minor_collections - g0.Gc.minor_collections);
      major := !major + (g1.Gc.major_collections - g0.Gc.major_collections))
    plans;
  let n = float_of_int (List.length plans) in
  let per_plan x = x /. n and ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let parts = !build +. !pool_t +. !probe_t +. !rho_t +. !render_t in
  {
    build_s = per_plan !build;
    pool_s = per_plan !pool_t;
    probes = per_plan (float_of_int !probes);
    feasible_ratio = ratio !feasible !probes;
    probe_s = (if !probes = 0 then 0. else !probe_t /. float_of_int !probes);
    rho_calls = per_plan (float_of_int !rho_calls);
    rho_s = (if !rho_calls = 0 then 0. else !rho_t /. float_of_int !rho_calls);
    render_s = per_plan !render_t;
    total_s = per_plan !total;
    unattributed_s = per_plan (!total -. parts);
    minor_words = per_plan !minor_words;
    minor_collections = per_plan (float_of_int !minor);
    major_collections = per_plan (float_of_int !major);
  }

(* ---------- replan and the simulator ---------- *)

let replan_s reqs =
  Stat.median
    (List.map
       (fun r ->
         let t0 = now () in
         ignore (fail_on_error "replan" (Render.replan r));
         now () -. t0)
       reqs)

let observe_s reqs =
  Stat.median
    (List.map
       (fun o ->
         let t0 = now () in
         ignore (fail_on_error "observe" (Render.observe o));
         now () -. t0)
       reqs)

(* Messages the simulator exchanges for one observe request, and how
   many it processes per wall second: the same scenario [Render.observe]
   builds, run with a registry so [adept_messages_total] is counted. *)
let sim_messages (o : P.observe_params) =
  let params = Render.params in
  let platform = fail_on_error "platform" (Render.platform_of_spec o.P.o_spec) in
  let wapp = fail_on_error "workload" (Render.wapp_of_dgemm o.P.o_dgemm) in
  let demand = Render.demand_of o.P.o_demand in
  let plan = fail_on_error "plan" (Render.run_plan Adept.Planner.Heuristic ~platform ~wapp ~demand) in
  let job = Adept_workload.Job.of_dgemm (Adept_workload.Dgemm.make o.P.o_dgemm) in
  let scenario =
    Adept_sim.Scenario.make ~seed:o.P.o_seed ~params ~platform
      ~client:(Adept_workload.Client.closed_loop job) plan.Adept.Planner.tree
  in
  let registry = Adept_obs.Registry.create () in
  let t0 = now () in
  ignore
    (Adept_sim.Scenario.run_fixed ~registry scenario ~clients:o.P.o_clients ~warmup:o.P.o_warmup
       ~duration:o.P.o_duration);
  let dt = now () -. t0 in
  let messages =
    match Adept_obs.Registry.find registry Adept_obs.Semconv.messages_total with
    | None -> 0.
    | Some f ->
        List.fold_left
          (fun acc (_, v) -> match v with Adept_obs.Registry.Counter c -> acc +. c | _ -> acc)
          0. f.Adept_obs.Registry.series
  in
  (messages, messages /. dt)

(* ---------- host fingerprint ---------- *)

(* The paper's calibration kernel on this host: median and median
   absolute deviation of [repeats] DGEMM measurements, MFlop/s. *)
let dgemm_mflops ?(repeats = 5) () =
  let xs = List.init repeats (fun _ -> Adept_calibration.Linpack.dgemm_mflops ()) in
  (Stat.median xs, Stat.mad xs)

(* ---------- worker domains (creates domains: call last) ---------- *)

type pool = { handoff_s : float; shard_ratio : float }

(* A [submit] + [await] round trip of a no-op on a pool of the server's
   size, and sharded over unsharded planning time for [plans]. *)
let domain_pool ~workers (plans : P.plan_params list) =
  let pool = Domain_pool.create ~workers () in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      (* Wait for the worker to resolve the future before [await]: an
         [await] on a queued task would run it on this domain instead. *)
      let handoff_s =
        per_call (fun () ->
            let f = Domain_pool.submit pool (fun () -> ()) in
            while not (Domain_pool.is_resolved f) do
              Domain.cpu_relax ()
            done;
            Domain_pool.await f)
      in
      let time_plan ?pool ?shards (p : P.plan_params) =
        let platform = fail_on_error "platform" (Render.platform_of_spec p.P.spec) in
        let wapp = fail_on_error "workload" (Render.wapp_of_dgemm p.P.dgemm) in
        let demand = Render.demand_of p.P.demand in
        Stat.median
          (List.init 3 (fun _ ->
               let t0 = now () in
               ignore (fail_on_error "plan" (Render.run_plan ?pool ?shards Adept.Planner.Heuristic ~platform ~wapp ~demand));
               now () -. t0))
      in
      let sharded = List.fold_left (fun acc p -> acc +. time_plan ~pool ~shards:workers p) 0. plans in
      let plain = List.fold_left (fun acc p -> acc +. time_plan p) 0. plans in
      { handoff_s; shard_ratio = sharded /. plain })
