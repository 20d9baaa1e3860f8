(* One benchmark run: set-up, the timed closed loop against a stock
   server, reply verification, and — in a traced run — the per-layer
   breakdown.

   A traced run splits its time between an untraced window (the
   reference for tracing overhead and for the reconciliation) and a
   window against a server with live observability on, with client-side
   spans; then it times the layers in-process on the workload's own
   requests. *)

module P = Adept_serve.Protocol
module Json = Adept_serve.Json

type config = {
  adept : string;  (** the `adept` executable *)
  kind : Workload.kind;
  seed : int;
  seconds : float;
  trace : bool;
  dir : string;  (** sockets, exports and spans *)
}

type metric = { name : string; value : float; unit_ : string }

type result = {
  e2e : metric list;
  layers : metric list;  (** empty unless traced *)
  attempted : int;
  failed : int;
  notes : string list;  (** human-readable lines: host, verification, spans *)
}

(* At most [nproc] connections, and two where the host allows: enough for
   coalescing across connections, no more than the host can serve.
   Cold-plan keeps one: its requests all queue for the same workers, and
   a worker that helps while awaiting its shard task may run the other
   connection's whole request nested inside the first, so that one of
   each pair waits out both — a bimodal latency whose median flips
   between the modes from run to run. *)
let connections = function
  | Workload.Cold_plan -> 1
  | Workload.Warm_hit | Workload.Mixed_churn -> max 1 (min 2 (Domain.recommended_domain_count ()))

(* The server's default worker count. *)
let server_workers () = max 1 (Domain.recommended_domain_count () - 1)

(* Seconds in which the hypervisor ran other guests on this machine's
   CPUs measure the host, not adept.  The end-to-end figures leave out
   every second of the window, and every set-up round, with more than
   [steal_limit] of the CPU time stolen, unless fewer than [min_clean]
   would remain; on a host without steal nothing is left out. *)
let steal_limit = 0.05

let min_clean = 5

let stolen share = share > steal_limit

(* Set-up is repeated and its median reported: one spawn takes a few
   milliseconds and is noisy on its own.  Rounds go on until
   [setup_rounds] of them ran without steal, or three times as many ran. *)
let setup_rounds = 15

let warmup seconds = Float.min 1.0 (0.2 *. seconds)

(* Which replies are recomputed in-process after the window: every
   distinct spec on warm-hit, a seeded sample on the others. *)
let verifier cfg =
  match cfg.kind with
  | Workload.Warm_hit -> Verify.create ~seed:cfg.seed ~every:1 ~cap:max_int
  | Workload.Cold_plan -> Verify.create ~seed:cfg.seed ~every:32 ~cap:12
  | Workload.Mixed_churn -> Verify.create ~seed:cfg.seed ~every:16 ~cap:48

(* ---------- served windows ---------- *)

type window = {
  outcome : Load.outcome;
  checked : int;  (** replies recomputed in-process *)
  before : P.server_stats;
  after : P.server_stats;
  chrome : string option;  (** slowest-request trace dump, live servers only *)
  rss_mb : float;
  latency_count : float option;  (** [adept_serve_request_seconds_count] at drain *)
  server_answered : int;
}

let delta w f = f w.after - f w.before

(* Sum of the request-latency histogram's counts in a Prometheus export. *)
let prom_count path =
  let family = "adept_serve_request_seconds_count" in
  let n = String.length family in
  match In_channel.with_open_text path In_channel.input_lines with
  | lines ->
      Some
        (List.fold_left
           (fun acc l ->
             if String.length l > n && String.sub l 0 n = family then
               match List.rev (String.split_on_char ' ' l) with
               | v :: _ -> acc +. Option.value ~default:0. (float_of_string_opt v)
               | [] -> acc
             else acc)
           0. lines)
  | exception Sys_error _ -> None

(* Spawn servers in turn, timing each from spawn to the end of priming;
   keep the last one running.  Returns it, the number of priming
   requests, the set-up times that count, and the number of rounds. *)
let setup cfg ~tag =
  let priming = Workload.priming (Workload.create cfg.kind ~seed:cfg.seed) in
  let rec go k clean all =
    let j0 = Load.cpu_jiffies () in
    let s, dt = Load.start ~adept:cfg.adept ~dir:cfg.dir ~tag ~traced:false ~priming in
    let clean = if stolen (Load.steal_share j0 (Load.cpu_jiffies ())) then clean else dt :: clean in
    let all = dt :: all in
    if List.length clean >= setup_rounds || k >= 3 * setup_rounds then
      (s, List.length priming, (if List.length clean >= min_clean then clean else all), k)
    else begin
      Load.stop s;
      go (k + 1) clean all
    end
  in
  go 1 [] []

let window cfg ~server ~primed ~seconds ~spans =
  let w = Workload.create cfg.kind ~seed:cfg.seed in
  let next () =
    let i = w.Workload.counter in
    (i, Workload.next w)
  in
  let verify = verifier cfg in
  let outcome, before, after, chrome, rss_mb =
    Fun.protect
      ~finally:(fun () -> Load.stop server)
      (fun () ->
        let c = Load.connect server in
        let before = Load.stats c in
        let outcome =
          Load.run ~server ~conns:(connections cfg.kind) ~warmup:(warmup seconds) ~seconds ~next
            ~check:(Verify.check verify) ?spans ()
        in
        let after = Load.stats c in
        let chrome =
          match server.Load.prom with
          | None -> None
          | Some _ -> ( match Load.call c P.Trace_dump with P.Trace_ok { chrome } -> Some chrome | _ -> None)
        in
        Adept_serve.Client.close c;
        (outcome, before, after, chrome, Load.peak_rss_mb server))
  in
  let checked, bad = Verify.finish verify in
  outcome.Load.mismatches <- outcome.Load.mismatches + bad;
  {
    outcome;
    checked;
    before;
    after;
    chrome;
    rss_mb;
    (* written by the server as it drained *)
    latency_count = Option.bind server.Load.prom prom_count;
    (* priming, the readiness probe, two stats exchanges, the trace dump,
       and every load request that got a reply *)
    server_answered = primed + 4 + outcome.Load.total - outcome.Load.transport_failures;
  }

let counted_seconds w =
  let o = w.outcome in
  let all = List.init (Array.length o.Load.per_second) Fun.id in
  let clean = List.filter (fun k -> not (stolen o.Load.steal.(k))) all in
  if List.length clean >= min min_clean (List.length all) then clean else all

let throughput w =
  let o = w.outcome in
  let secs = counted_seconds w in
  let answered = List.fold_left (fun acc k -> acc + o.Load.per_second.(k)) 0 secs in
  let duration = List.fold_left (fun acc k -> acc +. Float.min 1. (o.Load.window -. float_of_int k)) 0. secs in
  float_of_int answered /. duration

let latencies w =
  let o = w.outcome in
  Stat.sorted_of_arrays (List.map (fun k -> o.Load.latencies_us.(k)) (counted_seconds w))

(* ---------- the trace dump ---------- *)

(* Durations (us) of the named span in a Chrome trace export. *)
let chrome_durations chrome name =
  match Json.of_string chrome with
  | Error _ -> []
  | Ok doc ->
      Option.value ~default:[] (Option.bind (Json.member "traceEvents" doc) Json.to_list)
      |> List.filter_map (fun ev ->
             match Option.bind (Json.member "name" ev) Json.to_string_v with
             | Some n when n = name -> Option.bind (Json.member "dur" ev) Json.to_float
             | _ -> None)

(* ---------- metrics ---------- *)

let m name unit_ value = { name; value; unit_ }

let end_to_end w ~setup_s =
  let lat = latencies w in
  let p99 = match Stat.tail_percentile lat 0.99 with Some v -> v | None -> Stat.percentile lat 0.99 in
  [
    m "throughput_rps" "req/s" (throughput w);
    m "latency_p50_us" "us" (Stat.percentile lat 0.5);
    m "latency_p99_us" "us" p99;
    m "setup_s" "s" setup_s;
  ]

let sample_notes w =
  let n = Array.length (latencies w) in
  let beyond = Stat.beyond ~p:0.99 n in
  let o = w.outcome in
  let secs = Array.length o.Load.per_second in
  [
    Printf.sprintf "host steal: %d of %d seconds above %g%% left out; steal by second (%%): %s"
      (secs - List.length (counted_seconds w)) secs (100. *. steal_limit)
      (String.concat " " (Array.to_list (Array.map (fun f -> Printf.sprintf "%.1f" (100. *. f)) o.Load.steal)));
    Printf.sprintf "latency samples: %d, %d beyond p99%s" n beyond
      (if Stat.supported ~p:0.99 n then "" else " (fewer than 10: p99 is not supported; raise --seconds)");
    Printf.sprintf
      "requests: %d sent in window, %d answered correctly, %d error replies, %d transport failures, %d mismatches (error_rate %g)"
      o.Load.sent o.Load.answered o.Load.error_replies o.Load.transport_failures o.Load.mismatches (Load.error_rate o);
    "answered by second: " ^ String.concat " " (Array.to_list (Array.map string_of_int o.Load.per_second));
    Printf.sprintf "verification: every reply compared with the first reply to the same request; %d recomputed in-process"
      w.checked;
  ]

(* Plan, replan and observe requests of the workload's stream, for the
   in-process replays; workloads without replans or observes get one of
   each shaped like mixed-churn's. *)
let stream_samples cfg ~plans ~replans ~observes =
  let w = Workload.create cfg.kind ~seed:cfg.seed in
  let ps = ref [] and rs = ref [] and os = ref [] in
  let full () = List.length !ps >= plans && List.length !rs >= replans && List.length !os >= observes in
  let i = ref 0 in
  while (not (full ())) && !i < 20_000 do
    incr i;
    match Workload.next w with
    | P.Plan p -> if List.length !ps < plans && not (List.mem p !ps) then ps := p :: !ps
    | P.Replan r -> if List.length !rs < replans then rs := r :: !rs
    | P.Observe o -> if List.length !os < observes then os := o :: !os
    | _ -> ()
  done;
  let w0 = Workload.create cfg.kind ~seed:cfg.seed in
  let rs = if !rs = [] then [ Workload.replan_sample w0 ] else List.rev !rs in
  let os = if !os = [] then [ Workload.observe_sample w0 ] else List.rev !os in
  (List.rev !ps, rs, os)

let layer_metrics cfg ~untraced ~traced ~spans ~host =
  let kind = cfg.kind in
  (* Enough requests for a stable median at a bounded cost: mixed-churn
     first replays as many requests as its served warm-up sends, so its
     cache is as warm as the server's. *)
  let warm, n_handled, n_plans =
    match kind with
    | Workload.Warm_hit -> (0, 2000, 32)
    | Workload.Cold_plan -> (0, 12, 4)
    | Workload.Mixed_churn -> (600, 600, 12)
  in
  let replay = Layers.replay_handler (Workload.create kind ~seed:cfg.seed) ~warm ~n:n_handled ~spans in
  let handled = Array.to_list replay.Layers.handled in
  let handler_us = Stat.median (List.map (fun h -> (h.Layers.loop_s +. h.Layers.worker_s) *. 1e6) handled) in
  let client_p50 = Stat.percentile (latencies untraced) 0.5 in
  let decode_s = Layers.decode_request_s replay and encode_s = Layers.encode_reply_s replay in
  let find_s = Option.value ~default:0. (Layers.cache_find_s replay) in
  let io_s = Layers.loop_io_s replay in
  let plans, replans, observes = stream_samples cfg ~plans:n_plans ~replans:4 ~observes:2 in
  let pl = Layers.planner plans ~spans in
  let replan_s = Layers.replan_s replans and observe_s = Layers.observe_s observes in
  let messages, messages_per_s = Layers.sim_messages (List.hd observes) in
  let mflops, mad = host in
  (* Worker domains exist from here on. *)
  let workers = server_workers () in
  let pool = Layers.domain_pool ~workers (List.filteri (fun i _ -> i < 2) plans) in
  (* Eq. 16 turned on adept itself: throughput is the minimum over the
     stages every request crosses — the event loop, which handles each
     request's codec, cache probe and frame I/O in turn, and the worker
     domains, which share the planning work. *)
  let loop_s = Stat.mean (List.map (fun h -> h.Layers.loop_s) handled) +. io_s in
  let worker_s = Stat.mean (List.map (fun h -> h.Layers.worker_s) handled) in
  let loop_cap = 1. /. loop_s in
  let predicted = if worker_s > 0. then Float.min loop_cap (float_of_int workers /. worker_s) else loop_cap in
  let measured = throughput untraced in
  let hits = delta untraced (fun s -> s.P.cache_hits) and misses = delta untraced (fun s -> s.P.cache_misses) in
  let live = traced.after.P.live in
  let chrome_p99 name =
    match traced.chrome with
    | None -> nan
    | Some c -> Stat.percentile (Stat.sorted_of_list (chrome_durations c name)) 0.99
  in
  let o = untraced.outcome in
  let per_req x = float_of_int x /. float_of_int (max 1 o.Load.total) in
  let self = Spans.self_by_name spans in
  let client_overhead_s =
    let requests = match List.assoc_opt "client.request" self with Some (c, _) -> c | None -> 0 in
    List.fold_left
      (fun acc nm -> match List.assoc_opt nm self with Some (_, s) -> acc +. s | None -> acc)
      0.
      [ "client.request"; "protocol.encode_request"; "wire.write"; "protocol.decode_reply" ]
    /. float_of_int (max 1 requests)
  in
  let lat = latencies untraced in
  [
    m "server.handler_p50_us" "us" handler_us;
    m "server.residual_p50_us" "us" (client_p50 -. handler_us);
    m "server.frame_read_p99_us" "us" (chrome_p99 "serve.frame_read");
    m "server.write_p99_us" "us" (chrome_p99 "serve.write");
    m "server.peak_rss_mb" "MB" untraced.rss_mb;
    m "server.latency_count_ratio" "ratio"
      (match traced.latency_count with
      | Some c -> c /. float_of_int traced.server_answered
      | None -> nan);
    m "server.coalesced" "count" (float_of_int (delta untraced (fun s -> s.P.coalesced)));
    m "wire.bytes_in_per_req" "B" (per_req o.Load.bytes_in);
    m "wire.bytes_out_per_req" "B" (per_req o.Load.bytes_out);
    m "wire.loop_io_us" "us" (io_s *. 1e6);
    m "protocol.decode_request_us" "us" (decode_s *. 1e6);
    m "protocol.encode_reply_us" "us" (encode_s *. 1e6);
    m "cache.hits" "count" (float_of_int hits);
    m "cache.misses" "count" (float_of_int misses);
    m "cache.evictions" "count" (float_of_int (delta untraced (fun s -> s.P.cache_evictions)));
    m "cache.invalidations" "count" (float_of_int (delta untraced (fun s -> s.P.cache_invalidations)));
    m "cache.hit_ratio" "ratio" (if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses));
    m "cache.find_us" "us" (find_s *. 1e6);
    m "domain_pool.busy_ratio" "ratio"
      (match live with Some l when l.P.domain_busy <> [] -> Stat.mean l.P.domain_busy | _ -> nan);
    m "domain_pool.handoff_us" "us" (pool.Layers.handoff_s *. 1e6);
    m "shard.overhead_ratio" "ratio" pool.Layers.shard_ratio;
    m "platform.build_ms" "ms" (pl.Layers.build_s *. 1e3);
    m "node_pool.create_ms" "ms" (pl.Layers.pool_s *. 1e3);
    m "heuristic.probes" "count" pl.Layers.probes;
    m "heuristic.probe_feasible_ratio" "ratio" pl.Layers.feasible_ratio;
    m "heuristic.probe_ms" "ms" (pl.Layers.probe_s *. 1e3);
    m "evaluate.rho_calls" "count" pl.Layers.rho_calls;
    m "evaluate.rho_us" "us" (pl.Layers.rho_s *. 1e6);
    m "render.text_us" "us" (pl.Layers.render_s *. 1e6);
    m "planner.plan_ms" "ms" (pl.Layers.total_s *. 1e3);
    m "planner.unattributed_ms" "ms" (pl.Layers.unattributed_s *. 1e3);
    m "gc.minor_words_per_plan" "words" pl.Layers.minor_words;
    m "gc.minor_collections_per_plan" "count" pl.Layers.minor_collections;
    m "gc.major_collections_per_plan" "count" pl.Layers.major_collections;
    m "gc.pause_p99_us" "us" (match live with Some l -> l.P.gc_pause_p99 *. 1e6 | None -> nan);
    m "replan.ms" "ms" (replan_s *. 1e3);
    m "sim.observe_ms" "ms" (observe_s *. 1e3);
    m "sim.messages" "count" messages;
    m "sim.messages_per_s" "1/s" messages_per_s;
    m "client.overhead_us" "us" (client_overhead_s *. 1e6);
    m "trace.overhead_ratio" "ratio" (throughput traced /. measured);
    m "model.loop_capacity_rps" "req/s" loop_cap;
    m "model.worker_busy_us_per_req" "us" (worker_s *. 1e6);
    m "model.predicted_rps" "req/s" predicted;
    m "model.prediction_error" "ratio" ((predicted -. measured) /. measured);
    m "error_rate" "ratio" (Load.error_rate o);
    m "latency.samples" "count" (float_of_int (Array.length lat));
    m "latency.samples_beyond_p99" "count" (float_of_int (Stat.beyond ~p:0.99 (Array.length lat)));
    m "host.nproc" "count" (float_of_int (Domain.recommended_domain_count ()));
    m "host.dgemm_mflops" "MFlop/s" mflops;
    m "host.dgemm_mad_mflops" "MFlop/s" mad;
  ]

let host_note (mflops, mad) =
  Printf.sprintf "host: nproc %d, OCaml %s, Linpack DGEMM %.1f MFlop/s (MAD %.1f over 5)"
    (Domain.recommended_domain_count ()) Sys.ocaml_version mflops mad

let run cfg =
  let tag = Workload.name cfg.kind in
  let server, primed, setups, rounds = setup cfg ~tag in
  let setup_s = Stat.median setups in
  let setup_note =
    Printf.sprintf "set-up: median of %d rounds, %d left out for host steal" (List.length setups)
      (rounds - List.length setups)
  in
  if not cfg.trace then begin
    let w = window cfg ~server ~primed ~seconds:cfg.seconds ~spans:None in
    let host = host_note (Layers.dgemm_mflops ()) in
    {
      e2e = end_to_end w ~setup_s;
      layers = [];
      attempted = w.outcome.Load.sent;
      failed = Load.failed w.outcome;
      notes = host :: setup_note :: sample_notes w;
    }
  end
  else begin
    let half = cfg.seconds /. 2. in
    let untraced = window cfg ~server ~primed ~seconds:half ~spans:None in
    let spans = Spans.create () in
    let priming = Workload.priming (Workload.create cfg.kind ~seed:cfg.seed) in
    let tserver, _ =
      Load.start ~adept:cfg.adept ~dir:cfg.dir ~tag:(tag ^ "-traced") ~traced:true ~priming
    in
    let traced = window cfg ~server:tserver ~primed:(List.length priming) ~seconds:half ~spans:(Some spans) in
    let host = Layers.dgemm_mflops () in
    let layers = layer_metrics cfg ~untraced ~traced ~spans ~host in
    let path = Filename.concat cfg.dir (Printf.sprintf "spans-%s-%d.jsonl" tag cfg.seed) in
    Spans.write_jsonl spans path;
    let self_lines =
      List.map
        (fun (nm, (c, s)) -> Printf.sprintf "  %-28s %9d spans  %12.2f us self each" nm c (s /. float_of_int c *. 1e6))
        (Spans.self_by_name spans)
    in
    {
      e2e = end_to_end untraced ~setup_s;
      layers;
      attempted = untraced.outcome.Load.sent + traced.outcome.Load.sent;
      failed = Load.failed untraced.outcome + Load.failed traced.outcome;
      notes =
        (host_note host :: setup_note :: "untraced window:" :: sample_notes untraced)
        @ ("traced window:" :: sample_notes traced)
        @ [
            "server.latency_count_ratio: adept_serve_request_seconds_count over requests answered; requests answered \
             inline on the event loop (cache hits, stats) are not counted by the server";
          ]
        @ [ Printf.sprintf "spans: %d kept, %d dropped, written to %s; self time by layer:" (Spans.length spans)
              (Spans.dropped spans) path ]
        @ self_lines;
    }
  end
