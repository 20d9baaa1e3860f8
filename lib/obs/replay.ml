(* Retrospective query over a flight-recorder journal: rebuild the
   observability exports for a past window, bit-identical to what the
   live pipeline produced.  The trick is that the journal records the
   exact inputs the live exporters saw — finished traces in finish
   order, alert transitions, rendered access lines — so replay just
   re-runs the same deterministic code over the same data. *)

module Rt = Request_trace

type cut =
  | To_end  (* everything recovered *)
  | Until of float  (* records with timestamp <= t *)
  | At_dump of int  (* the state at the Nth (1-based; 0 = last) dump *)

type t = {
  rp_meta : Journal.record option;  (* the Meta record, if present *)
  rp_chrome : string;
  rp_alerts : string;
  rp_access : string;
  rp_last_scrape : Journal.scrape option;
  rp_seen : int;
  rp_sampled : int;
  rp_finished : int;
  rp_retained : int;
  rp_dropped : int;
  rp_dropped_spans : int;
  rp_alert_edges : int;
  rp_firing : string list;  (* alerts firing at the cut, rule order *)
  rp_window : (float * float) option;  (* first/last record timestamps *)
}

let record_at : Journal.record -> float = function
  | Journal.Meta m -> m.m_at
  | Journal.Begin_request b -> b.b_at
  | Journal.Finish f -> f.f_at
  | Journal.Scrape s -> s.j_at
  | Journal.Alert_edge a -> a.a_at
  | Journal.Access x -> x.x_at
  | Journal.Dump_marker d -> d.d_at

(* The record prefix a cut selects.  [At_dump] reproduces a live dump:
   the live renderer ran on the event loop after the dump request's
   Begin_request was journalled but before its Finish, so the prefix
   ends just before the chosen marker. *)
let select cut records =
  match cut with
  | To_end -> records
  | Until t -> List.filter (fun r -> record_at r <= t) records
  | At_dump n ->
      let markers =
        List.length
          (List.filter (function Journal.Dump_marker _ -> true | _ -> false) records)
      in
      let target = if n <= 0 then markers else n in
      let seen = ref 0 in
      let rec take = function
        | [] -> []
        | Journal.Dump_marker _ :: rest ->
            incr seen;
            if !seen = target then [] else take rest
        | r :: rest -> r :: take rest
      in
      take records

let run ?(cut = To_end) records =
  let records = select cut records in
  let meta =
    List.find_opt (function Journal.Meta _ -> true | _ -> false) records
  in
  let max_traces, max_spans =
    match meta with
    | Some (Journal.Meta m) -> (m.m_max_traces, m.m_max_spans)
    | _ -> (32, 4096)
  in
  (* Rebuild the trace store: re-admitting finished traces in their
     original order converges to the live reservoir (same slowest-first
     insert, same eviction count). *)
  let store = Rt.create ~sample_rate:1.0 ~max_traces ~max_spans () in
  let seen = ref 0 and sampled = ref 0 in
  let overflow_finishes = ref 0 and dropped_spans = ref 0 in
  let alert_entries = ref [] and alert_states = ref [] in
  let access = Buffer.create 1024 in
  let last_scrape = ref None in
  let t0 = ref nan and t1 = ref nan in
  List.iter
    (fun r ->
      let at = record_at r in
      if Float.is_nan !t0 then t0 := at;
      t1 := at;
      match r with
      | Journal.Meta _ | Journal.Dump_marker _ -> ()
      | Journal.Begin_request b ->
          incr seen;
          if b.b_sampled then incr sampled
      | Journal.Finish f -> (
          dropped_spans := f.f_dropped_spans;
          match f.f_spans with
          | None -> incr overflow_finishes
          | Some spans ->
              Rt.restore store
                {
                  Rt.tr_id = f.f_trace;
                  tr_issued = f.f_issued;
                  tr_finished = f.f_at;
                  tr_spans = spans;
                })
      | Journal.Scrape s -> last_scrape := Some s
      | Journal.Alert_edge a ->
          alert_entries :=
            (a.a_at, a.a_name, a.a_severity, a.a_state, a.a_value)
            :: !alert_entries;
          alert_states :=
            (a.a_name, a.a_state)
            :: List.remove_assoc a.a_name !alert_states
      | Journal.Access x ->
          Buffer.add_string access x.x_line;
          Buffer.add_char access '\n')
    records;
  let finished = Rt.finished store + !overflow_finishes in
  let dropped = Rt.dropped store + !overflow_finishes in
  let chrome =
    Export.chrome_trace_spans ~exemplars:(Rt.exemplars store) ~requests:!seen
      ~sampled:!sampled ~finished ~dropped ~dropped_spans:!dropped_spans
  in
  let firing =
    List.filter_map
      (fun (name, state) -> if state = "firing" then Some name else None)
      (List.rev !alert_states)
  in
  {
    rp_meta = meta;
    rp_chrome = chrome;
    rp_alerts = Export.alert_timeline_entries (List.rev !alert_entries);
    rp_access = Buffer.contents access;
    rp_last_scrape = !last_scrape;
    rp_seen = !seen;
    rp_sampled = !sampled;
    rp_finished = finished;
    rp_retained = List.length (Rt.exemplars store);
    rp_dropped = dropped;
    rp_dropped_spans = !dropped_spans;
    rp_alert_edges = List.length !alert_entries;
    rp_firing = firing;
    rp_window = (if Float.is_nan !t0 then None else Some (!t0, !t1));
  }

(* An [adept top]-style text summary of the replayed window, fed by the
   last journalled scrape before the cut. *)
let summary ?(stats : Journal.read_stats option) t =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  (match t.rp_window with
  | Some (t0, t1) ->
      line "window   %s .. %s (%.3f s)" (Export.float_repr t0)
        (Export.float_repr t1) (t1 -. t0)
  | None -> line "window   (empty journal window)");
  (match stats with
  | Some s ->
      line "journal  %d segment%s, %d records%s%s" s.Journal.r_segments
        (if s.Journal.r_segments = 1 then "" else "s")
        s.Journal.r_records
        (if s.Journal.r_truncated > 0 then
           Printf.sprintf ", %d torn tail%s (%d bytes lost)"
             s.Journal.r_truncated
             (if s.Journal.r_truncated = 1 then "" else "s")
             s.Journal.r_bytes_lost
         else "")
        (if s.Journal.r_skipped > 0 then
           Printf.sprintf ", %d undecodable skipped" s.Journal.r_skipped
         else "")
  | None -> ());
  (match t.rp_last_scrape with
  | Some s ->
      line "uptime   %.1f s (at last scrape)" s.Journal.j_uptime;
      line "requests plan=%d replan=%d observe=%d stats=%d errors=%d coalesced=%d"
        s.Journal.j_plans s.Journal.j_replans s.Journal.j_observes
        s.Journal.j_stats s.Journal.j_errors s.Journal.j_coalesced;
      line "latency  p50=%.3f ms  p99=%.3f ms  gc pause p99=%.3f ms"
        (s.Journal.j_latency_p50 *. 1e3)
        (s.Journal.j_latency_p99 *. 1e3)
        (s.Journal.j_gc_pause_p99 *. 1e3);
      line "cache    hits=%d misses=%d hit-ratio=%.1f%% evictions=%d invalidations=%d"
        s.Journal.j_cache_hits s.Journal.j_cache_misses
        (s.Journal.j_hit_ratio *. 100.)
        s.Journal.j_cache_evictions s.Journal.j_cache_invalidations;
      if s.Journal.j_busy <> [] then
        line "domains  %s"
          (String.concat " "
             (List.mapi
                (fun i b -> Printf.sprintf "d%d=%.0f%%" i (b *. 100.))
                s.Journal.j_busy))
  | None -> line "requests (no scrape recorded in window)");
  line "traces   seen=%d sampled=%d finished=%d retained=%d dropped=%d"
    t.rp_seen t.rp_sampled t.rp_finished t.rp_retained t.rp_dropped;
  line "alerts   %d transition%s%s" t.rp_alert_edges
    (if t.rp_alert_edges = 1 then "" else "s")
    (match t.rp_firing with
    | [] -> ", none firing at cut"
    | names -> Printf.sprintf ", firing at cut: %s" (String.concat " " names));
  Buffer.contents buf
