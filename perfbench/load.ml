(* The served half of the benchmark: stock `adept serve` processes and one
   closed-loop load generator.

   The generator is a single thread in a single process.  It holds at most
   [nproc] connections, keeps exactly one request outstanding on each
   (callers of adept wait for their plan), and multiplexes them with
   [Unix.select] over [Wire] readers, sending the next request as soon as
   a reply is decoded.  Latency runs from the frame write to the decoded
   reply. *)

module P = Adept_serve.Protocol
module Wire = Adept_serve.Wire
module Client = Adept_serve.Client
module Server = Adept_serve.Server

(* ---------- server processes ---------- *)

type server = { pid : int; path : string; prom : string option; mutable running : bool }

(* Spawn `adept serve` on a Unix socket under [dir].  With [traced] the
   live observability layer is on and metrics are exported to a
   Prometheus file; otherwise the server runs with its defaults. *)
let spawn ~adept ~dir ~tag ~traced =
  let path = Filename.concat dir (tag ^ ".sock") in
  if Sys.file_exists path then Sys.remove path;
  let prom = if traced then Some (Filename.concat dir (tag ^ ".prom")) else None in
  let obs_args =
    match prom with Some p -> [ "--live"; "--prom"; p ] | None -> []
  in
  let argv = Array.of_list ([ adept; "serve"; "--address"; "unix:" ^ path ] @ obs_args) in
  (* The runtime-events ring of a live server lands beside its socket. *)
  let env = Array.append (Unix.environment ()) [| "OCAML_RUNTIME_EVENTS_DIR=" ^ dir |] in
  let pid = Unix.create_process_env adept argv env Unix.stdin Unix.stderr Unix.stderr in
  { pid; path; prom; running = true }

(* Drain with SIGTERM, repeated every 100 ms until the server exits.  A
   single SIGTERM can be lost: when it lands while the server is off its
   [select], the server consumes the wake-up before it starts draining,
   then blocks in [select] with nothing left to wake it.  A server still
   up after 5 s is killed.  Idempotent: the pid is never signalled once
   reaped, when it may belong to another process. *)
let stop s =
  let signal k =
    if k mod 100 = 0 then
      try Unix.kill s.pid (if k >= 5000 then Sys.sigkill else Sys.sigterm) with Unix.Unix_error _ -> ()
  in
  let rec wait k =
    signal k;
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ ->
        Unix.sleepf 0.001;
        wait (k + 1)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait k
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  if s.running then begin
    s.running <- false;
    wait 0
  end

(* Peak resident set of a live server, from /proc. *)
let peak_rss_mb s =
  let path = Printf.sprintf "/proc/%d/status" s.pid in
  match In_channel.with_open_text path In_channel.input_lines with
  | lines ->
      List.find_map
        (fun l ->
          match String.split_on_char ':' l with
          | [ "VmHWM"; v ] -> Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some (float_of_int kb /. 1024.))
          | _ -> None)
        lines
      |> Option.value ~default:nan
  | exception Sys_error _ -> nan

let connect s =
  (* 0.1 ms polling: the server answers a few milliseconds after spawn,
     and a coarser delay would quantise the set-up time. *)
  match Client.connect_retry ~attempts:200_000 ~delay:0.0001 (Server.Unix_socket s.path) with
  | Ok c -> c
  | Error e -> failwith ("cannot connect to adept serve: " ^ e)

let call c req =
  match Client.call c req with
  | Ok r -> r
  | Error e -> failwith ("adept serve: " ^ e)

let stats c =
  match call c P.Stats with
  | P.Stats_ok s -> s
  | _ -> failwith "adept serve: stats answered with another kind"

(* Spawn, poll until the first answered request (a [stats] exchange),
   then send the workload's priming requests.  Returns the server and
   the seconds all of that took. *)
let start ~adept ~dir ~tag ~traced ~priming =
  let t0 = Clock.now () in
  let s = spawn ~adept ~dir ~tag ~traced in
  match
    let c = connect s in
    ignore (stats c);
    List.iter
      (fun req ->
        match call c req with
        | P.Error k -> failwith ("priming request failed: " ^ snd (P.error_kind_fields k))
        | _ -> ())
      priming;
    let dt = Clock.now () -. t0 in
    Client.close c;
    dt
  with
  | dt -> (s, dt)
  | exception e ->
      stop s;
      raise e

(* ---------- closed loop ---------- *)

type outcome = {
  mutable answered : int;  (** correct replies inside the window *)
  mutable sent : int;  (** requests sent inside the window *)
  mutable error_replies : int;
  mutable transport_failures : int;
  mutable mismatches : int;
  mutable bytes_in : int;  (** request frame bytes, all requests *)
  mutable bytes_out : int;  (** reply frame bytes, all requests *)
  mutable total : int;  (** requests sent, warm-up included *)
  window : float;
  per_second : int array;  (** correct replies, by second of the window *)
  latencies_us : Stat.Samples.t array;  (** their latencies, by second *)
  steal : float array;  (** share of the host's CPU time stolen, by second; nan when unknown *)
}

let failed o = o.error_replies + o.transport_failures + o.mismatches

let error_rate o = if o.sent = 0 then nan else float_of_int (failed o) /. float_of_int o.sent

type conn = {
  fd : Unix.file_descr;
  reader : Wire.reader;
  mutable next_id : int;
  mutable pending : (int * int * P.request * float * int) option;
      (** (request id, stream index, request, send time, root span) *)
  mutable live : bool;
}

let open_conn s =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX s.path);
  { fd; reader = Wire.reader (); next_id = 1; pending = None; live = true }

(* Jiffies the hypervisor stole from this machine, and all jiffies, over
   every CPU since boot; [None] where /proc/stat is not there. *)
let cpu_jiffies () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _ ->
          let fields = List.map float_of_string [ user; nice; system; idle; iowait; irq; softirq; steal ] in
          Some (float_of_string steal, List.fold_left ( +. ) 0. fields)
      | _ -> None)
  | None | (exception _) -> None

(* Share of the CPU time between two [cpu_jiffies] readings that was
   stolen; [nan] when unknown. *)
let steal_share a b =
  match (a, b) with Some (s0, t0), Some (s1, t1) when t1 > t0 -> (s1 -. s0) /. (t1 -. t0) | _ -> nan

let write_all fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

(* Drive [conns] connections to [s] for [warmup] + [seconds] seconds with
   requests from [next] (stream index, request).  Only requests sent
   inside the timed window count towards the outcome; replies still in
   flight at its end are drained and checked but not counted.  [check]
   judges each reply and returns [false] on a wrong one; it runs on the
   timed path, so it must be cheap.  With [spans], every request is a
   root span with one child per client-side layer call, and carries a
   trace id so a live server traces it too. *)
let run ~server ~conns ~warmup ~seconds ~next ~check ?spans () =
  let buckets = max 1 (int_of_float (Float.ceil seconds)) in
  let o =
    {
      answered = 0; sent = 0; error_replies = 0; transport_failures = 0; mismatches = 0;
      bytes_in = 0; bytes_out = 0; total = 0; window = seconds;
      per_second = Array.make buckets 0;
      latencies_us = Array.init buckets (fun _ -> Stat.Samples.create ());
      steal = Array.make buckets nan;
    }
  in
  let cs = List.init conns (fun _ -> open_conn server) in
  let t_start = Clock.now () +. warmup in
  let t_end = t_start +. seconds in
  let deadline = t_end +. 60. in
  let buf = Bytes.create 65536 in
  let span name ~req ~parent ~start ~stop =
    match spans with Some sp -> ignore (Spans.record sp ~req ~parent name ~start ~stop) | None -> ()
  in
  let send c =
    let idx, req = next () in
    let id = c.next_id in
    c.next_id <- id + 1;
    let t0 = Clock.now () in
    let root = match spans with Some sp -> Spans.open_ sp ~req:idx ~parent:(-1) "client.request" ~start:t0 | None -> -1 in
    let trace = if spans = None then None else Some (idx + 1) in
    let payload = P.encode_request { P.id; trace; request = req } in
    let frame = Wire.encode payload in
    let t1 = Clock.now () in
    span "protocol.encode_request" ~req:idx ~parent:root ~start:t0 ~stop:t1;
    write_all c.fd frame;
    span "wire.write" ~req:idx ~parent:root ~start:t1 ~stop:(Clock.now ());
    o.bytes_in <- o.bytes_in + String.length frame;
    o.total <- o.total + 1;
    if t0 >= t_start && t0 < t_end then o.sent <- o.sent + 1;
    c.pending <- Some (id, idx, req, t0, root)
  in
  let fail c =
    (* The connection is gone: its outstanding request is a transport
       failure, and the loop carries on with the others. *)
    (match c.pending with
    | Some (_, _, _, t0, _) when t0 >= t_start && t0 < t_end -> o.transport_failures <- o.transport_failures + 1
    | _ -> ());
    c.pending <- None;
    c.live <- false;
    (try Unix.close c.fd with Unix.Unix_error _ -> ())
  in
  let on_frame c payload ~t_frame =
    match c.pending with
    | None -> fail c
    | Some (id, idx, req, t0, root) ->
        c.pending <- None;
        o.bytes_out <- o.bytes_out + Wire.header_len + String.length payload;
        span "server.wait" ~req:idx ~parent:root ~start:t0 ~stop:t_frame;
        let reply = P.decode_reply payload in
        let t_done = Clock.now () in
        span "protocol.decode_reply" ~req:idx ~parent:root ~start:t_frame ~stop:t_done;
        (match spans with Some sp -> Spans.close sp root ~stop:t_done | None -> ());
        let counted = t0 >= t_start && t0 < t_end in
        (match reply with
        | Ok { P.reply_id; response } when reply_id = id -> (
            match response with
            | P.Error _ -> if counted then o.error_replies <- o.error_replies + 1
            | resp ->
                if check idx req resp then begin
                  if counted then begin
                    o.answered <- o.answered + 1;
                    let sec = min (buckets - 1) (int_of_float (t_done -. t_start)) in
                    o.per_second.(sec) <- o.per_second.(sec) + 1;
                    Stat.Samples.add o.latencies_us.(sec) ((t_done -. t0) *. 1e6)
                  end
                end
                else o.mismatches <- o.mismatches + 1)
        | Ok _ | Error _ -> if counted then o.mismatches <- o.mismatches + 1);
        if t_done < t_end then send c
  in
  let read_ready c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> fail c
    | n ->
        let t_frame = Clock.now () in
        Wire.feed c.reader (Bytes.unsafe_to_string buf) 0 n;
        let rec drain () =
          match Wire.step c.reader with
          | Wire.Frame payload ->
              on_frame c payload ~t_frame;
              if c.live then drain ()
          | Wire.Need_more -> ()
          | Wire.Oversized _ -> fail c
        in
        drain ()
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
    | exception Unix.Unix_error _ -> fail c
  in
  (* Host steal, read at every second boundary of the window. *)
  let next_tick = ref 0 and last = ref None in
  let tick now =
    while !next_tick <= buckets && now >= t_start +. float_of_int !next_tick do
      let cur = cpu_jiffies () in
      if !next_tick >= 1 then o.steal.(!next_tick - 1) <- steal_share !last cur;
      last := cur;
      incr next_tick
    done
  in
  List.iter (fun c -> try send c with Unix.Unix_error _ -> fail c) cs;
  let rec loop () =
    let waiting = List.filter (fun c -> c.live && c.pending <> None) cs in
    let now = Clock.now () in
    tick now;
    if waiting <> [] && now < deadline then begin
      let timeout =
        if !next_tick > buckets then 1.0
        else Float.max 0.001 (Float.min 1.0 (t_start +. float_of_int !next_tick -. now))
      in
      (match Unix.select (List.map (fun c -> c.fd) waiting) [] [] timeout with
      | ready, _, _ ->
          List.iter (fun c -> if List.mem c.fd ready then (try read_ready c with Unix.Unix_error _ -> fail c)) waiting
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  List.iter (fun c -> if c.live then fail c) cs;
  o
