type message = Submit | Forward | Reply | Answer | Service_request | Service_reply

type step = Wreq | Wrep | Wpre | Service

type stage =
  | Frame_read
  | Parse
  | Cache_lookup
  | Plan
  | Render_reply
  | Write_reply

type kind =
  | Send of message
  | Wire of message
  | Recv of message
  | Compute of step
  | Stage of stage

let message_name = function
  | Submit -> "submit"
  | Forward -> "forward"
  | Reply -> "reply"
  | Answer -> "answer"
  | Service_request -> "service_request"
  | Service_reply -> "service_reply"

let step_name = function
  | Wreq -> "wreq"
  | Wrep -> "wrep"
  | Wpre -> "wpre"
  | Service -> "service"

let stage_name = function
  | Frame_read -> "frame_read"
  | Parse -> "parse"
  | Cache_lookup -> "cache_lookup"
  | Plan -> "plan"
  | Render_reply -> "render"
  | Write_reply -> "write"

let kind_name = function
  | Send m -> "send." ^ message_name m
  | Wire m -> "wire." ^ message_name m
  | Recv m -> "recv." ^ message_name m
  | Compute s -> "compute." ^ step_name s
  | Stage s -> "serve." ^ stage_name s

let message_of_kind = function
  | Send m | Wire m | Recv m -> Some m
  | Compute _ | Stage _ -> None

(* Total order on kinds for deterministic aggregate listings. *)
let message_rank = function
  | Submit -> 0
  | Forward -> 1
  | Reply -> 2
  | Answer -> 3
  | Service_request -> 4
  | Service_reply -> 5

let step_rank = function Wreq -> 0 | Wrep -> 1 | Wpre -> 2 | Service -> 3

(* Rank 3 belonged to a retired stage; the gap keeps every other
   stage's journal byte code unchanged. *)
let stage_rank = function
  | Frame_read -> 0
  | Parse -> 1
  | Cache_lookup -> 2
  | Plan -> 4
  | Render_reply -> 5
  | Write_reply -> 6

let kind_rank = function
  | Send m -> (0, message_rank m)
  | Wire m -> (1, message_rank m)
  | Recv m -> (2, message_rank m)
  | Compute s -> (3, step_rank s)
  | Stage s -> (4, stage_rank s)

let compare_kind a b = compare (kind_rank a) (kind_rank b)

(* Stable wire codec for kinds (the flight recorder persists spans):
   [kind_rank] packed into one byte.  Decoding looks the byte up in a
   table of every current kind, so any other byte decodes to [None]. *)
let kind_code k =
  let group, sub = kind_rank k in
  (group * 16) + sub

let kind_of_code =
  let table = Array.make 256 None in
  List.iter
    (fun k -> table.(kind_code k) <- Some k)
    (List.concat_map
       (fun m -> [ Send m; Wire m; Recv m ])
       [ Submit; Forward; Reply; Answer; Service_request; Service_reply ]
    @ List.map (fun s -> Compute s) [ Wreq; Wrep; Wpre; Service ]
    @ List.map
        (fun s -> Stage s)
        [ Frame_read; Parse; Cache_lookup; Plan; Render_reply; Write_reply ]);
  fun c -> if c < 0 || c > 255 then None else table.(c)

type span = {
  sp_id : int;
  sp_parent : int;
  sp_kind : kind;
  sp_node : int;
  sp_start : float;
  sp_stop : float;
}

type trace = {
  tr_id : int;
  tr_issued : float;
  tr_finished : float;
  tr_spans : span array;
}

let duration tr = tr.tr_finished -. tr.tr_issued

let critical_path tr =
  let n = Array.length tr.tr_spans in
  if n = 0 then []
  else
    let rec walk acc id =
      if id < 0 || id >= n then acc
      else
        let sp = tr.tr_spans.(id) in
        walk (sp :: acc) sp.sp_parent
    in
    walk [] (n - 1)

type handle = {
  h_id : int;
  h_issued : float;
  mutable h_spans : span list;  (* newest first *)
  mutable h_count : int;
  mutable h_tail : int;
  mutable h_overflowed : bool;
}

type agg_cell = { mutable ac_seconds : float; mutable ac_count : int }

type t = {
  rate : float;
  max_traces : int;
  max_spans : int;
  mutable next_id : int;
  mutable n_seen : int;
  mutable n_sampled : int;
  mutable n_finished : int;
  mutable n_abandoned : int;
  mutable n_dropped : int;
  mutable n_dropped_spans : int;
  mutable reservoir : trace list;  (* slowest first, length <= max_traces *)
  agg : (int * kind, agg_cell) Hashtbl.t;
}

let create ?(sample_rate = 1.0) ?(max_traces = 32) ?(max_spans = 4096) () =
  if Float.is_nan sample_rate then
    invalid_arg "Request_trace.create: sample_rate must not be NaN";
  if max_traces < 1 then invalid_arg "Request_trace.create: max_traces must be >= 1";
  if max_spans < 1 then invalid_arg "Request_trace.create: max_spans must be >= 1";
  {
    rate = Float.min 1.0 (Float.max 0.0 sample_rate);
    max_traces;
    max_spans;
    next_id = 0;
    n_seen = 0;
    n_sampled = 0;
    n_finished = 0;
    n_abandoned = 0;
    n_dropped = 0;
    n_dropped_spans = 0;
    reservoir = [];
    agg = Hashtbl.create 64;
  }

let sample_rate t = t.rate

(* 64-bit finaliser (splitmix64's mixer): trace id -> uniform in [0, 1).
   Deterministic and independent of every simulation RNG stream, so the
   sampled id set depends only on the rate. *)
let hash_unit id =
  let z = Int64.of_int id in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xff51afd7ed558ccdL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L in
  let z = Int64.logxor z (Int64.shift_right_logical z 33) in
  float_of_int (Int64.to_int (Int64.shift_right_logical z 11)) /. 9007199254740992.0

let would_sample t id =
  if t.rate >= 1.0 then true
  else if t.rate <= 0.0 then false
  else hash_unit id < t.rate

let open_handle t id ~now =
  t.n_seen <- t.n_seen + 1;
  if would_sample t id then begin
    t.n_sampled <- t.n_sampled + 1;
    Some
      {
        h_id = id;
        h_issued = now;
        h_spans = [];
        h_count = 0;
        h_tail = -1;
        h_overflowed = false;
      }
  end
  else None

let begin_request t ~now =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  open_handle t id ~now

(* Serving path: the trace id travels with the request envelope, so the
   client picks it and every tier's sampling decision agrees (same hash,
   same rate => same verdict). *)
let begin_with_id t ~id ~now = open_handle t id ~now

let trace_id h = h.h_id

let add_span t h ~parent ~kind ~node ~start ~stop =
  if h.h_overflowed || h.h_count >= t.max_spans then begin
    h.h_overflowed <- true;
    t.n_dropped_spans <- t.n_dropped_spans + 1;
    parent
  end
  else begin
    let id = h.h_count in
    h.h_count <- id + 1;
    h.h_spans <-
      { sp_id = id; sp_parent = parent; sp_kind = kind; sp_node = node;
        sp_start = start; sp_stop = stop }
      :: h.h_spans;
    id
  end

let set_tail h id = h.h_tail <- id

let tail h = h.h_tail

let span_count h = h.h_count

(* Slowest-first reservoir order; ties break to the lower trace id so
   the retained set never depends on insertion order. *)
let slower a b =
  let da = duration a and db = duration b in
  if da > db then true else if da < db then false else a.tr_id < b.tr_id

let offer t tr =
  let rec insert = function
    | [] -> [ tr ]
    | x :: rest -> if slower tr x then tr :: x :: rest else x :: insert rest
  in
  let rec drop_last = function
    | [] | [ _ ] -> []
    | x :: rest -> x :: drop_last rest
  in
  let r = insert t.reservoir in
  if List.length r > t.max_traces then begin
    t.n_dropped <- t.n_dropped + 1;
    t.reservoir <- drop_last r
  end
  else t.reservoir <- r

let accumulate t tr =
  List.iter
    (fun sp ->
      let key = (sp.sp_node, sp.sp_kind) in
      let cell =
        match Hashtbl.find_opt t.agg key with
        | Some c -> c
        | None ->
            let c = { ac_seconds = 0.0; ac_count = 0 } in
            Hashtbl.add t.agg key c;
            c
      in
      cell.ac_seconds <- cell.ac_seconds +. (sp.sp_stop -. sp.sp_start);
      cell.ac_count <- cell.ac_count + 1)
    (critical_path tr)

let finish_trace t h ~now =
  t.n_finished <- t.n_finished + 1;
  if h.h_overflowed then begin
    t.n_dropped <- t.n_dropped + 1;
    None
  end
  else begin
    let spans =
      match h.h_spans with
      | [] -> [||]
      | dummy :: _ ->
          let a = Array.make h.h_count dummy in
          List.iter (fun sp -> a.(sp.sp_id) <- sp) h.h_spans;
          a
    in
    let tr =
      { tr_id = h.h_id; tr_issued = h.h_issued; tr_finished = now; tr_spans = spans }
    in
    accumulate t tr;
    offer t tr;
    Some tr
  end

let finish t h ~now = ignore (finish_trace t h ~now)

(* Re-admit a previously recorded trace (flight-recorder replay): same
   bookkeeping as a live [finish] of an unoverflowed handle, so a replayed
   store converges to the exact reservoir and aggregates of the live one. *)
let restore t tr =
  t.n_finished <- t.n_finished + 1;
  accumulate t tr;
  offer t tr

let abandon t h =
  ignore h;
  t.n_abandoned <- t.n_abandoned + 1

let requests_seen t = t.n_seen

let sampled t = t.n_sampled

let finished t = t.n_finished

let abandoned t = t.n_abandoned

let dropped t = t.n_dropped

let dropped_spans t = t.n_dropped_spans

let exemplars t = t.reservoir

type agg = { ag_node : int; ag_kind : kind; ag_seconds : float; ag_count : int }

let aggregates t =
  Hashtbl.fold
    (fun (node, kind) cell acc ->
      { ag_node = node; ag_kind = kind; ag_seconds = cell.ac_seconds;
        ag_count = cell.ac_count }
      :: acc)
    t.agg []
  |> List.sort (fun a b ->
         match Int.compare a.ag_node b.ag_node with
         | 0 -> compare_kind a.ag_kind b.ag_kind
         | c -> c)

let hottest_element t =
  (* Sum kinds per platform node, then argmax (ties to the lower id).
     Folding over the sorted [aggregates] keeps the result independent
     of hash-table iteration order. *)
  let totals = ref [] in
  List.iter
    (fun a ->
      if a.ag_node >= 0 then
        match !totals with
        | (n, s) :: rest when n = a.ag_node -> totals := (n, s +. a.ag_seconds) :: rest
        | _ -> totals := (a.ag_node, a.ag_seconds) :: !totals)
    (aggregates t);
  List.fold_left
    (fun best (node, seconds) ->
      match best with
      | Some (bn, bs) when bs > seconds || (bs = seconds && bn < node) -> best
      | Some _ | None -> Some (node, seconds))
    None !totals
