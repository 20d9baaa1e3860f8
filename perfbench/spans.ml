(* In-memory span store for the traced run.

   One span per call into a layer: a name, wall-clock start and stop, the
   span that caused it (-1 for a root) and the request it belongs to, so
   that a layer's self time is its span minus the part of it that its
   children cover.  Spans live in parallel arrays up to [cap]; later ones
   are counted as dropped rather than grown without bound, and the whole
   store is written out once, when the benchmark ends. *)

type t = {
  cap : int;
  mutable n : int;
  mutable dropped : int;
  mutable name : string array;
  mutable req : int array;
  mutable parent : int array;
  mutable start : float array;
  mutable stop : float array;
}

let create ?(cap = 50_000) () =
  {
    cap;
    n = 0;
    dropped = 0;
    name = [||];
    req = [||];
    parent = [||];
    start = [||];
    stop = [||];
  }

let grow t =
  let size = max 1024 (2 * Array.length t.start) in
  let ext a fill =
    let b = Array.make size fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- ext t.name "";
  t.req <- ext t.req 0;
  t.parent <- ext t.parent 0;
  t.start <- ext t.start 0.;
  t.stop <- ext t.stop 0.

(* Open a span; returns its id, or -2 once the store is full.  Children
   of a dropped span are dropped too. *)
let open_ t ~req ~parent name ~start =
  if t.n >= t.cap || parent < -1 then begin
    t.dropped <- t.dropped + 1;
    -2
  end
  else begin
    if t.n = Array.length t.start then grow t;
    let id = t.n in
    t.name.(id) <- name;
    t.req.(id) <- req;
    t.parent.(id) <- parent;
    t.start.(id) <- start;
    t.stop.(id) <- start;
    t.n <- id + 1;
    id
  end

let close t id ~stop = if id >= 0 then t.stop.(id) <- stop

let record t ~req ~parent name ~start ~stop =
  let id = open_ t ~req ~parent name ~start in
  close t id ~stop;
  id

(* Time [f] as one span; [f] receives the span id to parent its own
   children on. *)
let time t ~req ~parent name f =
  let id = open_ t ~req ~parent name ~start:(Clock.now ()) in
  let r = f id in
  close t id ~stop:(Clock.now ());
  r

let length t = t.n
let dropped t = t.dropped

(* Self time of every span: its duration minus the union of its
   children's intervals clipped to it. *)
let self_times t =
  let children = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then children.(p) <- i :: children.(p)
  done;
  Array.init t.n (fun i ->
      let lo = t.start.(i) and hi = t.stop.(i) in
      let kids =
        List.map (fun c -> (Float.max lo t.start.(c), Float.min hi t.stop.(c))) children.(i)
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0., neg_infinity) kids
      in
      hi -. lo -. covered)

(* Per span name: (count, total self seconds), in first-seen order. *)
let self_by_name t =
  let self = self_times t in
  let tbl = Hashtbl.create 16 and order = ref [] in
  for i = 0 to t.n - 1 do
    let nm = t.name.(i) in
    match Hashtbl.find_opt tbl nm with
    | Some (c, s) -> Hashtbl.replace tbl nm (c + 1, s +. self.(i))
    | None ->
        order := nm :: !order;
        Hashtbl.replace tbl nm (1, self.(i))
  done;
  List.rev_map (fun nm -> (nm, Hashtbl.find tbl nm)) !order

(* One JSON object per line: id, parent, request, name, start and stop in
   microseconds relative to the first span, and self time. *)
let write_jsonl t path =
  let self = self_times t in
  let t0 = if t.n = 0 then 0. else t.start.(0) in
  Out_channel.with_open_text path (fun oc ->
      for i = 0 to t.n - 1 do
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start_us\":%.1f,\"stop_us\":%.1f,\"self_us\":%.1f}\n"
          i t.parent.(i) t.req.(i) t.name.(i)
          ((t.start.(i) -. t0) *. 1e6)
          ((t.stop.(i) -. t0) *. 1e6)
          (self.(i) *. 1e6)
      done)
