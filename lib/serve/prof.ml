module Rt = Adept_obs.Request_trace

type sample = { ps_stage : Rt.stage; ps_start : float; ps_stop : float }

type t = {
  now : unit -> float;
  mutable samples : sample list;  (* newest first *)
}

let create ~now = { now; samples = [] }

let record t ~stage ~start ~stop =
  t.samples <- { ps_stage = stage; ps_start = start; ps_stop = stop } :: t.samples

let time t ~stage f =
  match t with
  | None -> f ()
  | Some t -> (
      let start = t.now () in
      match f () with
      | v ->
          record t ~stage ~start ~stop:(t.now ());
          v
      | exception e ->
          record t ~stage ~start ~stop:(t.now ());
          raise e)

let samples t = List.rev t.samples

let graft t store h ~parent =
  List.fold_left
    (fun parent s ->
      Rt.add_span store h ~parent ~kind:(Rt.Stage s.ps_stage) ~node:(-1)
        ~start:s.ps_start ~stop:s.ps_stop)
    parent (samples t)
