(* Reply verification: every [Plan_ok], [Replan_ok] and [Observe_ok] must
   match, byte for byte, what [Render.plan]/[replan]/[observe] produce
   in-process for the same parameters.

   On the timed path the check is only a comparison: the first reply to
   each distinct request is kept, and every later reply to the same
   request must equal it.  The kept replies are recomputed in-process
   after the timed window — all of them when every request is to be
   checked, otherwise a seeded sample of stream positions. *)

module P = Adept_serve.Protocol
module Render = Adept_serve.Render

(* The comparable part of a reply: [cached] says where the answer came
   from, not what it is. *)
type answer = Plan of string * float * int | Replan of string * float | Observe of string * float

let answer_of = function
  | P.Plan_ok { text; rho; nodes_used; _ } -> Some (Plan (text, rho, nodes_used))
  | P.Replan_ok { text; rho_after } -> Some (Replan (text, rho_after))
  | P.Observe_ok { text; throughput } -> Some (Observe (text, throughput))
  | _ -> None

let same a b =
  match (a, b) with
  | Plan (t, r, n), Plan (t', r', n') -> String.equal t t' && Float.equal r r' && n = n'
  | Replan (t, r), Replan (t', r') | Observe (t, r), Observe (t', r') -> String.equal t t' && Float.equal r r'
  | _ -> false

let kind_matches req a =
  match (req, a) with
  | P.Plan _, Plan _ | P.Replan _, Replan _ | P.Observe _, Observe _ -> true
  | _ -> false

(* What adept computes in-process for [req]. *)
let expected = function
  | P.Plan p -> Result.map (fun (t, r, n) -> Plan (t, r, n)) (Render.plan p)
  | P.Replan r -> Result.map (fun (t, r) -> Replan (t, r)) (Render.replan r)
  | P.Observe o -> Result.map (fun (t, r) -> Observe (t, r)) (Render.observe o)
  | _ -> Error "not a planning request"

(* Requests differ deep inside the spec (a seed, a power), beyond the
   default hash's reach. *)
module Seen = Hashtbl.Make (struct
  type t = P.request

  let equal = ( = )
  let hash = Hashtbl.hash_param 64 256
end)

type t = {
  seed : int;
  every : int;  (** recompute stream positions [i] with [hash (seed, i) mod every = 0] *)
  cap : int;  (** at most this many recomputations *)
  seen : answer Seen.t;
  mutable to_check : (P.request * answer) list;
  mutable queued : int;
}

(* [every = 1] recomputes every distinct request. *)
let create ~seed ~every ~cap = { seed; every; cap; seen = Seen.create 1024; to_check = []; queued = 0 }

let sampled t idx = t.every <= 1 || Hashtbl.hash (t.seed, idx) mod t.every = 0

(* The timed-path check: [false] on a wrong reply kind or a reply that
   differs from an earlier one to the same request. *)
let check t idx req resp =
  match answer_of resp with
  | None -> false
  | Some a when not (kind_matches req a) -> false
  | Some a -> (
      match Seen.find_opt t.seen req with
      | Some first -> same first a
      | None ->
          Seen.add t.seen req a;
          if sampled t idx && t.queued < t.cap then begin
            t.to_check <- (req, a) :: t.to_check;
            t.queued <- t.queued + 1
          end;
          true)

(* Recompute the kept replies; returns (checked, mismatches). *)
let finish t =
  let bad =
    List.fold_left
      (fun bad (req, a) -> match expected req with Ok e when same e a -> bad | _ -> bad + 1)
      0 t.to_check
  in
  (t.queued, bad)
