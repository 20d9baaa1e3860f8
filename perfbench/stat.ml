(* Order statistics for the benchmark's reports.

   Percentiles are nearest-rank on a sorted array.  A tail percentile is
   only reported as measured when at least [min_beyond] samples lie
   beyond it: with fewer, the value is one of a handful of outliers and
   does not repeat run to run. *)

let min_beyond = 10

(* 1-based nearest rank of quantile [p] among [n] samples.  The epsilon
   keeps [0.99 *. 1000.] from rounding up to rank 991. *)
let rank ~p n = max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))))

let beyond ~p n = if n = 0 then 0 else n - rank ~p n

let supported ~p n = beyond ~p n >= min_beyond

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(rank ~p n - 1)

(* [Some v] only when the rule above holds. *)
let tail_percentile sorted p =
  if supported ~p (Array.length sorted) then Some (percentile sorted p) else None

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l = percentile (sorted_of_list l) 0.5

(* Median absolute deviation. *)
let mad l =
  let m = median l in
  median (List.map (fun x -> Float.abs (x -. m)) l)

let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* Growable float buffer: latency samples accumulate here without a
   list cell per request. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1
end

(* All samples of [bufs], sorted. *)
let sorted_of_arrays bufs =
  let s = Array.concat (List.map (fun (b : Samples.t) -> Array.sub b.Samples.a 0 b.Samples.n) bufs) in
  Array.sort Float.compare s;
  s
