open Adept_platform
module Params = Adept_model.Params

type t = {
  params : Params.t;
  bandwidth : float;
  wapp : float;
  sorted : Node.t array;
  server_sched : float array;
  (* Prefix sums of the Eq. 15 service terms over the rest
     (sorted.(1..n-1)), anchored at index 1 and accumulated in exactly
     the fold order of [Throughput.service]: ratio_rest.(i) and
     rate_rest.(i) are the sums over sorted.(1..i-1), so the full-rest
     sums live at index n.  Anchoring at 1 (not 0) matters: a fold that
     starts at the second node must see the same sequence of roundings
     as [Service_power.of_servers] on the rest list. *)
  ratio_rest : float array;
  rate_rest : float array;
  (* Equal-power nodes are contiguous in the sorted order (the sort key
     is a monotone function of power, ties broken by power); each run is
     a power class.  Capacity and feasibility depend on a node only
     through its power, so per-class memoization is exact. *)
  class_of : int array;
  class_count : int;
  (* class_start.(c) is class c's first index; class_start.(class_count)
     = n closes the last class. *)
  class_start : int array;
  (* The [min_servers] scan terms, computed once with the scan's own
     operations: rate.(i) is node i's [power / wapp]; numer.(k) is the
     Eq. 15 numerator [1 + wpre * (1/wapp + ... + 1/wapp)] after [k]
     servers, the inverse sum folded from 0.0 in the scan's order (it
     depends on the count alone, never on which nodes were taken). *)
  comm : float;
  rate : float array;
  numer : float array;
  (* In-class running sums: class_run.(i) is [rate] folded from 0.0 over
     class_start.(c) .. i, c = class_of i.  Every term of one class is
     the same float, so a scan that starts anywhere inside a class and
     has not left it holds exactly class_run.(class_start + count - 1). *)
  class_run : float array;
}

let create params ~bandwidth ~wapp nodes =
  let sorted = Array.of_list (Sched_power.sort_nodes params ~bandwidth nodes) in
  let n = Array.length sorted in
  let server_sched =
    Array.map (fun node -> Sched_power.server params ~bandwidth ~node) sorted
  in
  let ratio_rest = Array.make (n + 1) 0.0 in
  let rate_rest = Array.make (n + 1) 0.0 in
  for i = 1 to n - 1 do
    ratio_rest.(i + 1) <- ratio_rest.(i) +. (params.Params.server.wpre /. wapp);
    rate_rest.(i + 1) <- rate_rest.(i) +. (Node.power sorted.(i) /. wapp)
  done;
  let class_of = Array.make (max n 1) 0 in
  let classes = ref 0 in
  for i = 0 to n - 1 do
    if i > 0 && Node.power sorted.(i) <> Node.power sorted.(i - 1) then incr classes;
    class_of.(i) <- !classes
  done;
  let class_count = if n = 0 then 0 else !classes + 1 in
  let class_start = Array.make (class_count + 1) n in
  for i = n - 1 downto 0 do
    class_start.(class_of.(i)) <- i
  done;
  let rate = Array.map (fun node -> Node.power node /. wapp) sorted in
  let numer = Array.make (n + 1) 1.0 in
  let inv = ref 0.0 in
  for k = 1 to n do
    inv := !inv +. (1.0 /. wapp);
    numer.(k) <- 1.0 +. (params.Params.server.wpre *. !inv)
  done;
  let class_run = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let before = if i = class_start.(class_of.(i)) then 0.0 else class_run.(i - 1) in
    class_run.(i) <- before +. rate.(i)
  done;
  {
    params;
    bandwidth;
    wapp;
    sorted;
    server_sched;
    ratio_rest;
    rate_rest;
    class_of;
    class_count;
    class_start;
    comm = (params.Params.server.sreq +. params.Params.server.srep) /. bandwidth;
    rate;
    numer;
    class_run;
  }

let size t = Array.length t.sorted
let node t i = t.sorted.(i)
let nodes t = t.sorted
let bandwidth t = t.bandwidth
let wapp t = t.wapp
let server_sched t i = t.server_sched.(i)
let class_of t i = t.class_of.(i)
let class_count t = t.class_count

let hi_sched t =
  Sched_power.agent t.params ~bandwidth:t.bandwidth ~node:t.sorted.(0) ~children:1

(* The reference folds [Float.max] over the rest's server scheduling
   powers; server scheduling power is FP-monotone in raw power and power
   is non-increasing along the sorted order, so the maximum is the first
   rest element's. *)
let hi_predict t = t.server_sched.(1)

let hi_service t =
  let n = size t in
  Service_power.of_sums t.params ~bandwidth:t.bandwidth ~ratio_sum:t.ratio_rest.(n)
    ~rate_sum:t.rate_rest.(n)

let usable_until t ~target =
  let n = size t in
  (* First index whose Eq. 14 server power falls below [target]; the
     predicate is monotone along the sorted order (power non-increasing,
     server power FP-monotone in power), so a binary search lands on the
     same boundary a linear scan would. *)
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.server_sched.(mid) >= target then lo := mid + 1 else hi := mid
  done;
  !lo

type scan = Servers of int | Overflow | Infeasible

(* Per-class answers of the in-class scan for one budget: counts
   1 .. scanned.(c) of class [c] have been tested, and found.(c) is the
   first that met the budget ([max_int] until one does).  The test at a
   count reads only the budget and the class-pure sums, so the entries
   stay valid for as long as the budget does; a new budget (the next
   probe) blanks them. *)
type memo = { mutable budget : float; scanned : int array; found : int array }

let memo t =
  let k = max 1 t.class_count in
  { budget = Float.nan; scanned = Array.make k 0; found = Array.make k max_int }

(* First count in 1 .. [limit] at which a scan inside class [c] meets the
   budget, or 0 if none does.  Each count of a class is tested at most
   once per budget. *)
let class_first t memo c ~limit =
  let found = memo.found.(c) in
  if found <= limit then found
  else if memo.scanned.(c) >= limit then 0
  else begin
    let start = t.class_start.(c) and budget = memo.budget in
    let k = ref memo.scanned.(c) and hit = ref 0 in
    while !hit = 0 && !k < limit do
      incr k;
      (* the scan's test, written out so no float is boxed *)
      let sum_rate = t.class_run.(start + !k - 1) in
      if sum_rate > 0.0 && t.numer.(!k) /. sum_rate <= budget then hit := !k
    done;
    memo.scanned.(c) <- !k;
    if !hit > 0 then memo.found.(c) <- !hit;
    !hit
  end

let min_servers t memo ~target ~usable ~from ~cap =
  let budget = (1.0 /. target) -. t.comm in
  if budget <= 0.0 then Infeasible
  else begin
    if not (Float.equal memo.budget budget) then begin
      memo.budget <- budget;
      Array.fill memo.scanned 0 (Array.length memo.scanned) 0;
      Array.fill memo.found 0 (Array.length memo.found) max_int
    end;
    (* The reference scans every index from [from], skipping unusable
       nodes without touching the sums.  Unusable nodes form a suffix
       ([usable] is the boundary), so stopping the scan at [usable] sees
       the same condition values: past it the sums are frozen and the
       first re-check decides.  [cap] bounds the prefix the caller could
       accept (direct + deep slots); once the count exceeds it, every
       later answer — a longer prefix or None — is rejected the same way,
       so the scan can stop without changing any decision.  The scan
       consumes every index in [from, usable), so the answer is fully
       described by its length.

       The scan tests count 0 (never met: the rate sum is 0), then adds
       one node per step and tests the new count.  While it stays inside
       the class of [from], its sums are the class-pure running sums, so
       that stretch is answered from the class memo; only a scan that
       runs on into the next class steps node by node from there. *)
    let from = max from 0 in
    if cap < 0 then Overflow
    else if from >= usable then Infeasible
    else begin
      let c = t.class_of.(from) in
      let room = min t.class_start.(c + 1) usable - from in
      let limit = if cap >= room then room else cap + 1 in
      let first = class_first t memo c ~limit in
      if first > 0 then Servers first
      else if limit > cap then Overflow
      else begin
        let i = ref (from + room) and count = ref room in
        let sum_rate = ref t.class_run.(t.class_start.(c) + room - 1) in
        let answer = ref Infeasible and scanning = ref true in
        while !scanning do
          if !i >= usable then scanning := false
          else begin
            sum_rate := !sum_rate +. t.rate.(!i);
            incr i;
            incr count;
            if !sum_rate > 0.0 && t.numer.(!count) /. !sum_rate <= budget then begin
              answer := Servers !count;
              scanning := false
            end
            else if !count > cap then begin
              answer := Overflow;
              scanning := false
            end
          end
        done;
        !answer
      end
    end
  end

(* [min_servers ~from:1 ~cap:max_int] found a prefix: the global
   infeasibility pre-check.  When false, every [min_servers] from any
   index fails too — a suffix's usable set is pointwise weaker at every
   count, its numerator is count-determined and identical, so its
   condition is harder at every step — and the whole build is
   infeasible. *)
let feasible t memo ~target ~usable =
  match min_servers t memo ~target ~usable ~from:1 ~cap:max_int with
  | Servers _ -> true
  | Overflow | Infeasible -> false
