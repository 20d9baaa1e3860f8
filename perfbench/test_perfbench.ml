(* Tests of the benchmark's own code.

     test_perfbench.exe ADEPT_EXE BENCHMARK_JSON

   The request streams are pure functions of the seed, the percentile
   helper honours the ten-samples-beyond rule, and two short traced runs
   against a real `adept serve` show that each workload does what it
   claims and that every metric name is one BENCHMARK.json declares. *)

open Perfbench
module P = Adept_serve.Protocol
module Json = Adept_serve.Json

let adept, benchmark_json =
  match Sys.argv with
  | [| _; adept; json |] -> (adept, json)
  | _ ->
      prerr_endline "usage: test_perfbench.exe ADEPT_EXE BENCHMARK_JSON";
      exit 2

let stream kind ~seed n =
  let w = Workload.create kind ~seed in
  List.init n (fun i -> P.encode_request { P.id = i; trace = None; request = Workload.next w })

let test_stream_determinism () =
  List.iter
    (fun kind ->
      let name = Workload.name kind in
      Alcotest.(check (list string)) (name ^ ": same seed, same stream") (stream kind ~seed:7 300) (stream kind ~seed:7 300);
      Alcotest.(check bool) (name ^ ": another seed, another stream") false (stream kind ~seed:7 300 = stream kind ~seed:8 300))
    Workload.all

let test_mixed_shape () =
  let w = Workload.create Workload.Mixed_churn ~seed:3 in
  let plans = ref 0 and replans = ref 0 and observes = ref 0 in
  for _ = 1 to 10_000 do
    match Workload.next w with
    | P.Plan _ -> incr plans
    | P.Replan _ -> incr replans
    | P.Observe _ -> incr observes
    | _ -> ()
  done;
  let near what share count = Alcotest.(check bool) what true (Float.abs ((float_of_int count /. 10_000.) -. share) < 0.01) in
  near "90% plans" 0.90 !plans;
  near "8% replans" 0.08 !replans;
  near "2% observes" 0.02 !observes

let test_percentile_rule () =
  let sorted n = Array.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option (float 0.))) "1000 samples leave 10 beyond p99" (Some 990.) (Stat.tail_percentile (sorted 1000) 0.99);
  Alcotest.(check (option (float 0.))) "999 samples leave 9: refused" None (Stat.tail_percentile (sorted 999) 0.99);
  Alcotest.(check int) "beyond p99 of 1100" 11 (Stat.beyond ~p:0.99 1100);
  Alcotest.(check (float 0.)) "median" 50. (Stat.percentile (sorted 100) 0.5);
  Alcotest.(check (float 0.)) "median absolute deviation" 1. (Stat.mad [ 1.; 2.; 3.; 4.; 100. ])

let test_self_time () =
  let s = Spans.create () in
  let root = Spans.record s ~req:1 ~parent:(-1) "root" ~start:0. ~stop:10. in
  ignore (Spans.record s ~req:1 ~parent:root "a" ~start:1. ~stop:4.);
  ignore (Spans.record s ~req:1 ~parent:root "b" ~start:3. ~stop:6.);
  let self = Spans.self_times s in
  Alcotest.(check (float 1e-9)) "parent minus the union of its children" 5. self.(0);
  Alcotest.(check (float 1e-9)) "leaf" 3. self.(1)

let names_of section =
  let doc =
    match Json.of_string (In_channel.with_open_text benchmark_json In_channel.input_all) with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  Option.get (Option.bind (Json.member section doc) Json.to_list)
  |> List.map (fun mt -> Option.get (Option.bind (Json.member "name" mt) Json.to_string_v))

let valid_name n =
  n <> "" && String.for_all (fun c -> match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false) n

let traced kind =
  let dir = "perfbench-test" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Bench.run { Bench.adept; kind; seed = 5; seconds = 1.0; trace = true; dir }

let metric (r : Bench.result) name =
  match List.find_opt (fun (mt : Bench.metric) -> mt.Bench.name = name) (r.Bench.e2e @ r.Bench.layers) with
  | Some mt -> mt.Bench.value
  | None -> Alcotest.failf "no metric %s" name

let check_names (r : Bench.result) =
  let names l = List.map (fun (mt : Bench.metric) -> mt.Bench.name) l in
  List.iter (fun n -> Alcotest.(check bool) (n ^ " is a valid name") true (valid_name n)) (names (r.Bench.e2e @ r.Bench.layers));
  Alcotest.(check (list string)) "end-to-end metrics as declared" (names_of "end_to_end") (names r.Bench.e2e);
  Alcotest.(check (list string)) "per-layer metrics as declared" (names_of "per_layer") (names r.Bench.layers)

let test_warm_hit () =
  let r = traced Workload.Warm_hit in
  Alcotest.(check int) "no failures" 0 r.Bench.failed;
  check_names r;
  Alcotest.(check (float 0.)) "every timed request hits the cache" 1.0 (metric r "cache.hit_ratio");
  Alcotest.(check (float 0.)) "nothing reaches a worker" 0. (metric r "cache.misses")

let test_cold_plan () =
  let r = traced Workload.Cold_plan in
  Alcotest.(check int) "no failures" 0 r.Bench.failed;
  check_names r;
  Alcotest.(check (float 0.)) "no cache hits" 0. (metric r "cache.hits");
  Alcotest.(check (float 0.)) "nothing coalesces" 0. (metric r "server.coalesced")

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perfbench"
    [
      ( "workload",
        [
          Alcotest.test_case "seeded streams" `Quick test_stream_determinism;
          Alcotest.test_case "mixed-churn shares" `Quick test_mixed_shape;
        ] );
      ( "stat",
        [ Alcotest.test_case "ten samples beyond" `Quick test_percentile_rule; Alcotest.test_case "self time" `Quick test_self_time ]
      );
      ( "served",
        [ Alcotest.test_case "warm-hit hits" `Slow test_warm_hit; Alcotest.test_case "cold-plan misses" `Slow test_cold_plan ]
      );
    ]
