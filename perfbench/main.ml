(* perfbench: adept's benchmark.

     main.exe --adept PATH --workload NAME --seed N --seconds S --trace 0|1

   Starts `adept serve` from PATH, drives one workload against it from a
   single closed-loop process, and prints every metric by name with its
   unit; the last line of standard output is the result as one JSON
   object.  With --trace 0 the metrics are the end-to-end ones, with
   --trace 1 the per-layer breakdown.  Exits non-zero when a reply was
   wrong or missing. *)

module Json = Adept_serve.Json
open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --adept PATH --workload warm-hit|cold-plan|mixed-churn --seed N --seconds S --trace 0|1 [--dir DIR]";
  exit 2

let () =
  let adept = ref None and workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref false and dir = ref ".perfbench" in
  let rec parse = function
    | "--adept" :: v :: tl -> adept := Some v; parse tl
    | "--workload" :: v :: tl -> (
        match Workload.of_string v with Some k -> workload := Some k; parse tl | None -> usage ())
    | "--seed" :: v :: tl -> seed := int_of_string_opt v; parse tl
    | "--seconds" :: v :: tl -> (
        match float_of_string_opt v with Some s when s > 0. -> seconds := Some s; parse tl | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: tl -> trace := v = "1"; parse tl
    | "--dir" :: v :: tl -> dir := v; parse tl
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!adept, !workload, !seed, !seconds) with
  | Some adept, Some kind, Some seed, Some seconds ->
      (* A server that dies mid-write must surface as a transport
         failure, not kill the generator. *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      if not (Sys.file_exists !dir) then Sys.mkdir !dir 0o755;
      let r = Bench.run { Bench.adept; kind; seed; seconds; trace = !trace; dir = !dir } in
      let metrics = if !trace then r.Bench.layers else r.Bench.e2e in
      Printf.printf "perfbench %s seed %d, %g s%s\n" (Workload.name kind) seed seconds
        (if !trace then ", traced" else "");
      List.iter print_endline r.Bench.notes;
      let print (mt : Bench.metric) = Printf.printf "  %-34s %16.4f %s\n" mt.Bench.name mt.Bench.value mt.Bench.unit_ in
      print_endline "end-to-end:";
      List.iter print r.Bench.e2e;
      if !trace then begin
        print_endline "per-layer:";
        List.iter print r.Bench.layers
      end;
      let correct = r.Bench.failed = 0 in
      let json =
        Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int r.Bench.attempted);
            ("failed", Json.Int r.Bench.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (mt : Bench.metric) ->
                     (* JSON has no NaN: a layer the run could not measure
                        reads -1 *)
                     let v = if Float.is_finite mt.Bench.value then mt.Bench.value else -1. in
                     (mt.Bench.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String mt.Bench.unit_) ]))
                   metrics) );
          ]
      in
      print_endline (Json.to_string json);
      exit (if correct then 0 else 1)
  | _ -> usage ()
