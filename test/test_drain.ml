(* Graceful drain of a real `adept serve` process under SIGTERM.

   Each cycle spawns the CLI's server on a fresh Unix socket, sends ONE
   SIGTERM and requires the process to exit 0 within five seconds,
   answering any in-flight request first.  A lost signal leaves the
   server blocked in [select], so it shows up as a cycle that never
   exits.  The cycles are many and short because the loss is a race. *)

module P = Adept_serve.Protocol
module Wire = Adept_serve.Wire

(* The CLI, a dune dependency of this test, sits at ../bin in the build
   tree. *)
let adept =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/adept_cli.exe"

let rec connect ?(attempts = 10_000) path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when attempts > 0 ->
      Unix.close fd;
      Unix.sleepf 0.0005;
      connect ~attempts:(attempts - 1) path

(* Spawn a server, wait until it accepts a connection, run [during]
   with the socket path, that connection's fd and the pid, then require
   a clean exit. *)
let cycle what during =
  let path = Filename.temp_file "adept-drain-test" ".sock" in
  Sys.remove path;
  let pid =
    Unix.create_process adept
      [| adept; "serve"; "--address"; "unix:" ^ path |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let fd =
    try connect path
    with e ->
      Unix.kill pid Sys.sigkill;
      raise e
  in
  during path fd pid;
  let t0 = Unix.gettimeofday () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () -. t0 > 5.0 ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.failf "%s: no exit within 5 s of one SIGTERM" what
    | 0, _ ->
        Unix.sleepf 0.002;
        wait ()
    | _, Unix.WEXITED 0 -> ()
    | _, Unix.WEXITED n -> Alcotest.failf "%s: exited with %d" what n
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
        Alcotest.failf "%s: killed or stopped by signal %d" what n
  in
  wait ();
  Unix.close fd

let call fd request =
  Wire.write_frame fd (P.encode_request { P.id = 1; trace = None; request });
  match P.decode_reply (Wire.read_frame fd) with
  | Ok { P.response; _ } -> response
  | Error e -> Alcotest.fail e

let stats fd =
  match call fd P.Stats with
  | P.Stats_ok _ -> ()
  | _ -> Alcotest.fail "expected Stats_ok"

(* A fresh heterogeneous 2,000-node plan: tens of milliseconds on a
   worker domain, never a cache hit. *)
let cold_plan seed =
  P.Plan
    {
      P.spec =
        P.Synthetic
          { nodes = 2000; power = 730.0; bandwidth = 1000.0; heterogeneous = true; seed };
      dgemm = 310;
      demand = None;
      strategy = "heuristic";
      use_cache = true;
    }

let cycles n what during () =
  for i = 1 to n do
    cycle (Printf.sprintf "%s cycle %d" what i) during
  done

let () =
  Alcotest.run "adept-drain"
    [
      ( "sigterm-drain",
        [
          (* answered a request, workers parked *)
          Alcotest.test_case "idle server exits 0" `Quick
            (cycles 40 "idle" (fun _ fd pid ->
                 stats fd;
                 Unix.kill pid Sys.sigterm));
          (* the socket just started accepting: the signal races start-up *)
          Alcotest.test_case "signal racing start-up exits 0" `Quick
            (cycles 40 "start-up" (fun _ _ pid -> Unix.kill pid Sys.sigterm));
          (* a cold plan on a worker: the drain still answers it *)
          Alcotest.test_case "mid-request drain answers, exits 0" `Quick
            (cycles 20 "mid-request" (fun path fd pid ->
                 let probe = connect path in
                 stats fd;
                 stats probe;
                 Wire.write_frame fd
                   (P.encode_request
                      { P.id = 2; trace = None; request = cold_plan (Random.bits ()) });
                 (* sent after the plan, on a connection the loop already
                    watches: the round that answers it has read the plan *)
                 stats probe;
                 Unix.kill pid Sys.sigterm;
                 (match P.decode_reply (Wire.read_frame fd) with
                 | Ok { P.response = P.Plan_ok _; _ } -> ()
                 | _ -> Alcotest.fail "expected Plan_ok");
                 Unix.close probe));
        ] );
    ]
