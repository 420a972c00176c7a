(* Checks on the benchmark's own machinery; run by test_bench.py.

     bench_test.exe            run every check, exit 1 on a failure
     bench_test.exe child ok|raise
                               create a scratch directory, print its
                               path, then exit normally or by an
                               uncaught exception *)

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

(* Same seed, same bytes; another seed, other bytes. *)
let test_inputs_deterministic () =
  List.iter
    (fun w ->
      let a = Inputs.digest ~seed:1 w and b = Inputs.digest ~seed:1 w in
      let c = Inputs.digest ~seed:2 w in
      check (w ^ ": same seed gives identical inputs") (a = b);
      check (w ^ ": another seed gives different inputs") (a <> c))
    [ "audit"; "serve"; "enforce" ]

(* The serve mix holds in every stretch of the stream, whatever the seed. *)
let test_serve_mix () =
  List.iter
    (fun seed ->
      let stream = (Inputs.serve_inputs ~seed).Inputs.si_stream in
      let count kind =
        Array.fold_left
          (fun n (e : Inputs.serve_event) -> if e.se_kind = kind then n + 1 else n)
          0 (Array.sub stream 300 100)
      in
      check
        (Printf.sprintf "serve seed %d: events 300-399 hold 40 updates, 20 of each other kind" seed)
        (List.map count [ "update"; "reupload"; "new"; "remove" ] = [ 40; 20; 20; 20 ]))
    [ 1; 2 ]

(* A stall confined to one slice does not move a windowed statistic. *)
let test_windowed () =
  let xs = List.init 300 (fun i -> if i >= 100 && i < 110 then 100.0 else float_of_int (i mod 10)) in
  check "windowed p99 ignores a stall in one slice"
    (Stats.windowed ~windows:3 (Stats.percentile 0.99) xs = 9.0);
  check "windowed p99 of one slice is the plain p99"
    (Stats.windowed ~windows:1 (Stats.percentile 0.99) xs = Stats.percentile 0.99 xs)

(* A service that stalls on its first event: the generator cannot
   submit while it waits, so later events are submitted late.  Their
   latency must count from the due time, and the lateness must show. *)
let test_open_loop_lateness () =
  let clock = ref 0.0 in
  let served = ref 0 and queued = ref 0 in
  let run =
    Openloop.run
      ~now:(fun () -> !clock)
      ~sleep:(fun d -> clock := !clock +. d)
      ~rate:10.0 ~duration:2.0 ~available:1000
      ~submit:(fun _ -> incr queued)
      ~drain:(fun () ->
        let services =
          List.init !queued (fun k -> if !served + k = 0 then 1.0 else 0.01)
        in
        served := !served + !queued;
        queued := 0;
        List.iter (fun s -> clock := !clock +. s) services;
        services)
  in
  let s = Array.of_list run.Openloop.samples in
  check "open loop: every due event was served" (Array.length s = 20);
  check "open loop: the stall makes later events late" (Openloop.lateness s.(5) > 0.4);
  check "open loop: latency counts from the due time"
    (Array.for_all (fun x -> Openloop.latency x >= Openloop.lateness x +. 0.01 -. 1e-9) s);
  check "open loop: the stall shows in the latency" (Openloop.latency s.(1) > 0.9);
  check "open loop: the generator idles once it has caught up" (run.Openloop.slept > 0.5)

let test_tmpdir () =
  let a = Tmpdir.fresh "t" and b = Tmpdir.fresh "t" in
  check "scratch dirs are distinct" (a <> b);
  check "a scratch dir starts empty" (Sys.readdir a = [||]);
  Out_channel.with_open_bin (Filename.concat a "f") (fun oc -> output_string oc "x");
  Tmpdir.remove a;
  check "remove deletes a scratch dir and its files" (not (Sys.file_exists a));
  Tmpdir.remove b;
  List.iter
    (fun mode ->
      let ic = Unix.open_process_args_in Sys.executable_name [| Sys.executable_name; "child"; mode |] in
      let path = input_line ic in
      ignore (Unix.close_process_in ic);
      check
        (Printf.sprintf "a scratch dir is gone after its process exits (%s)" mode)
        (path <> "" && not (Sys.file_exists path)))
    [ "ok"; "raise" ]

let child mode =
  let dir = Tmpdir.fresh "child" in
  Out_channel.with_open_bin (Filename.concat dir "f") (fun oc -> output_string oc "x");
  print_endline dir;
  flush stdout;
  if mode = "raise" then failwith "deliberate"

let () =
  match Sys.argv with
  | [| _; "child"; mode |] -> child mode
  | _ ->
      test_inputs_deterministic ();
      test_serve_mix ();
      test_windowed ();
      test_open_loop_lateness ();
      test_tmpdir ();
      if !failures > 0 then exit 1
