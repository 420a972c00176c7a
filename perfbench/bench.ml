(* The benchmark of record: one workload, one seed, one run.

     bench.exe --workload audit|serve|enforce --seed N --seconds S --trace 0|1

   An untraced run (--trace 0) reports the end-to-end metrics; a traced
   run (--trace 1) reports the per-layer metrics from spans the
   benchmark records around its calls into each layer.  The last line
   of standard output is the result:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}};
   the line before it records the run's settings, the host's measured
   parallel capacity and further figures. *)

let workloads = [ ("audit", Wl_audit.run); ("serve", Wl_serve.run); ("enforce", Wl_enforce.run) ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload audit|serve|enforce --seed N --seconds S --trace 0|1";
  exit 2

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"
let json_obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let specs =
    [
      ("--workload", Arg.Set_string workload, " audit, serve or enforce");
      ("--seed", Arg.Set_int seed, " input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, " how long the run measures");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
  in
  (try Arg.parse_argv Sys.argv specs (fun _ -> raise (Arg.Bad "no positional arguments")) ""
   with Arg.Bad _ | Arg.Help _ -> usage ());
  let run = match List.assoc_opt !workload workloads with Some r -> r | None -> usage () in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let traced = !trace = 1 in
  let capacity = Host.capacity () in
  let o = run ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:traced ~capacity in
  let metrics =
    if traced then
      List.map (fun (name, v) -> (name, v, List.assoc name Wl.layer_units)) (Wl.all_layers o.Wl.layers)
    else List.map (fun (name, u) -> (name, List.assoc name o.Wl.end_to_end, u)) Wl.end_to_end_units
  in
  (* a metric that is not a number is a wrong answer too *)
  let bad = List.length (List.filter (fun (_, v, _) -> not (Float.is_finite v)) metrics) in
  let attempted = o.Wl.attempted + List.length metrics and failed = o.Wl.failed + bad in
  print_endline
    (json_obj
       ([
          ("workload", Printf.sprintf "%S" !workload);
          ("seed", string_of_int !seed);
          ("seconds", string_of_int !seconds);
          ("trace", string_of_int !trace);
          ("host_capacity", json_float capacity);
          ("error_rate", json_float (float_of_int failed /. float_of_int attempted));
        ]
       @ List.map (fun (k, v) -> (k, json_float v)) o.Wl.info));
  print_endline
    (json_obj
       [
         ("correct", string_of_bool (failed = 0));
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ( "metrics",
           json_obj
             (List.map
                (fun (name, v, u) ->
                  (name, json_obj [ ("value", json_float v); ("unit", Printf.sprintf "%S" u) ]))
                metrics) );
       ])
