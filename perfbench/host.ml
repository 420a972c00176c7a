(* Host calibration: the parallel capacity this machine actually
   delivers to two processes, which a virtualized 2-vCPU host can put
   well below 2.  Measured with a spin probe — one busy loop alone,
   then two forked loops together — so pool efficiency can be stated
   against measured capacity rather than the core count. *)

let spin n =
  let x = ref 0 in
  for i = 1 to n do
    x := (!x * 31) + i
  done;
  ignore (Sys.opaque_identity !x)

(* Wall time of [k] forked children each spinning [n] iterations. *)
let forked_wall k n =
  let t0 = Unix.gettimeofday () in
  let pids =
    List.init k (fun _ ->
        match Unix.fork () with
        | 0 ->
            spin n;
            Unix._exit 0
        | pid -> pid)
  in
  List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
  Unix.gettimeofday () -. t0

(* Throughput of two concurrent loops relative to one: 2.0 on two idle
   cores, 1.0 when they time-share one.  Median of three probes of
   about 0.1 s each. *)
let capacity () =
  let probe = 2_000_000 in
  let t0 = Unix.gettimeofday () in
  spin probe;
  let per_iter = (Unix.gettimeofday () -. t0) /. float_of_int probe in
  let n = max probe (int_of_float (0.1 /. Float.max per_iter 1e-10)) in
  Stats.median
    (List.init 3 (fun _ ->
         let alone = forked_wall 1 n in
         let pair = forked_wall 2 n in
         2.0 *. Stats.ratio alone pair))
