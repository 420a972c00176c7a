(* Spans the benchmark records around its own calls into each layer of
   SEPAR (the program itself is not instrumented here).  A span has a
   name, start, end and the span that was open when it began; spans
   stay in memory until the run reports.

   Off by default: [span name f] is then just [f ()], so untraced runs
   pay one branch per boundary. *)

type span = {
  id : int;
  parent : int;  (** enclosing span id, or -1 for a root *)
  name : string;
  start : float;  (** seconds *)
  stop : float;
}

let enabled = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let enable () = enabled := true
let disable () = enabled := false

let reset () =
  spans := [];
  stack := [];
  next_id := 0

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        stack := List.tl !stack;
        spans := { id; parent; name; start; stop } :: !spans)
      f
  end

let duration s = s.stop -. s.start

(* Durations of every span called [name], in milliseconds. *)
let durations_ms name =
  List.filter_map
    (fun s -> if s.name = name then Some (1000.0 *. duration s) else None)
    !spans

let count name = List.length (durations_ms name)
let busy_ms name = Stats.sum (durations_ms name)

(* Total time covered by root spans, in milliseconds: the share of a
   phase's wall time the recorded layers account for. *)
let root_busy_ms () =
  Stats.sum
    (List.filter_map
       (fun s -> if s.parent < 0 then Some (1000.0 *. duration s) else None)
       !spans)
