(* An open-loop load generator for a single-threaded service with its
   own queue.  Event [i] is due at [t0 + i / rate] whether or not the
   service kept up.  The generator submits every event that is due,
   then drains the queue; while a drain runs the generator is stalled,
   so events fall due unsubmitted.  Each event is therefore timed from
   its due time, and the generator's lateness (submission minus due
   time) is reported beside it: a stall shows as latency, never as an
   idle gap. *)

type sample = {
  due : float;
  submitted : float;
  started : float;  (** the service began this event *)
  finished : float;
}

let latency s = s.finished -. s.due
let lateness s = s.submitted -. s.due
let queue_wait s = s.started -. s.submitted

type run = {
  samples : sample list;  (** in event order *)
  slept : float;  (** seconds the generator waited for the next due time *)
}

(* [drain ()] serves everything submitted so far and returns each
   event's service time (seconds) in submission order.  Events are
   generated until [duration] has passed or [available] are used. *)
let run ~now ~sleep ~rate ~duration ~available ~submit ~drain =
  let t0 = now () in
  let due i = t0 +. (float_of_int i /. rate) in
  let samples = ref [] and slept = ref 0.0 in
  let next = ref 0 in
  while !next < available && due !next < t0 +. duration do
    let wait = due !next -. now () in
    if wait > 0.0 then begin
      sleep wait;
      slept := !slept +. wait
    end;
    let batch = ref [] in
    while !next < available && due !next <= now () do
      submit !next;
      batch := (due !next, now ()) :: !batch;
      incr next
    done;
    let start = now () in
    let services = drain () in
    let clock = ref start in
    List.iter2
      (fun (due, submitted) service ->
        let started = !clock in
        clock := started +. service;
        samples := { due; submitted; started; finished = !clock } :: !samples)
      (List.rev !batch) services
  done;
  { samples = List.rev !samples; slept = !slept }
