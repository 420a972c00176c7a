(* What every workload reports, and helpers they share. *)

open Separ
module Generator = Separ_workload.Generator
module Metrics = Separ_obs.Metrics

let now = Unix.gettimeofday

(* Seconds [f] takes, with its result. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

type outcome = {
  attempted : int;  (** operations checked against a known answer *)
  failed : int;  (** of which gave a wrong answer *)
  end_to_end : (string * float) list;  (** by name, see [end_to_end_units] *)
  layers : (string * float) list;  (** traced runs only; see [layer_units] *)
  info : (string * float) list;  (** further figures, for the log *)
}

(* End-to-end metrics every workload reports from an untraced run.
   [peak_rss_mb] is measured by run.py around the process. *)
let end_to_end_units =
  [
    ("setup_s", "s");
    ("throughput_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
  ]

(* Per-layer metrics every traced run reports; a layer the workload
   bypasses reads 0.  Names are [module.metric]. *)
let layer_units =
  [
    ("ame.extract_ms", "ms"); ("ame.apps", "count"); ("ame.instrs_per_ms", "1/ms");
    ("relog.translate_ms", "ms"); ("relog.vars", "count"); ("relog.clauses", "count");
    ("relog.translate_hit_ratio", "ratio");
    ("sat.solve_ms", "ms"); ("sat.conflicts", "count"); ("sat.propagations", "count");
    ("sat.solves", "count"); ("sat.unknowns", "count");
    ("ase.analyze_ms", "ms"); ("ase.scenarios", "count"); ("ase.degraded", "count");
    ("pool.forks", "count"); ("pool.batches", "count"); ("pool.respawns", "count");
    ("pool.speedup", "ratio"); ("pool.efficiency", "ratio");
    ("cache.hit_ratio", "ratio"); ("cache.find_us", "us"); ("cache.key_us", "us");
    ("cache.stores", "count");
    ("cache.corrupt", "count"); ("cache.bytes", "bytes");
    ("serve.drain_ms", "ms"); ("serve.queue_wait_ms", "ms"); ("serve.select_us", "us");
    ("serve.candidates", "count"); ("serve.selected_ratio", "ratio");
    ("serve.lateness_ms", "ms");
    ("policy.derive_ms", "ms"); ("policy.compile_ms", "ms"); ("policy.decide_ns", "ns");
    ("policy.rules", "count");
    ("runtime.launch_ms", "ms"); ("runtime.launch_unenforced_ms", "ms");
    ("runtime.swap_us", "us"); ("runtime.hook_checks", "count");
    ("runtime.denied", "count"); ("runtime.prompted", "count");
    ("host.capacity", "ratio"); ("trace.wall_ms", "ms"); ("trace.coverage", "ratio");
    ("trace.overhead_pct", "%");
  ]

(* Closed-loop throughput is the median rate over chunks of at least
   this many seconds (see [Stats.median_rate]). *)
let rate_span = 1.0

(* Setup is repeated [reps] times and reported as the median, so one
   slow repetition does not move it.  The heap is compacted before each
   repetition, so none pays for collecting the one before it, and after
   the last, whose state is kept, so the discarded repetitions do not
   weigh on what follows (every fork copies the parent's page tables). *)
let repeat_setup ~reps f =
  let rec go k times =
    Gc.compact ();
    let state, dt = timed f in
    if k > 1 then go (k - 1) (dt :: times)
    else begin
      Gc.compact ();
      (state, Stats.median (dt :: times))
    end
  in
  go reps []

(* Program-reported counters, read from SEPAR's own metrics registry
   (enabled in traced runs only). *)
let counter name = float_of_int (Metrics.counter_value (Metrics.counter name))

(* Traced runs switch on the benchmark's spans and SEPAR's counters
   together, so tracing overhead covers both. *)
let tracing on =
  if on then begin
    Ledger.reset ();
    Ledger.enable ();
    Metrics.reset ();
    Metrics.enable ()
  end
  else begin
    Ledger.disable ();
    Metrics.disable ()
  end

(* The metrics every traced run shares: the host's capacity, and the
   traced phase's wall time, the share of it (less idle waiting) that
   the recorded layer spans cover, and its slowdown over the same work
   untraced. *)
let trace_layers ~capacity ~wall ~idle ~traced ~untraced =
  [
    ("host.capacity", capacity);
    ("trace.wall_ms", 1000.0 *. wall);
    ("trace.coverage", Stats.ratio (Ledger.root_busy_ms ()) (1000.0 *. (wall -. idle)));
    ("trace.overhead_pct", 100.0 *. Stats.ratio (traced -. untraced) untraced);
  ]

(* The traced per-layer busy time must account for this share of the
   traced wall time, or the run counts a failure. *)
let min_coverage = 0.9

(* A wrong answer, described on standard error. *)
let wrong fmt = Printf.eprintf ("wrong answer: " ^^ fmt ^^ "\n%!")

(* A traced run's outcome: the workload's own checks plus the coverage
   check. *)
let traced_outcome ~attempted ~failed ~layers ~info =
  let coverage = List.assoc "trace.coverage" layers in
  let short = coverage < min_coverage in
  if short then wrong "layer spans cover %.1f%% of the traced wall time" (100.0 *. coverage);
  {
    attempted = attempted + 1;
    failed = (failed + if short then 1 else 0);
    end_to_end = [];
    layers;
    info;
  }

(* Median milliseconds of [n] calls of [f]. *)
let median_ms n f = Stats.median (List.init n (fun _ -> 1000.0 *. snd (timed f)))

(* Complete a workload's layer list: every name in [layer_units], in
   that order, 0 where the workload did not set it. *)
let all_layers set =
  List.map
    (fun (name, _) -> (name, Option.value ~default:0.0 (List.assoc_opt name set)))
    layer_units

(* The vulnerability signature a generator injection must trigger. *)
let signature_of = function
  | Generator.Hijack -> "intent_hijack"
  | Generator.Launch -> "service_launch"
  | Generator.Privesc -> "privilege_escalation"
  | Generator.Leak -> "information_leakage"

(* Injections of [pkg] not found in [report] over [bundle]. *)
let missed ~report ~bundle ~pkg injected =
  List.filter
    (fun k -> not (List.mem pkg (Ase.vulnerable_apps report bundle (signature_of k))))
    injected

(* Program-reported solver and translation totals over ASE reports. *)
let report_layers reports =
  let sumf f = Stats.sum (List.map f reports) in
  let sumi f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 reports) in
  [
    ("relog.translate_ms", sumf (fun r -> r.Ase.r_construction_ms));
    ("relog.vars", sumi (fun r -> r.Ase.r_vars));
    ("relog.clauses", sumi (fun r -> r.Ase.r_clauses));
    ( "relog.translate_hit_ratio",
      Stats.ratio
        (counter "relog.translate_cache_hits")
        (counter "relog.translate_cache_hits" +. counter "relog.translate_cache_misses") );
    ("sat.solve_ms", sumf (fun r -> r.Ase.r_solving_ms));
    ("sat.conflicts", sumi (fun r -> r.Ase.r_solver.Separ_sat.Solver.s_conflicts));
    ("sat.propagations", sumi (fun r -> r.Ase.r_solver.Separ_sat.Solver.s_propagations));
    ("sat.solves", counter "sat.solves");
    ("sat.unknowns", counter "sat.unknowns");
    ("ase.scenarios", sumi (fun r -> List.length r.Ase.r_vulnerabilities));
    ("ase.degraded", sumi (fun r -> List.length r.Ase.r_degraded));
    ("pool.forks", counter "pool.forks");
    ("pool.batches", counter "pool.batches");
    ("pool.respawns", counter "pool.respawns");
  ]
