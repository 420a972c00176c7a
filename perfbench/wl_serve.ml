(* serve: the [separ serve] app-store daemon.  A store of
   [Inputs.serve_store_apps] small apps is cold-ingested at set-up (a
   daemon restart pays it), then a seeded stream of updates, new
   uploads, removes and identical re-uploads runs through
   [Serve.submit]/[Serve.drain] against a fresh cache directory: first
   as an open loop at [open_rate], then as a closed loop.  This
   exercises footprint selection, cache reads beside cache publishes,
   and the pool's per-event fan-out, where forking cannot pay. *)

open Separ
module Metrics = Separ_obs.Metrics

let jobs = 2

(* Events per second of the open-loop phase.  The closed-loop capacity
   of this workload is 62-87 events/s on a 2-vCPU Xeon VM, and fell to
   44-65 events/s while neighbouring load slowed the host.  At this
   rate the daemon runs at a third of its capacity or less even then,
   so latency measures service, not a backlog that comes and goes with
   the host. *)
let open_rate = 15.0

(* The open loop's share of a run; the closed loop has the rest.  The
   open loop's percentiles need the samples more than the closed loop's
   median rate over one-second chunks does. *)
let open_share = 2.0 /. 3.0

(* The verdict p99 is the median of the p99s of this many consecutive
   slices of the open loop's events, 100 each at 30 s: one stall of the
   host delays a queue of verdicts, which alone would set the p99 of a
   few hundred. *)
let p99_windows = 3

type daemon = {
  serve : Serve.t;
  dir : string;
  cache : Cache.t;
  store : (string, Inputs.packed) Hashtbl.t;  (** the store's current uploads *)
  traced : bool;
  mutable checked : int;
  mutable failed : int;
  mutable verdicts : Serve.verdict list;  (** traced runs, newest first *)
  mutable reports : Ase.report list;  (** fresh candidate reports, traced runs *)
  mutable probe : Cache.t option;  (** a second handle for timed finds *)
}

(* A daemon on a fresh cache directory with the initial store ingested. *)
let ingest ~traced (si : Inputs.serve_inputs) =
  let dir = Tmpdir.fresh "serve" in
  let cache = Cache.open_ ~dir () in
  let serve = Serve.create ~jobs ~cache () in
  let store = Hashtbl.create 256 in
  List.iter
    (fun (p : Inputs.packed) ->
      Hashtbl.replace store p.pkg p;
      Serve.submit serve (Serve.Upload (Inputs.apk p)))
    si.Inputs.si_initial;
  ignore (Serve.drain serve);
  {
    serve; dir; cache; store; traced; checked = 0; failed = 0; verdicts = []; reports = [];
    probe = None;
  }

let scope_bundle d pkg =
  Bundle.of_models (List.filter_map (Serve.model d.serve) (Serve.scope d.serve pkg))

(* Timed probes at the selection and cache boundaries for one upload:
   the footprint query the daemon makes, and cache finds on the keys
   the daemon stores under. *)
let probe_layers d apk =
  let pkg = Apk.package apk in
  let probe =
    match d.probe with
    | Some p -> p
    | None ->
        let p = Cache.open_ ~dir:d.dir () in
        d.probe <- Some p;
        p
  in
  Option.iter
    (fun model ->
      ignore (Ledger.span "serve.select" (fun () -> Footprint.affected (Serve.index d.serve) model)))
    (Serve.model d.serve pkg);
  (* building a key is the cache layer's work too: a digest of the APK,
     or of the encoded problem for a verdict *)
  let find tier key =
    let key = Ledger.span "cache.key" key in
    ignore (Ledger.span "cache.find" (fun () -> Cache.find probe ~tier ~key))
  in
  find Extract.cache_tier (fun () -> Extract.cache_key ~k1:true ~all_methods:false apk);
  let bundle = scope_bundle d pkg in
  List.iter
    (fun s -> find Ase.ase_cache_tier (fun () -> Ase.signature_fingerprint bundle s))
    (Signatures.all ())

(* Book-keeping and the known answer for one verdict: an upload's
   injected vulnerabilities are all in its verdict's report.  An upload
   that a later event of the same drain superseded (a remove, or another
   build of the package) is not checked: its report is gone or newer. *)
let settle d ~superseded (ev : Inputs.serve_event) (v : Serve.verdict) =
  if d.traced then d.verdicts <- v :: d.verdicts;
  match ev.se_upload with
  | None -> Hashtbl.remove d.store ev.se_pkg
  | Some p ->
      Hashtbl.replace d.store p.pkg p;
      if not superseded then begin
        d.checked <- d.checked + 1;
        let problem =
          match Serve.report d.serve p.pkg with
          | None -> Some "no report"
          | Some report -> (
              match Wl.missed ~report ~bundle:(scope_bundle d p.pkg) ~pkg:p.pkg p.injected with
              | [] -> None
              | m -> Some ("misses " ^ String.concat ", " (List.map Wl.signature_of m)))
        in
        Option.iter
          (fun msg ->
            d.failed <- d.failed + 1;
            Wl.wrong "%s of %s: %s" ev.se_kind p.pkg msg)
          problem;
        if d.traced then begin
          d.reports <- List.filter_map (Serve.report d.serve) v.Serve.vd_candidates @ d.reports;
          probe_layers d (Inputs.apk p)
        end
      end

(* Serve every queued event; service times in seconds, in order. *)
let drain d events =
  let verdicts = Ledger.span "serve.drain" (fun () -> Serve.drain d.serve) in
  let rec settle_all = function
    | [] -> ()
    | ((ev : Inputs.serve_event), v) :: later ->
        let superseded = List.exists (fun ((e : Inputs.serve_event), _) -> e.se_pkg = ev.se_pkg) later in
        settle d ~superseded ev v;
        settle_all later
  in
  settle_all (List.combine events verdicts);
  List.map (fun v -> v.Serve.vd_latency_ms /. 1000.0) verdicts

(* Open loop over at most [available] events of the stream. *)
let open_loop d (stream : Inputs.serve_event array) ~available ~seconds =
  let pending = ref [] in
  Openloop.run ~now:Wl.now ~sleep:Unix.sleepf ~rate:open_rate ~duration:seconds ~available
    ~submit:(fun i ->
      let ev = stream.(i) in
      Serve.submit d.serve (Inputs.serve_event ev);
      pending := ev :: !pending)
    ~drain:(fun () ->
      let events = List.rev !pending in
      pending := [];
      drain d events)

(* Closed loop from [first]: one event at a time, until [stop] says so
   or the stream ends; returns each event's wall time in seconds. *)
let closed_loop d (stream : Inputs.serve_event array) ~first ~stop =
  let t0 = Wl.now () in
  let rec go n steps =
    if stop n (Wl.now () -. t0) then List.rev steps
    else if first + n >= Array.length stream then begin
      (* a run this fast needs a longer stream *)
      d.checked <- d.checked + 1;
      d.failed <- d.failed + 1;
      Wl.wrong "the event stream ran out";
      List.rev steps
    end
    else begin
      let ev = stream.(first + n) in
      let (), dt =
        Wl.timed (fun () ->
            Serve.submit d.serve (Inputs.serve_event ev);
            ignore (drain d [ ev ]))
      in
      go (n + 1) (dt :: steps)
    end
  in
  go 0 []

(* The known answer for the whole run: the selective reports equal a
   full repair by a second daemon on its own fresh cache, ingesting the
   final store in-process (no pool, so the reference shares neither the
   cache nor the execution strategy under test).  One check per package
   of either store. *)
let check_against_full_repair d =
  let dir = Tmpdir.fresh "serve-ref" in
  let reference = Serve.create ~cache:(Cache.open_ ~dir ()) () in
  Hashtbl.fold (fun pkg apk acc -> (pkg, apk) :: acc) d.store []
  |> List.sort compare
  |> List.iter (fun (_, p) -> Serve.submit reference (Serve.Upload (Inputs.apk p)));
  ignore (Serve.drain reference);
  ignore (Serve.full_repair reference);
  let stripped s = List.map (fun (p, r) -> (p, Ase.strip_performance r)) (Serve.reports s) in
  let mine = stripped d.serve and theirs = stripped reference in
  Tmpdir.remove dir;
  let pkgs = List.sort_uniq compare (List.map fst mine @ List.map fst theirs) in
  let wrong =
    List.filter (fun p -> List.assoc_opt p mine <> List.assoc_opt p theirs) pkgs
  in
  List.iter (Wl.wrong "%s: selective report differs from full repair") wrong;
  d.checked <- d.checked + List.length pkgs;
  d.failed <- d.failed + List.length wrong

let cache_count stats name = float_of_int (Option.value ~default:0 (List.assoc_opt name stats))

let cache_hits_misses stats =
  List.fold_left
    (fun (h, m) (name, v) ->
      if Filename.check_suffix name ".hits" then (h +. float_of_int v, m)
      else if Filename.check_suffix name ".misses" then (h, m +. float_of_int v)
      else (h, m))
    (0.0, 0.0) stats

let ms_of samples f = List.map (fun s -> 1000.0 *. f s) samples

let run ~seed ~seconds ~trace ~capacity =
  let si = Inputs.serve_inputs ~seed in
  let stream = si.Inputs.si_stream in
  (* a traced run runs the work twice, untraced then traced *)
  let seconds = if trace then seconds /. 2.0 else seconds in
  let open_s = seconds *. open_share and closed_s = seconds *. (1.0 -. open_share) in
  if not trace then begin
    let d, setup_s =
      Wl.repeat_setup ~reps:3 (fun () -> ingest ~traced:false si)
    in
    let ol = open_loop d stream ~available:(Array.length stream) ~seconds:open_s in
    let n_open = List.length ol.Openloop.samples in
    let steps = closed_loop d stream ~first:n_open ~stop:(fun _ elapsed -> elapsed >= closed_s) in
    let n_closed = List.length steps in
    check_against_full_repair d;
    let lat = ms_of ol.Openloop.samples Openloop.latency in
    let late = ms_of ol.Openloop.samples Openloop.lateness in
    let events_per_s =
      Stats.median_rate ~span:Wl.rate_span (List.map (fun dt -> (dt, 1.0)) steps)
    in
    {
      Wl.attempted = d.checked;
      failed = d.failed;
      end_to_end =
        [
          ("setup_s", setup_s);
          ("throughput_per_s", events_per_s);
          ("latency_p50_ms", Stats.median lat);
          ("latency_p99_ms", Stats.windowed ~windows:p99_windows (Stats.percentile 0.99) lat);
        ];
      layers = [];
      info =
        [
          ("events_per_s", events_per_s);
          ("open_rate_per_s", open_rate);
          ("open_events", float_of_int n_open);
          ("closed_events", float_of_int n_closed);
          ("lateness_mean_ms", Stats.mean late);
          ("lateness_max_ms", Stats.percentile 1.0 late);
          ("store_apps", float_of_int (Serve.store_size d.serve));
        ];
    }
  end
  else begin
    (* untraced on one daemon, then the same events traced on another *)
    let a = ingest ~traced:false si in
    let ol_a = open_loop a stream ~available:(Array.length stream) ~seconds:open_s in
    let n_open = List.length ol_a.Openloop.samples in
    let steps_a = closed_loop a stream ~first:n_open ~stop:(fun _ elapsed -> elapsed >= closed_s) in
    let n_closed = List.length steps_a in
    Tmpdir.remove a.dir;
    let d = ingest ~traced:true si in
    let stats_before = Cache.stats d.cache in
    Wl.tracing true;
    let (ol, steps_b), wall =
      Wl.timed (fun () ->
          let ol = open_loop d stream ~available:n_open ~seconds:open_s in
          (ol, closed_loop d stream ~first:n_open ~stop:(fun n _ -> n >= n_closed)))
    in
    let stats_after = Cache.stats d.cache in
    let delta name = cache_count stats_after name -. cache_count stats_before name in
    let hits, misses = cache_hits_misses stats_after in
    let hits0, misses0 = cache_hits_misses stats_before in
    let verdicts = d.verdicts in
    let layers =
      Wl.report_layers d.reports
      @ Wl.trace_layers ~capacity ~wall ~idle:ol.Openloop.slept ~traced:(Stats.sum steps_b)
          ~untraced:(Stats.sum steps_a)
      @ [
          ("ame.apps", Wl.counter "ame.apps_extracted");
          ( "ame.extract_ms",
            Metrics.histogram_sum (Metrics.histogram "ame.extraction_ms") );
          ("cache.hit_ratio", Stats.ratio (hits -. hits0) (hits -. hits0 +. misses -. misses0));
          ("cache.find_us", 1000.0 *. Stats.median (Ledger.durations_ms "cache.find"));
          ("cache.key_us", 1000.0 *. Stats.median (Ledger.durations_ms "cache.key"));
          ("cache.stores", delta "stores");
          ("cache.corrupt", delta "corrupt");
          ("cache.bytes", float_of_int (Cache.size_bytes d.cache));
          ("serve.drain_ms", Ledger.busy_ms "serve.drain");
          ("serve.queue_wait_ms", Stats.median (ms_of ol.Openloop.samples Openloop.queue_wait));
          ("serve.select_us", 1000.0 *. Stats.median (Ledger.durations_ms "serve.select"));
          ( "serve.candidates",
            Stats.mean (List.map (fun v -> float_of_int v.Serve.vd_analyzed) verdicts) );
          ( "serve.selected_ratio",
            Stats.ratio
              (float_of_int (List.fold_left (fun acc v -> acc + v.Serve.vd_analyzed) 0 verdicts))
              (float_of_int (List.fold_left (fun acc v -> acc + v.Serve.vd_store_size) 0 verdicts)) );
          ("serve.lateness_ms", Stats.mean (ms_of ol.Openloop.samples Openloop.lateness));
        ]
    in
    (* pool speedup on the per-event shape: recent scope bundles, one
       bundle per pooled call as the daemon dispatches them *)
    let bundles =
      List.filteri (fun i _ -> i < 10) verdicts
      |> List.filter_map (fun v ->
             if Serve.model d.serve v.Serve.vd_package = None then None
             else Some (scope_bundle d v.Serve.vd_package))
    in
    let _, pooled = Wl.timed (fun () -> List.map (fun b -> Ase.analyze_many ~jobs [ b ]) bundles) in
    let _, inproc = Wl.timed (fun () -> List.map (fun b -> Ase.analyze b) bundles) in
    let speedup = Stats.ratio inproc pooled in
    Wl.tracing false;
    check_against_full_repair d;
    Wl.traced_outcome ~attempted:d.checked ~failed:d.failed
      ~layers:(layers @ [ ("pool.speedup", speedup); ("pool.efficiency", Stats.ratio speedup capacity) ])
      ~info:[ ("closed_events", float_of_int n_closed) ]
  end
