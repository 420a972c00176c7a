(* audit: the paper's offline store audit (RQ2 / Table II).  A closed
   loop analyzes seeded batches of bundles drawn across all four store
   profiles, with no cache, on the worker pool.  Nearly all the time is
   analysis (extraction, translation, search), and the pool's
   bundle-axis sharding has several bundles per call to spread. *)

open Separ

let jobs = 2
let limit_per_sig = 40

(* Known answers for one analyzed bundle, one check per app: every
   vulnerability injected into the app is reported for it, and no
   signature of the bundle degraded. *)
let failures apps ~bundle ~report =
  List.length
    (List.filter
       (fun (p : Inputs.packed) ->
         let missed = Wl.missed ~report ~bundle ~pkg:p.pkg p.injected in
         let bad = report.Ase.r_degraded <> [] || missed <> [] in
         if bad then
           Wl.wrong "%s: %d signatures degraded, missed %s" p.pkg
             (List.length report.Ase.r_degraded)
             (String.concat ", " (List.map Wl.signature_of missed));
         bad)
       apps)

type batch = {
  b_apps : Inputs.packed list list;
  b_failed : int;
  b_wall : float;
}

let n_apps b = List.length (List.concat b.b_apps)

(* One batch through the public entry point. *)
let run_batch apps =
  let analyses, wall =
    Wl.timed (fun () ->
        Separ.analyze_bundles ~jobs ~limit_per_sig (List.map (List.map Inputs.apk) apps))
  in
  let failed =
    List.fold_left2
      (fun acc a (an : Separ.analysis) ->
        acc + failures a ~bundle:an.Separ.bundle ~report:an.Separ.report)
      0 apps analyses
  in
  { b_apps = apps; b_failed = failed; b_wall = wall }

type traced = {
  t_batch : batch;
  t_bundles : Bundle.t list;
  t_reports : Ase.report list;
  t_pooled : float;  (** seconds in [Ase.analyze_many] *)
  t_policies : int;
}

(* The calls [Separ.analyze_bundles] composes, each timed as its layer. *)
let run_batch_traced apps =
  let t0 = Wl.now () in
  let bundles =
    List.map
      (fun bundle_apps ->
        Bundle.of_models
          (List.map
             (fun p ->
               let apk = Inputs.apk p in
               Ledger.span "ame.extract" (fun () -> Extract.extract ~k1:true apk))
             bundle_apps))
      apps
  in
  let reports, pooled =
    Wl.timed (fun () ->
        Ledger.span "ase.analyze_many" (fun () -> Ase.analyze_many ~limit_per_sig ~jobs bundles))
  in
  let policies =
    List.map2
      (fun bundle report ->
        Ledger.span "policy.derive" (fun () ->
            Derive.of_report
              (Bundle.update_passive_targets bundle)
              (List.map (fun v -> v.Ase.v_scenario) report.Ase.r_vulnerabilities)))
      bundles reports
  in
  let failed =
    List.fold_left2
      (fun acc a (bundle, report) -> acc + failures a ~bundle ~report)
      0 apps (List.combine bundles reports)
  in
  {
    t_batch = { b_apps = apps; b_failed = failed; b_wall = Wl.now () -. t0 };
    t_bundles = bundles;
    t_reports = reports;
    t_pooled = pooled;
    t_policies = List.length (List.concat policies);
  }

(* Batches from [next] until [seconds] have passed. *)
let closed_loop ~seconds next =
  let t0 = Wl.now () in
  let rec go acc = if Wl.now () -. t0 >= seconds then List.rev acc else go (run_batch (next ()) :: acc) in
  let batches = go [] in
  (batches, Wl.now () -. t0)

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let run ~seed ~seconds ~trace ~capacity =
  let corpus, setup_s = Wl.repeat_setup ~reps:21 Inputs.audit_corpus in
  let draw = Inputs.audit_draw ~seed corpus in
  if not trace then begin
    let batches, wall = closed_loop ~seconds draw in
    let apps = sum n_apps batches in
    let apps_per_s =
      Stats.median_rate ~span:Wl.rate_span
        (List.map (fun b -> (b.b_wall, float_of_int (n_apps b))) batches)
    in
    let lat = List.map (fun b -> 1000.0 *. b.b_wall) batches in
    {
      Wl.attempted = apps;
      failed = sum (fun b -> b.b_failed) batches;
      end_to_end =
        [
          ("setup_s", setup_s);
          ("throughput_per_s", apps_per_s);
          ("latency_p50_ms", Stats.median lat);
          ("latency_p99_ms", Stats.percentile 0.99 lat);
        ];
      layers = [];
      info =
        [
          ("apps_per_s", apps_per_s);
          ("apps_per_wall_s", float_of_int apps /. wall);
          ("batches", float_of_int (List.length batches));
          ("bundle_apps", float_of_int Inputs.audit_bundle_apps);
          ("batch_bundles", float_of_int Inputs.audit_batch_bundles);
        ];
    }
  end
  else begin
    (* untraced, then the same batches traced: the difference is the
       tracing overhead *)
    let untraced, _ = closed_loop ~seconds:(seconds /. 2.0) draw in
    Wl.tracing true;
    let traced, wall =
      Wl.timed (fun () -> List.map (fun b -> run_batch_traced b.b_apps) untraced)
    in
    let reports = List.concat_map (fun t -> t.t_reports) traced in
    let apps = List.concat_map (fun t -> List.concat t.t_batch.b_apps) traced in
    let extract_ms = Ledger.busy_ms "ame.extract" in
    let instrs = sum (fun (p : Inputs.packed) -> p.size) apps in
    let layers =
      Wl.report_layers reports
      @ Wl.trace_layers ~capacity ~wall ~idle:0.0 ~traced:wall
          ~untraced:(Stats.sum (List.map (fun b -> b.b_wall) untraced))
      @ [
          ("ame.extract_ms", extract_ms);
          ("ame.apps", float_of_int (Ledger.count "ame.extract"));
          ("ame.instrs_per_ms", Stats.ratio (float_of_int instrs) extract_ms);
          ("ase.analyze_ms", Ledger.busy_ms "ase.analyze_many");
          ("policy.derive_ms", Ledger.busy_ms "policy.derive");
          ("policy.rules", float_of_int (sum (fun t -> t.t_policies) traced));
        ]
    in
    (* pool speedup: the first batch's bundles again, in-process *)
    let speedup =
      match traced with
      | t :: _ ->
          let (_ : Ase.report list), inproc =
            Wl.timed (fun () -> List.map (Ase.analyze ~limit_per_sig) t.t_bundles)
          in
          Stats.ratio inproc t.t_pooled
      | [] -> 0.0
    in
    Wl.tracing false;
    Wl.traced_outcome ~attempted:(List.length apps)
      ~failed:(sum (fun t -> t.t_batch.b_failed) traced)
      ~layers:(layers @ [ ("pool.speedup", speedup); ("pool.efficiency", Stats.ratio speedup capacity) ])
      ~info:[ ("batches", float_of_int (List.length traced)) ]
  end
