(* enforce: the device side (RQ4).  A fleet of [devices] simulated
   devices in one process, each with an ICC-heavy benchmark app and the
   Figure-1 apps installed, enforcing a seeded 1000-rule store plus the
   policies derived for the demo bundle.  Waves of launches run with a
   [Device.swap_policies] hot swap on every device between waves.  The
   analysis layers do no work here: the time is in the interpreter, the
   PEP hook and [Compile], with swaps (writes) beside checks (reads). *)

open Separ
module Metrics = Separ_obs.Metrics

let devices = 64
let icc_per_launch = 100
let unenforced_devices = 8

(* [icc_per_launch] explicit startService calls from Caller to Callee,
   the benign traffic every check must let through. *)
let icc_app () =
  let module B = Builder in
  let caller =
    B.cls ~name:"Caller"
      [
        B.meth ~name:"onCreate" ~params:1 (fun b ->
            for _ = 1 to icc_per_launch do
              let i = B.new_intent b in
              B.set_class_name b i "Callee";
              let v = B.const_str b "x" in
              B.put_extra b i ~key:"k" ~value:v;
              B.start_service b i
            done);
      ]
  in
  let callee =
    B.cls ~name:"Callee"
      [
        B.meth ~name:"onStartCommand" ~params:1 (fun b ->
            let v = B.get_string_extra b 0 ~key:"k" in
            let skip = B.fresh_label b in
            B.if_eqz b v skip;
            B.sput b ~field:"last" ~src:v;
            B.place_label b skip;
            let done_ = B.const_str b "handled" in
            B.invoke b (Api.mref Api.c_notification "notify") [ done_ ]);
      ]
  in
  Apk.make
    ~manifest:
      (Manifest.make ~package:"bench.icc"
         ~components:
           [
             Component.make ~name:"Caller" ~kind:Component.Activity ();
             Component.make ~name:"Callee" ~kind:Component.Service ~exported:true ();
           ]
         ())
    ~classes:[ caller; callee ]

let apps () = [ icc_app (); Demo.navigation_app (); Demo.messenger_app (); Demo.relay_malware () ]
let analyzed = [ "bench.icc"; "com.example.navigation"; "com.example.messenger" ]

(* The demo bundle through the public pipeline, for its policies. *)
let demo_analysis () = Separ.analyze [ Demo.navigation_app (); Demo.messenger_app () ]

type fleet = {
  devs : Device.t list;
  stores : Policy.t list array;  (** the two stores swaps alternate between *)
}

let build_fleet ~n ~enforced ~seed =
  let rules = Inputs.rule_store ~seed in
  let derived = (demo_analysis ()).Separ.policies in
  let rotated = match rules with [] -> [] | r :: rest -> rest @ [ r ] in
  let stores = [| derived @ rules; derived @ rotated |] in
  let apps = apps () in
  let devs =
    List.init n (fun _ ->
        let d = Device.create () in
        List.iter (Device.install d) apps;
        Device.set_policies d stores.(0) analyzed;
        Device.set_enforcement d enforced;
        d)
  in
  { devs; stores }

type tally = {
  mutable icc : int;
  mutable checks : int;
  mutable failed : int;
  mutable launches : float list;  (** Caller launches, seconds *)
  mutable swaps : float list;  (** seconds *)
  mutable steps : (float * float) list;  (** per wave: seconds, ICC deliveries *)
}

let tally () = { icc = 0; checks = 0; failed = 0; launches = []; swaps = []; steps = [] }

(* Known answers for one device after a wave: the benign ICC all
   arrived, and the Figure-1 relay was blocked without the location
   leaving by SMS. *)
let settle t d =
  let effects = Device.effects d in
  let delivered_to_callee = ref 0 and blocked = ref false in
  List.iter
    (function
      | Effect.Intent_delivered { receiver = "Callee"; _ } ->
          incr delivered_to_callee;
          t.icc <- t.icc + 1
      | Effect.Intent_delivered _ -> t.icc <- t.icc + 1
      | Effect.Delivery_blocked _ ->
          blocked := true;
          t.icc <- t.icc + 1
      | _ -> ())
    effects;
  t.checks <- t.checks + 1;
  if
    !delivered_to_callee <> icc_per_launch
    || (not !blocked)
    || List.exists (Effect.is_sms_with_taint Resource.Location) effects
  then begin
    t.failed <- t.failed + 1;
    Wl.wrong "device wave: %d of %d benign deliveries, relay blocked: %b" !delivered_to_callee
      icc_per_launch !blocked
  end;
  Device.clear_effects d

(* Every device launches the benchmark app, then the Figure-1 victim;
   then every device swaps to the other store. *)
let wave t fleet k =
  List.iter
    (fun d ->
      let (), dt =
        Wl.timed (fun () ->
            Ledger.span "runtime.launch" (fun () ->
                Device.start_component d ~pkg:"bench.icc" ~component:"Caller"))
      in
      t.launches <- dt :: t.launches;
      Ledger.span "runtime.launch_fig1" (fun () ->
          Device.start_component d ~pkg:"com.example.navigation" ~component:"LocationFinder"
            ~entry:"onStartCommand");
      settle t d)
    fleet.devs;
  let next = fleet.stores.((k + 1) mod 2) in
  List.iter
    (fun d ->
      let (), dt =
        Wl.timed (fun () -> Ledger.span "runtime.swap" (fun () -> Device.swap_policies d next))
      in
      t.swaps <- dt :: t.swaps)
    fleet.devs

let waves t fleet ~stop =
  let t0 = Wl.now () in
  let k = ref 0 in
  while not (stop !k (Wl.now () -. t0)) do
    let icc = t.icc in
    let (), dt = Wl.timed (fun () -> wave t fleet !k) in
    t.steps <- (dt, float_of_int (t.icc - icc)) :: t.steps;
    incr k
  done;
  (!k, Wl.now () -. t0)

(* The known answer for the PDP: on a seeded event set, the compiled
   decision structure picks the same verdict and deciding policy as the
   reference scan.  One check per event. *)
let fingerprint = function
  | Policy.Allowed -> "allow"
  | Policy.Prompted p -> "prompt:" ^ p.Policy.p_id
  | Policy.Denied p -> "deny:" ^ p.Policy.p_id

let check_decisions t store events =
  let compiled = Compile.compile store in
  Array.iter
    (fun ev ->
      t.checks <- t.checks + 1;
      if fingerprint (Compile.decide_full compiled ev) <> fingerprint (Policy.decide_both store ev)
      then begin
        t.failed <- t.failed + 1;
        Wl.wrong "compiled PDP decides %s, reference %s"
          (fingerprint (Compile.decide_full compiled ev))
          (fingerprint (Policy.decide_both store ev))
      end)
    events

let ms xs = List.map (fun s -> 1000.0 *. s) xs

(* The launch p99 is the median of the p99s of this many consecutive
   slices of the run's launches, a few thousand each at 30 s. *)
let p99_windows = 6

let run ~seed ~seconds ~trace ~capacity =
  let events = Inputs.decide_events ~seed in
  if not trace then begin
    let fleet, setup_s =
      Wl.repeat_setup ~reps:21 (fun () -> build_fleet ~n:devices ~enforced:true ~seed)
    in
    let t = tally () in
    let _, wall = waves t fleet ~stop:(fun _ elapsed -> elapsed >= seconds) in
    check_decisions t fleet.stores.(0) events;
    let lat = ms t.launches in
    let icc_per_s = Stats.median_rate ~span:Wl.rate_span (List.rev t.steps) in
    {
      Wl.attempted = t.checks;
      failed = t.failed;
      end_to_end =
        [
          ("setup_s", setup_s);
          ("throughput_per_s", icc_per_s);
          ("latency_p50_ms", Stats.median lat);
          ("latency_p99_ms", Stats.windowed ~windows:p99_windows (Stats.percentile 0.99) lat);
        ];
      layers = [];
      info =
        [
          ("icc_per_s", icc_per_s);
          ("icc_per_wall_s", float_of_int t.icc /. wall);
          ("swap_p50_us", 1000.0 *. Stats.median (ms t.swaps));
          ("launches", float_of_int (List.length t.launches));
        ];
    }
  end
  else begin
    (* untraced waves, then as many traced waves on a fresh fleet *)
    let a = build_fleet ~n:devices ~enforced:true ~seed in
    let n_waves, untraced = waves (tally ()) a ~stop:(fun _ elapsed -> elapsed >= seconds /. 2.0) in
    let fleet = build_fleet ~n:devices ~enforced:true ~seed in
    let t = tally () in
    Wl.tracing true;
    let _, wall = waves t fleet ~stop:(fun k _ -> k >= n_waves) in
    let layers =
      Wl.trace_layers ~capacity ~wall ~idle:0.0 ~traced:wall ~untraced
      @ [
          ("runtime.launch_ms", Stats.median (Ledger.durations_ms "runtime.launch"));
          ("runtime.swap_us", 1000.0 *. Stats.median (Ledger.durations_ms "runtime.swap"));
          ("runtime.hook_checks", Wl.counter "runtime.hook_checks");
          ("runtime.denied", Wl.counter "runtime.denied");
          ("runtime.prompted", Wl.counter "runtime.prompted");
          ("policy.rules", float_of_int (List.length fleet.stores.(0)));
        ]
    in
    (* the same launches with enforcement off *)
    let bare = build_fleet ~n:unenforced_devices ~enforced:false ~seed in
    let unenforced =
      List.init n_waves (fun _ ->
          List.map
            (fun d ->
              let (), dt =
                Wl.timed (fun () -> Device.start_component d ~pkg:"bench.icc" ~component:"Caller")
              in
              Device.clear_effects d;
              1000.0 *. dt)
            bare.devs)
      |> List.concat
    in
    (* the policy layer on its own: derive, compile, decide *)
    let analysis = demo_analysis () in
    let scenarios = List.map (fun v -> v.Ase.v_scenario) analysis.Separ.report.Ase.r_vulnerabilities in
    let derive_ms =
      Wl.median_ms 5 (fun () ->
          Derive.of_report (Bundle.update_passive_targets analysis.Separ.bundle) scenarios)
    in
    let store = fleet.stores.(0) in
    let compile_ms = Wl.median_ms 5 (fun () -> Compile.compile store) in
    let compiled = Compile.compile store in
    let reps = 20 in
    let (), decide_s =
      Wl.timed (fun () ->
          for _ = 1 to reps do
            Array.iter (fun ev -> ignore (Compile.decide_full compiled ev)) events
          done)
    in
    Wl.tracing false;
    check_decisions t store events;
    Wl.traced_outcome ~attempted:t.checks ~failed:t.failed
      ~layers:
        (layers
        @ [
            ("runtime.launch_unenforced_ms", Stats.median unenforced);
            ("policy.derive_ms", derive_ms);
            ("policy.compile_ms", compile_ms);
            ("policy.decide_ns", 1e9 *. decide_s /. float_of_int (reps * Array.length events));
          ])
      ~info:[ ("waves", float_of_int n_waves) ]
  end
