(* Every input the workloads feed SEPAR, generated from the run's seed
   alone: the same seed gives byte-identical inputs, another seed
   different ones.  The program under test receives only these inputs. *)

open Separ
module Generator = Separ_workload.Generator

let rng ~seed tag = Random.State.make [| seed; tag |]

(* A generated app held as marshalled bytes.  The benchmark keeps
   hundreds to thousands of input apps; held as OCaml values they would
   be traced by every major GC cycle of the process under test, which
   roughly doubles extraction time (23 s against 12 s for 1,000 audit
   apps on a 2-vCPU Xeon VM).  Bytes are opaque to the GC, and a real
   store holds its uploads as bytes too. *)
type packed = {
  pkg : string;
  store : string;
  size : int;  (** instructions *)
  injected : Generator.vuln_kind list;  (** ground truth *)
  bytes : string;
}

let pack (g : Generator.generated) =
  {
    pkg = Apk.package g.apk;
    store = g.store;
    size = Apk.size g.apk;
    injected = g.injected;
    bytes = Marshal.to_string g.apk [];
  }

let apk p : Apk.t = Marshal.from_string p.bytes 0

(* --- audit ------------------------------------------------------------- *)

(* The audited corpus: every store profile of [Generator.generate] at an
   eighth of its size (200 Play, 137 F-Droid, 150 Malgenome and 12
   Bazaar apps), with the profiles' size ranges and injection rates,
   from the generator's own seed.  Extraction cost is heavy-tailed —
   about a tenth of the apps take nine tenths of it — so the corpus is
   fixed and small enough that every run audits all of it at least
   once: the seed chooses the bundles and their order, not which apps
   a run happens to meet. *)
let audit_corpus () =
  List.map pack
    (Generator.generate
       ~profiles:
         (List.map
            (fun p -> { p with Generator.count = p.Generator.count / 8 })
            Generator.default_profiles)
       ())

(* Apps per batch from each store, proportional to the store's share of
   the corpus.  Generated corpora are ordered by store, so a contiguous
   slice would be Play-only. *)
let audit_quota = [ ("play", 16); ("fdroid", 11); ("malgenome", 12); ("bazaar", 1) ]

(* A batch is one [Separ.analyze_bundles] call: two bundles per worker
   at [-j 2].  Bundles are far smaller than the paper's 50 apps, whose
   analysis takes 8-10 s each on a 2-vCPU host: a run must hold enough
   bundles for its throughput to be steady. *)
let audit_batch_bundles = 4
let audit_bundle_apps = 10

let by_package a b = compare a.pkg b.pkg

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* An endless seeded stream of batches.  Each store's apps are ranked by
   size and cut into as many equal strata as the store's quota; a batch
   takes the next app of every stratum, each stratum being walked in a
   fresh seeded order on every pass.  The batch is shuffled and cut into
   bundles sorted by package.  Every batch so has the corpus's store mix
   and size profile, and a run's batches cover the corpus evenly. *)
let audit_draw ~seed corpus =
  let st = rng ~seed 1 in
  let strata =
    List.concat_map
      (fun (store, k) ->
        let apps =
          List.filter (fun p -> p.store = store) corpus
          |> List.stable_sort (fun a b -> compare a.size b.size)
          |> Array.of_list
        in
        let n = Array.length apps in
        List.init k (fun i -> (Array.sub apps (i * n / k) (((i + 1) * n / k) - (i * n / k)), ref 0)))
      audit_quota
  in
  fun () ->
    let drawn =
      Array.of_list
        (List.map
           (fun (stratum, cursor) ->
             if !cursor mod Array.length stratum = 0 then shuffle st stratum;
             let p = stratum.(!cursor mod Array.length stratum) in
             incr cursor;
             p)
           strata)
    in
    shuffle st drawn;
    List.init audit_batch_bundles (fun b ->
        List.sort by_package (Array.to_list (Array.sub drawn (b * audit_bundle_apps) audit_bundle_apps)))

(* --- serve ------------------------------------------------------------- *)

(* The small-app serve profile: 40-160 filler instructions, with
   injection rates high enough that most events carry a known
   vulnerability to look for in the verdict. *)
let serve_profile count =
  {
    Generator.store = "serve";
    count;
    size_lo = 40;
    size_hi = 160;
    rate_hijack = 0.2;
    rate_launch = 0.2;
    rate_privesc = 0.1;
    rate_leak = 0.2;
  }

let serve_store_apps = 200
let serve_packages = 300  (* the store plus packages not yet uploaded *)
let serve_versions = 6  (* distinct builds per package *)
let serve_stream_len = 10_000

(* The event mix, per block of ten events:
   - 4 updates: a present package's next build, so extraction and
     every verdict miss the cache and are published to it (builds cycle
     after [serve_versions], far beyond what one run reaches);
   - 2 identical re-uploads of a present package, so both cache tiers
     are read back;
   - 2 new uploads and 2 removes of present packages, which keep the
     store near [serve_store_apps] while its footprint index changes.
     A package that comes back after a remove comes back as its next
     build, so every new upload, like every update, misses the cache.
   The seed shuffles each block.  Dealing the mix in blocks, rather
   than drawing each event's kind, keeps every stretch of the stream at
   the same mix whatever the seed: the kinds' service times differ
   tenfold, so a drawn mix would move the latency percentiles with the
   seed's luck. *)
let serve_block = [ (4, `Update); (2, `Reupload); (2, `New); (2, `Remove) ]

type serve_event = {
  se_kind : string;  (** update, reupload, new or remove *)
  se_pkg : string;
  se_upload : packed option;  (** [None] for a remove *)
}

let serve_event e =
  match e.se_upload with Some p -> Serve.Upload (apk p) | None -> Serve.Remove e.se_pkg

type serve_inputs = {
  si_initial : packed list;
  si_stream : serve_event array;
}

let serve_inputs ~seed =
  let builds =
    Array.init serve_versions (fun v ->
        Array.of_list
          (List.map pack
             (Generator.generate
                ~seed:((seed * serve_versions) + v)
                ~profiles:[ serve_profile serve_packages ]
                ())))
  in
  let st = rng ~seed 2 in
  let version = Array.make serve_packages 0 in
  (* present packages as a dense array for O(1) random pick and removal *)
  let present = Array.init serve_packages Fun.id in
  let n_present = ref serve_store_apps in
  let uploaded = Array.init serve_packages (fun i -> i < serve_store_apps) in
  let upload kind i =
    let p = builds.(version.(i)).(i) in
    { se_kind = kind; se_pkg = p.pkg; se_upload = Some p }
  in
  let block = Array.of_list (List.concat_map (fun (n, kind) -> List.init n (fun _ -> kind)) serve_block) in
  let dealt = ref (Array.length block) in
  let event () =
    if !dealt = Array.length block then begin
      shuffle st block;
      dealt := 0
    end;
    let kind =
      match block.(!dealt) with
      | _ when !n_present <= 1 -> `New
      | `New when !n_present = serve_packages -> `Reupload
      | kind -> kind
    in
    incr dealt;
    let pick lo hi = lo + Random.State.int st (hi - lo) in
    match kind with
    | `Update ->
        let i = present.(pick 0 !n_present) in
        version.(i) <- (version.(i) + 1) mod serve_versions;
        upload "update" i
    | `Reupload -> upload "reupload" present.(pick 0 !n_present)
    | `New ->
        let j = pick !n_present serve_packages in
        let i = present.(j) in
        present.(j) <- present.(!n_present);
        present.(!n_present) <- i;
        incr n_present;
        if uploaded.(i) then version.(i) <- (version.(i) + 1) mod serve_versions;
        uploaded.(i) <- true;
        upload "new" i
    | `Remove ->
        let j = pick 0 !n_present in
        let i = present.(j) in
        decr n_present;
        present.(j) <- present.(!n_present);
        present.(!n_present) <- i;
        { se_kind = "remove"; se_pkg = builds.(0).(i).pkg; se_upload = None }
  in
  let initial = List.init serve_store_apps (fun i -> builds.(0).(i)) in
  { si_initial = initial; si_stream = Array.init serve_stream_len (fun _ -> event ()) }

(* --- enforce ----------------------------------------------------------- *)

let enforce_rules = 1000

(* Population the synthetic rules and replayed events are drawn from. *)
let enforce_pop = enforce_rules / 4

let svc i = "Svc" ^ string_of_int i
let cmp i = "Cmp" ^ string_of_int i
let act i = "com.bench.ACT" ^ string_of_int i

(* A seeded store of [enforce_rules] ECA rules in the four shapes
   [Derive] produces (privilege escalation, launch, hijack, leak),
   spread over a synthetic component population — the way per-component
   policies accumulate in a store-wide deployment.  None names the
   benchmark or Figure-1 apps, so they leave the fleet's verdicts to
   the policies derived for those apps. *)
let rule_store ~seed =
  let st = rng ~seed 3 in
  let perms = Array.of_list Permission.all in
  let resources = Array.of_list Resource.all in
  let pick arr = arr.(Random.State.int st (Array.length arr)) in
  let rnd () = Random.State.int st enforce_pop in
  List.init enforce_rules (fun i ->
      let mk p_event p_conditions p_action =
        Policy.
          {
            p_id = Printf.sprintf "synth-%d" i;
            p_event;
            p_conditions;
            p_action;
            p_reason = "synthesized";
          }
      in
      match i mod 4 with
      | 0 ->
          mk Policy.Icc_receive
            [ Policy.Receiver_is (svc (rnd ())); Policy.Sender_lacks_permission (pick perms) ]
            Policy.Deny
      | 1 ->
          mk Policy.Icc_receive
            [ Policy.Receiver_is (svc (rnd ())); Policy.Sender_app_not_installed ]
            Policy.Prompt
      | 2 ->
          mk Policy.Icc_send
            [
              Policy.Sender_is (cmp (rnd ()));
              Policy.Implicit;
              Policy.Action_is (act (rnd ()));
              Policy.Receiver_not_in [ svc (rnd ()); svc (rnd ()) ];
            ]
            Policy.Prompt
      | _ ->
          mk Policy.Icc_receive
            [ Policy.Extras_include (pick resources); Policy.Receiver_is (svc (rnd ())) ]
            Policy.Deny)

let decide_events_n = 1000

(* Seeded ICC events over the same population: explicit and implicit,
   some with tainted extras, senders with partial permission sets. *)
let decide_events ~seed =
  let st = rng ~seed 4 in
  let resources = Array.of_list Resource.all in
  Array.init decide_events_n (fun _ ->
      let receiver = svc (Random.State.int st enforce_pop) in
      let sender = cmp (Random.State.int st enforce_pop) in
      let explicit = Random.State.bool st in
      let action =
        if Random.State.int st 4 = 0 then Some (act (Random.State.int st enforce_pop))
        else None
      in
      let extras =
        if Random.State.int st 4 = 0 then
          [
            Intent.
              {
                key = "k";
                value = "v";
                taint = [ resources.(Random.State.int st (Array.length resources)) ];
              };
          ]
        else []
      in
      let drop = Random.State.int st 7 in
      Policy.
        {
          ev_kind = (if Random.State.bool st then Icc_receive else Icc_send);
          ev_sender_component = sender;
          ev_sender_app = "app." ^ sender;
          ev_sender_installed_at_analysis = Random.State.bool st;
          ev_sender_permissions =
            List.filteri (fun i _ -> (i + drop) mod 3 <> 0) Permission.all;
          ev_intent =
            Intent.make ?target:(if explicit then Some receiver else None) ?action ~extras ();
          ev_receiver_component = receiver;
          ev_receiver_app = "app." ^ receiver;
        })

(* --- digests ----------------------------------------------------------- *)

(* A digest of the first [batches] audit batches, the serve store and
   stream, or the enforce rules and events: what the determinism test
   compares across seeds. *)
let digest ~seed = function
  | "audit" ->
      let draw = audit_draw ~seed (audit_corpus ()) in
      let batches = List.init 3 (fun _ -> draw ()) in
      Digest.to_hex (Digest.string (Marshal.to_string batches []))
  | "serve" ->
      let si = serve_inputs ~seed in
      Digest.to_hex (Digest.string (Marshal.to_string (si.si_initial, si.si_stream) []))
  | "enforce" ->
      Digest.to_hex
        (Digest.string
           (Marshal.to_string (rule_store ~seed, decide_events ~seed) []))
  | w -> invalid_arg ("unknown workload " ^ w)
