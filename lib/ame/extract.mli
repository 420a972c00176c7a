(** AME: the Android Model Extractor.  Runs the static analyses over each
    component's bytecode and assembles the app's architectural model. *)

open Separ_dalvik

(** Extract one component's model plus its dynamic receiver registrations
    (target class, filter).  [k1] selects one-call-site context
    sensitivity (default); [all_methods] disables entry-point
    reachability pruning (baseline-tool behaviour).  Raises
    {!Separ_static.Interp.Diverged}. *)
val extract_component :
  ?k1:bool ->
  ?all_methods:bool ->
  Apk.t ->
  Separ_android.Component.t ->
  App_model.component_model * (string * Separ_android.Intent_filter.t) list

(** Raised by {!extract} when a component's fixpoint diverges
    ({!Separ_static.Interp.Diverged}): the extraction is degraded and no
    model is returned.  Also counted in [ame.degraded_apps] and logged
    as an [ame.degraded] warning. *)
exception Degraded of { package : string; component : string; rounds : int }

(** Extract the full app model; records wall-clock extraction time and
    app size for the Figure 5 experiment, and each component's fixpoint
    round count in the [ame.fixpoint_rounds] histogram.  Raises
    {!Degraded}. *)
val extract : ?k1:bool -> ?all_methods:bool -> Apk.t -> App_model.t

(** Extractor version; part of every AME cache key, bumped whenever
    extraction semantics change. *)
val version : string

(** The AME tier name in a {!Separ_cache.Store.t} ("ame"). *)
val cache_tier : string

(** The content-addressed cache key for one app's extraction: digest of
    the APK content, [version], and the analysis flags. *)
val cache_key : k1:bool -> all_methods:bool -> Apk.t -> string

(** {!extract} through a read-through persistent cache: a hit returns
    the stored model without running the static analyses; a miss
    extracts and stores.  [?cache:None] is plain {!extract}. *)
val extract_cached :
  ?cache:Separ_cache.Store.t ->
  ?k1:bool ->
  ?all_methods:bool ->
  Apk.t ->
  App_model.t
