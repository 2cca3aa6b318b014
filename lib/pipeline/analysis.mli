(** The unified analysis facade.

    One entry point drives either analyzer — the static JNI supergraph
    ({!Ndroid_static.Analyzer}), a full dynamic NDroid run
    ({!Ndroid_apps.Harness} + {!Ndroid_core.Ndroid}), or both — over
    either kind of subject, and always yields the one report shape
    ({!Ndroid_report.Verdict.report}).  The pool's workers call {!run};
    so do the in-process paths (`ndroid analyze --jobs 1`, tests). *)

val version : string
(** Analyzer-version component of every cache key.  Bump whenever a change
    to the static or dynamic analyzers can alter verdicts, so stale cached
    results from older binaries can never be served. *)

val work_budget : int
(** The units of work — Dalvik bytecodes plus native instructions — one
    analysis may spend before it stops with [Timeout].  A constant: the
    same app times out at the same point everywhere. *)

val feature_key : string
(** The dynamic path's feature switches (native summaries, focus gating)
    and {!work_budget}, folded into every cache key so changing one
    invalidates exactly the results it could change. *)

val run : ?obs:Ndroid_obs.Ring.t -> Task.t -> Ndroid_report.Verdict.report
(** Analyze one task under a fresh {!work_budget}.  Never raises: an
    analyzer exception becomes a [Crashed] verdict carrying the exception
    text, and a spent budget a [Timeout].  The task's fault marker acts
    here: [Crash] raises ([Crashed]), [Hang] spends the whole budget
    ([Timeout]), [Sleep s] waits [s] seconds.
    [obs] observes any dynamic run: the device records into it, flagged
    flows gain provenance from it, and the execution counters are mirrored
    into its metrics registry. *)

val digest : Task.t -> string
(** Disk-cache key: hex MD5 over the subject's name and content (artifact
    bytes for bundled apps, the generator-independent content descriptor
    for market apps), the analysis mode, {!version} and {!feature_key}.
    Two tasks with equal digests would produce equal reports. *)

val request_key : Task.t -> string
(** Warm-table key: the mode plus the canonical subject JSON — the
    request itself, never its id or fault marker.  Reads no content. *)

(** {1 The request-oriented facade}

    One [service] value owns the answer-one-request path — in-memory warm
    table keyed by {!request_key}, on-disk cache keyed by {!digest},
    analyzer, store — so the `ndroid serve` daemon, the batch pool's
    workers and [Pool.run_inline] share exactly one definition of "hit"
    and "cacheable".  A service is single-process state: the warm table
    is what a long-lived daemon accumulates across requests.

    A service is domain-safe: one mutex guards the warm table and the
    request count, held only across table probes — digesting, analyzing
    and disk I/O all run unlocked — so the {!Domain_pool} workers share
    one warm table without serializing on it.  The table is bounded
    ([capacity] entries) with second-chance eviction, so a long-lived
    daemon converges on its hottest answers instead of growing without
    limit. *)

type service

val service : ?cache:Cache.t -> ?capacity:int -> unit -> service
(** [cache] is the disk layer, holding verdicts only; [capacity] bounds
    the warm table (default 65536).  A service sets no process-wide
    state, so services with different caches (or none) coexist. *)

val service_run :
  service -> ?obs:Ndroid_obs.Ring.t -> ?cancel:bool Atomic.t -> Task.t ->
  Ndroid_report.Verdict.report * bool
(** Answer one request with one probe — the warm table, then the disk if
    a {!Cache} is configured — else through {!run}, storing the answer
    ([true] = served from cache).  {!digest} is computed at most once,
    and only when there is a disk to probe.  Setting [cancel] (from any
    domain) stops the run with [Timeout] at its next budget check, and
    cuts a [Sleep] fault short — the daemon's wall-clock deadlines.  Tasks
    carrying a fault marker are never cache-served and never stored — a
    fault means "really run this".  [Crashed] reports are never stored,
    and neither is a [Timeout] that [cancel] caused; a [Timeout] from the
    spent {!work_budget} is a fact about the app and is stored. *)

val service_find : service -> Task.t -> Ndroid_report.Verdict.report option
(** A warm-table peek: no digest, no file I/O, no request counted.
    [None] for fault-marked tasks.  The daemon answers warm requests at
    admission with it; a disk hit comes back from a worker's
    {!service_run}. *)

val service_requests : service -> int
(** Requests answered through {!service_run}. *)

val service_evictions : service -> int
(** Warm-table entries evicted (second-chance) since the service was
    created. *)

val service_warm_entries : service -> int
(** Reports currently held in the warm table — bounded by [capacity]. *)
