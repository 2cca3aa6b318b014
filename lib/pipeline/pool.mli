(** The worker pool: run the corpus through the domain engine
    ({!Domain_pool}) and collect one {!Ndroid_report.Verdict.report} per
    task.

    - {b bounded apps}: every analysis runs under the work budget
      ({!Analysis.work_budget}), so a pathological app costs one budget on
      one worker and records [Timeout], and an analyzer exception records
      [Crashed] — neither wedges the sweep nor loses another app's result;
    - {b determinism}: results are ordered by task id and verdicts carry
      no timing, and a budget [Timeout] falls at the same unit of work
      wherever it runs, so a sweep's JSON is bit-identical across
      [--jobs] values and across runs.

    Tasks and verdicts move through shared memory, and all workers share
    one {!Analysis.service} warm layer.  Workers take tasks from one
    shared FIFO, and an optional
    {!Cache} answers unchanged apps without dispatching them at all.
    Timing lives in the aggregate {!stats}, per phase. *)

type config = {
  c_jobs : int;  (** worker domains; >= 1 *)
  c_cache : Cache.t option;
  c_progress : (done_:int -> total:int -> unit) option;
}

val config :
  ?jobs:int -> ?cache:Cache.t ->
  ?progress:(done_:int -> total:int -> unit) -> ?engine:Engine.t -> unit ->
  config
(** [engine] is accepted and ignored: there is one engine. *)

type stats = {
  s_total : int;
  s_from_workers : int;
      (** completed by the workers, whatever the verdict *)
  s_cache_hits : int;
  s_crashed : int;  (** [Crashed] verdicts the workers returned *)
  s_timeouts : int;  (** [Timeout] verdicts the workers returned *)
  s_steals : int;
      (** Always [0]: the workers share one FIFO, so there is nothing to
          steal.  Kept only because the frozen benchmark
          ([perfbench/w_market.ml]) reads it. *)
  s_shed : int;
      (** requests refused by admission control.  Always [0] in a batch
          sweep — the batch queue is sized to the corpus — but the field
          rides alongside the other counters so batch and service stats
          share one shape ({!Server} sheds under overload). *)
  s_evictions : int;
      (** memo entries evicted by the service's second-chance cap — [0]
          unless the sweep outgrew {!Analysis.service}'s capacity *)
  s_wall : float;  (** whole sweep, seconds *)
  s_cache_pass : float;  (** phase: parent-side cache probe (includes
                             [s_digest]) *)
  s_digest : float;
      (** phase: deriving cache keys inside the cache pass — the
          attribution split that shows where a warm probe's time goes *)
  s_collect : float;  (** phase: dispatch and collect loop *)
  s_analyze_cpu : float;
      (** sum of per-task analysis seconds measured inside workers — the
          serial-equivalent work the sweep performed *)
  s_bytecodes : int;
      (** Dalvik bytecodes executed across every dynamic analysis in the
          sweep (from the deterministic per-report counters); divide by
          [s_analyze_cpu] for the sweep's bytecodes/sec *)
  s_jni_crossings : int;
      (** JNI boundary crossings (Java→native calls + native→Java JNI
          function calls) across every dynamic analysis *)
  s_focused_methods : int;
      (** focus-set method entries observed across every focused (hybrid)
          dynamic run *)
  s_skipped_bytecodes : int;
      (** bytecodes interpreted before focus activation — the work hybrid
          runs performed untracked *)
  s_ring_overwritten : int;
      (** obs-ring events lost to wraparound across every worker in the
          sweep (the merged ["ring_overwritten"] counter) — the size of
          the post-hoc provenance gap, attributable instead of silent *)
  s_metrics : Ndroid_report.Json.t;
      (** the sweep-wide observability registry
          ({!Ndroid_obs.Metrics.to_json} shape): every worker's registry
          merged with the parent's own counters (cache hits/misses,
          evictions, per-phase timings) and histograms
          ([task_seconds] covers clean, crashed {e and} timed-out apps) *)
}

val counters_of_reports :
  Ndroid_report.Verdict.report array -> int * int * int * int
(** [(bytecodes, jni_crossings, focused_methods, skipped_bytecodes)]
    summed from the reports' counter meta — for callers of {!run_inline},
    which returns no {!stats}. *)

val run : config -> Task.t list -> Ndroid_report.Verdict.report array * stats
(** Run every task; the returned array is indexed by position in the input
    list (= task id order if ids are dense).  Tasks must carry distinct
    [t_id]s equal to their list position. *)

val run_inline :
  ?cache:Cache.t -> ?obs:Ndroid_obs.Ring.t ->
  ?progress:(done_:int -> total:int -> unit) -> Task.t list ->
  Ndroid_report.Verdict.report array
(** Sequential execution of the same tasks on the calling domain, built
    on {!Analysis.service_run} — the same request path the daemon
    serves.  The path of [--jobs 1]; byte-identical reports to {!run},
    fault-marked and timed-out tasks included.  [obs]
    observes every dynamic run in this process — the only mode in which
    one ring can see a whole sweep, which is what
    [ndroid analyze --trace] uses.  [progress] fires once per task,
    cache hit or computed, like {!config}'s [c_progress]. *)
