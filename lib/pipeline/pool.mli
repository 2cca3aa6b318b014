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
    one {!Analysis.service}.  Every task goes to the workers, which take
    them from one shared FIFO; a worker's {!Analysis.service_run} is the
    one cache probe, so an optional {!Cache} answers an unchanged app on
    the worker without analyzing it.  Timing lives in the aggregate
    {!stats}, per phase. *)

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
      (** analyses the workers actually ran, whatever the verdict *)
  s_cache_hits : int;
      (** tasks a worker answered from the warm table or the disk cache
          ([dc_cached] completions) *)
  s_crashed : int;  (** [Crashed] verdicts the analyses returned *)
  s_timeouts : int;  (** [Timeout] verdicts the analyses returned *)
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
  s_digest : float;
      (** Always [0.0]: there is no parent-side cache pass to time, and a
          worker digests only to probe the disk.  Kept only because the
          frozen benchmark ([perfbench/w_market.ml]) reads it. *)
  s_collect : float;  (** phase: dispatch and collect loop *)
  s_analyze_cpu : float;
      (** sum of per-task seconds measured inside workers, cache hits
          included — the serial-equivalent work the sweep performed *)
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
          evictions, the collect phase) and histograms
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
