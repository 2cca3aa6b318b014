(** The worker engine: a fixed set of OCaml 5 domains pulling jobs from
    one mutex-protected FIFO and handing {!Ndroid_report.Verdict.report}
    values back through shared memory — no fork, no serialization, no
    parent-side reassembly.  All domains share the one {!Analysis.service}
    (its own mutex makes that safe), so the warm table deduplicates across
    workers mid-sweep, and a worker's {!Analysis.service_run} is the only
    cache probe a dispatched task gets.

    A task cannot wedge its domain: {!Analysis.run} bounds it by the work
    budget, acts on its fault marker, and turns any exception into a
    [Crashed] verdict. *)

type t

type completion = {
  dc_ticket : int;  (** the caller's id for the task, echoed back *)
  dc_report : Ndroid_report.Verdict.report;
  dc_cached : bool;
      (** served from the service's warm table or disk cache, not
          analyzed — the flag {!Analysis.service_run} returns *)
  dc_seconds : float;  (** analysis wall time inside the domain *)
  dc_events : Ndroid_obs.Stream.event list;
      (** the task's throttled event stream — empty unless it was
          submitted with a [trace] window *)
  dc_dropped : int;  (** throttle-suppressed events for this task *)
  dc_lost : int;  (** events lost to ring wraparound for this task *)
}

val create : ?domains:int -> service:Analysis.service -> unit -> t
(** Spawn [domains] (default 1) worker domains over [service] — capped at
    [Domain.recommended_domain_count ()]: domains share one runtime, so
    oversubscribing the cores multiplies stop-the-world minor-GC
    synchronization instead of adding throughput.  {!domains} reports the
    actual count. *)

val submit :
  t -> ticket:int -> ?cancel:bool Atomic.t -> ?trace:int -> Task.t -> unit
(** Enqueue one job at the back of the FIFO; returns immediately.  The
    queue has no bound of its own: a batch is already in memory, and the
    daemon submits one task per free worker.  Tickets are the caller's
    correlation ids and need not be dense.  Setting [cancel] stops the
    task's analysis with a [Timeout] (see {!Analysis.service_run}).
    [trace] (a window in event-seq units) streams the task's events: its
    ring drains through a fresh {!Ndroid_obs.Stream.tap} and the
    surviving events return on its completion.  Cancel flag and window
    belong to this job alone.  Raises [Invalid_argument] after
    {!shutdown}. *)

val wait : t -> completion list
(** Block until a completion batch is ready (or nothing is in flight),
    and take everything completed so far, oldest first.  Workers wake
    this in batches (every 64 completions, and when the queue drains) so
    a batch collector does not contend with the worker domains for CPU;
    use {!drain} + {!notify_fd} for per-completion latency. *)

val drain : t -> completion list
(** Nonblocking {!wait}: take whatever has completed, oldest first.  Pair
    with {!notify_fd} in a select loop (the daemon). *)

val notify_fd : t -> Unix.file_descr
(** Readable whenever completions may be pending; {!drain} empties it. *)

val domains : t -> int

val metrics : t -> Ndroid_obs.Metrics.t list
(** One obs registry per worker domain, accumulated over its lifetime
    (tasks, task_seconds, worker_crashes, worker_timeouts, analyzer
    counters).  Merge them
    with {!Ndroid_obs.Metrics.merge} once nothing is in flight — reading
    while workers are mid-task can observe a half-updated histogram. *)

val shutdown : t -> unit
(** Stop accepting work, wake every idle domain and join them all.  Tasks
    still queued are abandoned; a task mid-analysis completes first (and
    its completion is discarded with the pool). *)
