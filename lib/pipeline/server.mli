(** The analysis daemon: a persistent server loop behind a Unix socket,
    speaking the {!Proto} request/response protocol.

    Where {!Pool.run} answers "run this corpus once", [serve] answers
    "keep answering analysis requests": workers stay alive, the warm
    table stays warm in-process, and every
    [Submit] frame becomes exactly one terminal response — a [Verdict]
    (streamed as soon as it exists, warm-table hits immediately at
    admission, disk-cache hits from a worker) or a [Shed] when the
    bounded queue is full.  Overload degrades by refusing loudly, never
    by stalling or dropping.

    {b Workers.}  The daemon keeps worker domains ({!Domain_pool}) over
    a shared {!Analysis.service}.  Every analysis runs under the work
    budget, so a runaway app answers [Timeout] and an analyzer exception
    [Crashed], for that one request only.  A per-request deadline sets
    the analysis's cancel flag when it passes: the analysis stops at its
    next budget check and answers [Timeout], which is never cached.

    {b Single-flight.}  Admission coalesces concurrent misses of one
    request ({!Analysis.request_key}): the first [Submit] queues the
    analysis, colliding ones attach as waiters (answered with a
    ["coalesced"] [Progress]) and the one verdict fans out to every
    waiter.  A thundering herd of identical
    requests costs one analysis.

    Fairness: admission queues each request on its client's
    {!Shard_queue} shard and dispatch drains shards round-robin, so a
    client saturating the daemon delays its own requests, not its
    neighbours'.

    {b Streaming.}  A connection that sends [Subscribe] becomes a live
    trace subscriber: while any subscriber (or a [Submit] with its trace
    flag) is attached, dispatched tasks carry a throttle window, the
    workers tap their obs rings ({!Ndroid_obs.Stream}), and the daemon
    fans the surviving events out as [Trace] frames — filtered and
    throttled per subscriber, through the same nonblocking buffered
    writes as everything else.  A subscriber that cannot keep up has
    whole trace frames shed (counted in [sv_trace_lost] and on the
    frames' cumulative counters); analyses are never blocked, and
    verdicts are never shed by the stream bound. *)

type config = {
  s_socket : string;  (** Unix-domain socket path; unlinked on shutdown *)
  s_jobs : int;  (** worker domains *)
  s_cache : Cache.t option;
      (** disk cache, probed by the workers on a warm-table miss *)
  s_depth : int;  (** max queued (not yet dispatched) requests — the
                      admission bound; beyond it, [Shed] *)
  s_max_clients : int;  (** concurrent connections (= queue shards) *)
  s_deadline : float option;
      (** default per-request wall-clock deadline, seconds *)
  s_stream_buf : int;
      (** max buffered outbound bytes per client before a {e trace} frame
          is shed instead of queued (verdicts are never shed by this
          bound) — the slow-subscriber backpressure valve *)
  s_log : (string -> unit) option;  (** lifecycle lines (stderr in the CLI) *)
  s_stop : (unit -> bool) option;
      (** extra stop condition polled each loop turn (≤ 0.5 s latency) —
          lets a test host the daemon in a domain and stop it without
          signals *)
}

val config :
  socket:string -> ?jobs:int -> ?cache:Cache.t -> ?depth:int ->
  ?max_clients:int -> ?deadline:float -> ?engine:Engine.t ->
  ?stream_buf:int -> ?log:(string -> unit) -> ?stop:(unit -> bool) -> unit ->
  config
(** [engine] is accepted and ignored: there is one engine.  [stream_buf]
    defaults to 256 KiB. *)

type stats = {
  sv_requests : int;  (** [Submit] frames admitted or shed *)
  sv_served : int;  (** terminal [Verdict]s delivered, counting each
                        coalesced waiter (incl. crash/timeout) *)
  sv_cache_hits : int;
      (** entries answered from cache: warm-table hits at admission, plus
          disk-cache hits a worker returned — no analysis either way *)
  sv_coalesced : int;  (** submits attached to an already-pending entry —
                           requests served minus analyses paid for *)
  sv_analyses : int;  (** analyses actually executed to a terminal state
                          (runs + crashes + timeouts); the single-flight
                          invariant is [sv_served = sv_cache_hits +
                          sv_coalesced + … per-entry fan-out] with one
                          analysis per distinct in-flight request *)
  sv_shed : int;  (** requests refused by the depth bound *)
  sv_crashed : int;  (** analyses that answered [Crashed] *)
  sv_timeouts : int;
      (** analyses that answered [Timeout]: budget spent or deadline
          passed *)
  sv_evictions : int;  (** warm-table evictions over the lifetime *)
  sv_clients : int;  (** connections accepted over the lifetime *)
  sv_subscribers : int;  (** [Subscribe] frames accepted over the lifetime *)
  sv_trace_events : int;
      (** events received from the workers' taps (before per-subscriber
          filtering) *)
  sv_trace_dropped : int;
      (** events suppressed by throttle windows — worker-side taps plus
          per-subscriber fan-out throttles *)
  sv_trace_lost : int;
      (** events shed rather than delivered: ring wraparound before the
          tap drained, plus whole trace frames refused by a slow
          subscriber's outbound bound.  Never blocks an analysis. *)
}

val serve : config -> stats
(** Run the daemon until SIGTERM or SIGINT (or [s_stop] returns [true]),
    then shut down in order — pending client output flushed, running
    analyses cancelled and the workers joined, socket closed and unlinked,
    previous signal dispositions restored — and report what was
    served. *)
