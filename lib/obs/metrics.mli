(** A small metrics registry: named counters plus log-scale histograms.

    Counters absorb the deterministic execution counters the analyses
    already keep (bytecodes, invokes, JNI crossings, cache hits/misses);
    histograms record latency and size distributions in log2 buckets —
    bucket [k] holds values [v] with [2^(k-1) <= v < 2^k] (float
    observations are bucketed in microseconds).

    Registries serialize to canonical JSON and merge, so each pipeline
    worker can ship its registry over a {!Ndroid_pipeline.Wire} result
    frame for the parent to aggregate. *)

type t
type counter
type histogram

val create : unit -> t

val counter : t -> string -> counter
(** Find or register. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val histogram : t -> string -> histogram
(** Find or register. *)

val n_buckets : int

val observe : histogram -> float -> unit
(** Record a float observation (e.g. seconds); bucketed in microseconds. *)

val observe_int : histogram -> int -> unit
val bucket_of_int : int -> int

val hist_count : histogram -> int
val hist_sum : histogram -> float
val hist_mean : histogram -> float

val counters : t -> (string * int) list
(** Sorted by name. *)

val to_json : t -> Ndroid_report.Json.t
(** [{"counters": {...}, "histograms": {name: {count, sum, buckets}}}] *)

val merge : t -> t -> unit
(** [merge t src] adds [src]'s counters and histograms into [t] — the
    worker pool's collect path. *)
