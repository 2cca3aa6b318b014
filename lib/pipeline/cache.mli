(** On-disk result cache.

    One canonical-JSON report per file, named by the task's
    {!Analysis.digest} — app name and content + analysis mode + analyzer
    version — so a re-run of an unchanged corpus under an unchanged binary
    answers from disk, and any change to app, mode or analyzer misses
    cleanly.  The digest exists for this store alone: an
    {!Analysis.service} computes it only on a warm-table miss, and only
    when it has a cache to probe.
    Corrupt or unreadable entries count as misses (the sweep then simply
    recomputes and overwrites them); writes go through a temp file +
    rename so a killed sweep can never leave a torn entry behind. *)

type t

val create : dir:string -> t
(** Creates [dir] if needed. *)

val find : t -> key:string -> Ndroid_report.Verdict.report option
val store : t -> key:string -> Ndroid_report.Verdict.report -> unit

val find_raw : t -> key:string -> string option
(** A raw side entry (e.g. a native taint summary keyed by library
    digest): the blob as stored, no verdict decoding.  Counts toward
    {!hits}/{!misses}. *)

val store_raw : t -> key:string -> string -> unit
(** Store a raw side entry under [key], atomically (temp file +
    rename), like {!store}. *)

val hits : t -> int
val misses : t -> int
