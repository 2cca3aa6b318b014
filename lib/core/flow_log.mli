(** Structured flow log.

    NDroid's output in the paper is a log of the functions on an
    information flow (Figs. 6-9: SourcePolicy firings, JNI function
    begin/end markers, taint assignments like [t(412a3320) := 0x202], sink
    handler reports).  The engines append here; the case-study experiments
    print it.

    Since the observability rework the log is a view over an
    {!Ndroid_obs.Ring}: engines emit typed events and this module renders
    the renderable ones back to the legacy line format on demand.  [count]
    and [entries] cover exactly the renderable events, so existing
    substring-based assertions keep holding. *)

type t = Ndroid_obs.Ring.t

val ring : t -> Ndroid_obs.Ring.t
(** The underlying observability hub (the identity — the log {e is} the
    ring). *)

val of_ring : Ndroid_obs.Ring.t -> t

val record : t -> string -> unit
val recordf : t -> ('a, Format.formatter, unit, unit) format4 -> 'a

val entries : t -> string list
(** Oldest first; renderable events only, at most the ring capacity. *)

val clear : t -> unit

val count : t -> int
(** Renderable events ever recorded (survives ring wraparound). *)

val contains : string -> string -> bool
(** [contains hay needle] — the one substring test: log entries here,
    sink names in the harness and the static analyzer. *)

val matching : t -> string -> string list
(** Entries containing a substring. *)
