(** The observability hub: a bounded ring of reusable {!Event.record}
    cells plus a {!Metrics} registry and two gates.

    The ring starts small and doubles its cell array on demand, up to its
    capacity; from then on it wraps, and emitters rewrite the oldest cell
    in place.  Emitting allocates only on a doubling, never once the ring
    is at capacity — no closures, no fresh records — so a hot loop can
    keep an emit call compiled in unconditionally:

    - [on = false] (the shared {!disabled} instance) reduces every emitter
      to a load and a branch;
    - [tracing] additionally gates the torrential kinds ({!emit_insn});
      provenance-grade events (sources, taint assignments, JNI crossings,
      sinks) are cheap enough to record whenever [on].

    One ring instance typically backs a whole analysis: the flow log, the
    taint provenance reconstruction and the exported traces all read the
    same event stream. *)

type t

val create : ?capacity:int -> ?tracing:bool -> unit -> t
(** [capacity] — the most events the window holds before the oldest is
    overwritten — defaults to 16384 (at least 16); [tracing] to [false].
    Cells are allocated as the ring fills, not up front. *)

val disabled : t
(** Shared never-recording instance — the default hub everywhere. *)

val on : t -> bool
val tracing : t -> bool
val set_tracing : t -> bool -> unit
val metrics : t -> Metrics.t
val capacity : t -> int
val total : t -> int
(** Events emitted since creation or the last {!clear}, wraparound
    included; the last one carries seq [total - 1]. *)

val lines : t -> int
(** Renderable (flow-log) events among {!total}. *)

val size : t -> int
(** Events currently held: [min total capacity]. *)

val overwritten : t -> int
(** Monotonic count of events lost to wraparound over the ring's whole
    life — {!clear} does not reset it, so a per-task engine's provenance
    gaps stay attributable in the merged sweep metrics. *)

val clear : t -> unit
(** Empty the window and restart the seq clock at 0.  Keeps the cells
    already allocated. *)

(** {1 Emitters} — no-ops unless [on] ([emit_insn]: unless [tracing]). *)

val emit_log : t -> string -> unit
val emit_invoke : t -> string -> unit
val emit_return : t -> string -> unit
val emit_jni_begin : t -> name:string -> direction:string -> taint:int -> unit
val emit_jni_end : t -> name:string -> direction:string -> taint:int -> unit
val emit_jni_ret : t -> name:string -> taint:int -> unit
val emit_source : t -> name:string -> cls:string -> addr:int -> taint:int -> unit
val emit_policy_apply : t -> addr:int -> unit
val emit_arg_taint : t -> idx:int -> value:string -> taint:int -> unit
val emit_taint_reg : t -> reg:int -> taint:int -> unit
val emit_taint_mem : t -> addr:int -> taint:int -> unit
val emit_sink_begin : t -> sink:string -> unit
val emit_sink : t -> sink:string -> detail:string -> taint:int -> unit
val emit_sink_end : t -> sink:string -> unit
val emit_gc_begin : t -> unit
val emit_gc_end : t -> unit
val emit_phase_begin : t -> string -> unit
val emit_phase_end : t -> string -> unit
val emit_insn : t -> addr:int -> Ndroid_arm.Insn.t -> unit
val emit_host_enter : t -> string -> unit
val emit_host_leave : t -> string -> unit

val emit_summary_apply : t -> name:string -> taint:int -> unit
(** A native taint summary was applied in place of emulating the
    function body ([name] = native method, [taint] = resulting return
    taint bits). *)

(** {1 Reading} *)

val iter : t -> (Event.record -> unit) -> unit
(** Oldest first over the live window.  The callback receives the live
    mutable cells — read, don't retain. *)

val fold : ('a -> Event.record -> 'a) -> 'a -> t -> 'a

val seq_cell : t -> int -> Event.record
(** [seq_cell t i] is the cell holding the event of absolute seq [i]
    ([e_seq = i]), for [total t - size t <= i < total t]; raises
    [Invalid_argument] outside that window.  Read, don't retain: the cell
    is rewritten once the ring wraps past it. *)
