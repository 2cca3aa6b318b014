(** Java-context sinks.

    TaintDroid "checks whether the taints will reach selected sinks"
    (Sec. II-B); its sinks are Java-context framework methods: network
    output, SMS sending, file output.  Each intrinsic performs the real
    (simulated) effect and reports to the {!Sink_monitor} with the taint the
    DVM attributes to the payload — which is exactly how the Table-I cases
    differ across analyses: flows TaintDroid under-taints arrive here with a
    clear tag and go unnoticed. *)

val install :
  Ndroid_dalvik.Vm.t -> Network.t -> Filesystem.t -> Sink_monitor.t -> unit

val sink_catalog : (string * string) list
(** (class, method) of every Java-context sink. *)

val is_sink : string -> string -> bool
(** Is class [cls]'s method [m] in {!sink_catalog}? *)
