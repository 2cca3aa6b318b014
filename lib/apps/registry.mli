(** The canonical registry of bundled scenario apps — every Table-I case,
    case study, polymorphic variant, Sec.-VI batch app, the control-flow
    evasion app and the input-gated demo, deduplicated by name.  The CLI,
    the experiment harness and the analysis pipeline all resolve app names
    against this one list. *)

val all : Harness.app list
val names : string list
val find : string -> Harness.app option
(** A bundled app, or else one added by {!register}. *)

val register : Harness.app -> unit
(** Make an app that is not bundled resolvable by {!find} — and so
    analyzable by name through the pipeline — for tests that bring their
    own app.  It is not added to {!all} or {!names}.
    @raise Invalid_argument if the name is taken. *)

val find_exn : string -> Harness.app
(** @raise Invalid_argument with the known names when absent. *)
