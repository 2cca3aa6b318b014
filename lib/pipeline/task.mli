(** One unit of pipeline work: which app, which analyzer, and (for the
    fault-injection tests and bench) how the analysis should misbehave.

    A subject is something any worker can rebuild from the description
    alone: a bundled scenario app by registry name, or one synthetic
    market app by generator coordinates (params + id). *)

type mode = Static | Dynamic | Both | Hybrid
(** [Hybrid] runs static first and proves clean apps clean with no
    emulation; only flagged apps get a focused dynamic pass gated to the
    static slice's focus set. *)

type subject =
  | Bundled of string  (** a {!Ndroid_apps.Registry} app name *)
  | Market of { m_total : int; m_seed : int; m_permille : int option;
                m_id : int }
      (** app [m_id] of [Market.generate {total; seed; type1_permille}] *)

(** Injected misbehaviour, acted on inside {!Analysis.run} and exercised
    by the fault tests, the service-layer tests and
    `bench/main.exe pipeline`: [Crash] raises mid-analysis (a [Crashed]
    verdict), [Hang] spins until the work budget runs out (a [Timeout]),
    and [Sleep s] delays the analysis by [s] seconds (a deterministic
    "slow app" for fairness and shedding tests).  Never set on real
    analysis work. *)
type fault = Crash | Hang | Sleep of float

type t = {
  t_id : int;  (** dense index; results are ordered by it *)
  t_subject : subject;
  t_mode : mode;
  t_fault : fault option;
}

val mode_name : mode -> string
val mode_of_name : string -> mode option

val subject_name : subject -> string
(** Stable display/app name: the registry name, or the market app's
    generated package. *)

val market_model : total:int -> seed:int -> permille:int option -> int ->
  Ndroid_corpus.App_model.t
(** Rebuild the market app a [Market] subject points at. *)

val of_market_slice : ?mode:mode -> Ndroid_corpus.Market.params -> t list
(** One [Static] task per app of the slice, ids [0..total-1]. *)

val subject_to_json : subject -> Ndroid_report.Json.t
val subject_of_json : Ndroid_report.Json.t -> (subject, string) result
val fault_to_json : fault option -> Ndroid_report.Json.t
val fault_of_json : Ndroid_report.Json.t option -> (fault option, string) result
(** The codecs of the service protocol ({!Ndroid_pipeline.Proto}), whose
    [Submit] messages carry a subject and a fault but mint their own
    ids. *)
