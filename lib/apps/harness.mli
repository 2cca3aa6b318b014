(** Running a scenario app under each analysis configuration.

    One app, four configurations — Vanilla (no analysis, the Fig. 10
    baseline), TaintDroid only, DroidScope mode, full NDroid — on a fresh
    device each time, reporting what leaked and what was detected.  This is
    the mechanism behind experiment E3 (the Table I detection matrix) and
    the case studies E4-E7. *)

module Device = Ndroid_runtime.Device
module Vm = Ndroid_dalvik.Vm

type mode = Vanilla | Taintdroid_only | Droidscope_mode | Ndroid_full

val mode_name : mode -> string

(** A packaged scenario app. *)
type app = {
  app_name : string;
  app_case : string;  (** Table I case label, e.g. "case 1'" *)
  description : string;
  classes : Ndroid_dalvik.Classes.class_def list;
  build_libs : (string -> int option) -> (string * Ndroid_arm.Asm.program) list;
      (** built lazily: assembly happens against the fixed layout *)
  entry : string * string;  (** class, method *)
  expected_sink : string;  (** substring the leak's sink name must contain *)
}

type outcome = {
  mode : mode;
  detected : bool;  (** a tainted leak was reported at the expected sink *)
  leaks : Ndroid_android.Sink_monitor.leak list;
  stats : Ndroid_core.Ndroid.stats option;
  transmissions : Ndroid_android.Network.transmission list;
  file_writes : Ndroid_android.Filesystem.write_record list;
  device : Device.t;
  analysis : Ndroid_core.Ndroid.t option;
      (** the attached NDroid instance in [Ndroid_full] mode *)
}

val boot : app -> Device.t
(** Fresh device with the app's classes installed and libraries provided
    (loaded eagerly so every mode starts equal). *)

val boot_cost : unit -> float * float
(** What one [Device.create] allocates: its bytes, and the words it puts
    straight on the major heap (an array over 256 words; should be none).
    Deterministic: the counts move only when the boot's work does. *)

val boot_bytes_bound : float
(** The pinned bound on the bytes of {!boot_cost}: 27,864 measured
    (64-bit), with a small margin.  The runtime tests and [bench perf]'s
    [device_boot] gate both check it. *)

val run :
  ?obs:Ndroid_obs.Ring.t ->
  ?summaries:bool ->
  ?focus:Ndroid_report.Focus.t ->
  mode ->
  app ->
  outcome
(** Boot, attach the mode's analysis, invoke the entry point (catching any
    escaping Java exception), collect results.  [obs] (Ndroid mode only)
    supplies the observability hub the analysis records into;
    [summaries] (default [false], Ndroid mode only) enables the summary
    JNI fast path;
    [focus] (Ndroid mode only) gates instrumentation to the static slice's
    focus set — the hybrid pipeline's focused dynamic run. *)

val detection_row : app -> (mode * bool) list
(** The app's row of the Table I matrix: detection under every mode. *)
