module Device = Ndroid_runtime.Device
module Vm = Ndroid_dalvik.Vm
module Dvalue = Ndroid_dalvik.Dvalue
module Taint = Ndroid_taint.Taint
module Ndroid = Ndroid_core.Ndroid
module Droidscope = Ndroid_core.Droidscope
module Flow_log = Ndroid_core.Flow_log
module Taintdroid = Ndroid_taintdroid.Taintdroid
module A = Ndroid_android

type mode = Vanilla | Taintdroid_only | Droidscope_mode | Ndroid_full

let mode_name = function
  | Vanilla -> "vanilla"
  | Taintdroid_only -> "TaintDroid"
  | Droidscope_mode -> "DroidScope"
  | Ndroid_full -> "NDroid"

type app = {
  app_name : string;
  app_case : string;
  description : string;
  classes : Ndroid_dalvik.Classes.class_def list;
  build_libs : (string -> int option) -> (string * Ndroid_arm.Asm.program) list;
  entry : string * string;
  expected_sink : string;
}

type outcome = {
  mode : mode;
  detected : bool;
  leaks : A.Sink_monitor.leak list;
  stats : Ndroid.stats option;
  transmissions : A.Network.transmission list;
  file_writes : A.Filesystem.write_record list;
  device : Device.t;
  analysis : Ndroid.t option;
}

let host_resolver device name =
  match Device.Machine.host_fn_addr (Device.machine device) name with
  | addr -> Some addr
  | exception Not_found -> None

let boot app =
  let device = Device.create () in
  Device.install_classes device app.classes;
  List.iter
    (fun (name, prog) ->
      Device.provide_library device name prog;
      Device.load_library device name)
    (app.build_libs (host_resolver device));
  device

let boot_bytes_bound = 30_000.

let boot_cost () =
  ignore (Device.create ());
  (* OCaml 5 folds the minor heap's allocation into the counters only at
     a minor collection, and the major-heap counters can lag one
     collection behind: force two on each side *)
  Gc.minor ();
  Gc.minor ();
  let s0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  let d = Device.create () in
  Gc.minor ();
  Gc.minor ();
  let a1 = Gc.allocated_bytes () in
  let s1 = Gc.quick_stat () in
  ignore (Sys.opaque_identity d);
  let direct_major =
    s1.Gc.major_words -. s0.Gc.major_words
    -. (s1.Gc.promoted_words -. s0.Gc.promoted_words)
  in
  (a1 -. a0, direct_major)

let contains_substring = Flow_log.contains

let run ?obs ?(summaries = false) ?focus mode app =
  let device = boot app in
  let ndroid =
    match mode with
    | Vanilla ->
      Taintdroid.vanilla device;
      None
    | Taintdroid_only ->
      ignore (Taintdroid.attach device);
      None
    | Droidscope_mode ->
      ignore (Droidscope.attach device);
      None
    | Ndroid_full ->
      Some
        (Ndroid.attach ~use_summaries:summaries ?obs ?focus device)
  in
  let cls, entry = app.entry in
  (try ignore (Device.run device cls entry [||])
   with Vm.Java_throw _ -> () (* app crashed; analysis results still stand *));
  let leaks = A.Sink_monitor.leaks (Device.monitor device) in
  let detected =
    List.exists
      (fun l ->
        Taint.is_tainted l.A.Sink_monitor.taint
        && contains_substring l.A.Sink_monitor.sink app.expected_sink)
      leaks
  in
  { mode;
    detected;
    leaks;
    stats = (match ndroid with Some n -> Some (Ndroid.stats n) | None -> None);
    transmissions = A.Network.transmissions (Device.net device);
    file_writes = A.Filesystem.writes (Device.fs device);
    device;
    analysis = ndroid }

let detection_row app =
  List.map
    (fun mode -> (mode, (run mode app).detected))
    [ Vanilla; Taintdroid_only; Droidscope_mode; Ndroid_full ]
