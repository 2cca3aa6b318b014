(* jni_apps: a closed loop with one client and no memo.  [Analysis.run]
   runs a [Dynamic] task over each of the bundled registry apps, in an
   order shuffled per round from the seed.  Every analysis boots a
   device, attaches NDroid, interprets Dalvik, crosses JNI, emulates or
   summarises native code and builds a report with provenance, so the
   per-analysis set-up (boot, attach, the obs ring) carries most of the
   cost.

   Unit of work: one analysis.  ops_per_s is analyses per second of a
   round, the median over rounds; p50_ms and p99_ms are per-analysis wall
   times. *)

module P = Ndroid_pipeline
module H = Ndroid_apps.Harness
module Registry = Ndroid_apps.Registry
module Device = Ndroid_runtime.Device
module Vm = Ndroid_dalvik.Vm
module Ndroid = Ndroid_core.Ndroid
module Flow_log = Ndroid_core.Flow_log
module A = Ndroid_android
module Verdict = Ndroid_report.Verdict
module Flow = Ndroid_report.Flow
module Json = Ndroid_report.Json

(* The known answers, written down from the apps' specifications and the
   paper rather than from any analyzer's output: the sink each leaking
   app must be flagged at, or [None] for apps that must come out clean.
   control-flow-evasion leaks only through a control dependence, which
   NDroid does not track (Sec. VII); gated leaks only on an input the
   entry point never supplies. *)
let expected =
  [ ("case1", Some "Socket.send"); ("case1'", Some "Socket.send");
    ("case2", Some "send"); ("case3", Some "Socket.send");
    ("case4", Some "sendto"); ("QQPhoneBook3.5", Some "Socket.send");
    ("ePhone3.3", Some "sendto"); ("PoC-case2", Some "fprintf");
    ("PoC-case3", Some "Socket.send"); ("poly-net", Some "send");
    ("poly-file", Some "fprintf"); ("poly-callback", Some "Socket.send");
    ("SmsBackup", None); ("ContactsWidget", None); ("PhotoFilter", None);
    ("GamePhysics", None); ("AudioEq", None); ("DialerSkin", None);
    ("SmsTheme", None); ("control-flow-evasion", None); ("gated", None) ]

let right name (r : Verdict.report) =
  match (List.assoc_opt name expected, r.Verdict.r_verdict) with
  | Some (Some sink), Verdict.Flagged flows ->
    List.exists (fun f -> f.Flow.f_sink = sink) flows
  | Some None, Verdict.Clean -> true
  | _ -> false

let apps = Array.of_list Registry.all

let task (app : H.app) =
  { P.Task.t_id = 0; t_subject = P.Task.Bundled app.H.app_name;
    t_mode = P.Task.Dynamic; t_fault = None }

(* Round [r]'s visiting order, a shuffle drawn from the seed. *)
let order ~seed r =
  let st = Random.State.make [| seed; r |] in
  let a = Array.init (Array.length apps) Fun.id in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Analyses per second the run length is sized with (2-core x86-64). *)
let nominal_per_s = 500.0

(* ---- the traced replica ---------------------------------------------- *)

(* [Analysis.run] of a bundled [Dynamic] task, rebuilt from the public
   calls it makes ([Harness.run] in [Ndroid_full] mode, then the report
   with the execution counters), each inside a span.  The JSON encoding
   happens after the analysis span, as a caller serialising the report
   would do it. *)
let traced_analysis req (app : H.app) =
  let report, nd =
    Bench.request req "analysis" (fun () ->
        let device = Bench.span "device.boot" (fun () -> H.boot app) in
        let nd =
          Bench.span "ndroid.attach" (fun () ->
              Ndroid.attach ~use_superblocks:false ~use_summaries:true device)
        in
        Bench.span "ndroid.execute" (fun () ->
            let cls, entry = app.H.entry in
            try ignore (Device.run device cls entry [||]) with Vm.Java_throw _ -> ());
        Bench.span "ndroid.collect" (fun () ->
            (* what [Harness.run] gathers from the finished run *)
            ignore (A.Sink_monitor.leaks (Device.monitor device));
            ignore (Flow_log.entries (Ndroid.log nd));
            ignore (A.Network.transmissions (Device.net device));
            ignore (A.Filesystem.writes (Device.fs device)));
        let report =
          Bench.span "report.to_report" (fun () ->
              let c = (Device.vm device).Vm.counters in
              let s = Ndroid.stats nd in
              let r = Ndroid_core.Report.to_report ~app_name:app.H.app_name nd in
              { r with
                Verdict.r_meta =
                  r.Verdict.r_meta
                  @ [ ("bytecodes", Json.Int c.Vm.bytecodes);
                      ("invokes", Json.Int c.Vm.invokes);
                      ("jni_crossings", Json.Int (c.Vm.native_calls + c.Vm.jni_env_calls));
                      ("sb_compiles", Json.Int s.Ndroid.sb_compiles);
                      ("sb_hits", Json.Int s.Ndroid.sb_hits);
                      ("sb_invalidations", Json.Int s.Ndroid.sb_invalidations);
                      ("summaries_applied", Json.Int s.Ndroid.native_summaries_applied);
                      ("summaries_rejected", Json.Int s.Ndroid.native_summaries_rejected);
                      ("focused_methods", Json.Int s.Ndroid.focused_methods);
                      ("skipped_bytecodes", Json.Int s.Ndroid.skipped_bytecodes) ] })
        in
        (report, nd))
  in
  (Bench.span "json.encode" (fun () -> Json.to_string (Verdict.report_to_json report)),
   report, nd)

let traced ~seed ~rounds =
  let n = rounds * Array.length apps in
  let untraced = ref 0.0 in
  let failed = ref 0 and mismatches = ref 0 in
  let alloc = ref 0.0 and majors = ref 0 in
  let bytecodes = ref 0 and crossings = ref 0 and insns = ref 0 in
  let applied = ref 0 and rejected = ref 0 in
  let req = ref 0 in
  for r = 0 to rounds - 1 do
    Array.iter
      (fun i ->
        let app = apps.(i) in
        let t0 = Bench.now () in
        let reference = P.Analysis.run (task app) in
        untraced := !untraced +. (Bench.now () -. t0);
        let a0 = Bench.allocated_mb () and m0 = Bench.major_collections () in
        let json, report, nd = traced_analysis !req app in
        incr req;
        alloc := !alloc +. (Bench.allocated_mb () -. a0);
        majors := !majors + (Bench.major_collections () - m0);
        if json <> Json.to_string (Verdict.report_to_json reference) then incr mismatches;
        if not (right app.H.app_name reference && right app.H.app_name report) then
          incr failed;
        let c = (Device.vm (Ndroid.device nd)).Vm.counters in
        let s = Ndroid.stats nd in
        bytecodes := !bytecodes + c.Vm.bytecodes;
        crossings := !crossings + c.Vm.native_calls + c.Vm.jni_env_calls;
        insns := !insns + s.Ndroid.traced_instructions;
        applied := !applied + s.Ndroid.native_summaries_applied;
        rejected := !rejected + s.Ndroid.native_summaries_rejected)
      (order ~seed r)
  done;
  let per x = float_of_int x /. float_of_int n in
  let seconds name = Bench.span_seconds name /. float_of_int n in
  let coverage = Bench.coverage "analysis" in
  { Bench.attempted = n;
    failed = !failed + !mismatches;
    correct = !failed = 0 && !mismatches = 0 && coverage >= 0.95;
    values =
      [ ("device.boot_s", seconds "device.boot");
        ("ndroid.attach_s", seconds "ndroid.attach");
        ("ndroid.execute_s", seconds "ndroid.execute");
        ("ndroid.collect_s", seconds "ndroid.collect");
        ("report.to_report_s", seconds "report.to_report");
        ("json.encode_s", seconds "json.encode");
        ("dalvik.bytecodes", per !bytecodes);
        ("jni.crossings", per !crossings);
        ("emulator.traced_insns", per !insns);
        ("summary.applied", per !applied);
        ("summary.hit_ratio",
         if !applied + !rejected = 0 then 0.0
         else float_of_int !applied /. float_of_int (!applied + !rejected));
        ("gc.alloc_mb", !alloc /. float_of_int n);
        ("gc.major_collections", per !majors);
        ("trace.overhead_ratio", Bench.span_seconds "analysis" /. !untraced);
        ("trace.coverage_ratio", coverage) ] }

(* Set-up: boot a device for every registry app (device, class install,
   library link) and attach NDroid to it, without running anything. *)
let setup () =
  Array.iter
    (fun app -> ignore (Ndroid.attach ~use_superblocks:false ~use_summaries:true (H.boot app)))
    apps

let run ~seed ~seconds ~trace =
  if List.length expected <> Array.length apps then
    failwith "the known-answer table does not cover the registry";
  let setup_s, () = Bench.median_setup setup in
  (* one untimed round in registry order warms the analyzers *)
  Array.iter (fun app -> ignore (P.Analysis.run (task app))) apps;
  let rounds =
    Bench.repetitions ~seconds ~ops_per_s:nominal_per_s ~per_unit:(Array.length apps)
  in
  if trace then traced ~seed ~rounds:(max 1 (rounds / 2))
  else begin
    let n = rounds * Array.length apps in
    let lat = Array.make n 0.0 in
    let failed = ref 0 and k = ref 0 in
    for r = 0 to rounds - 1 do
      Array.iter
        (fun i ->
          let app = apps.(i) in
          let t0 = Bench.now () in
          let report = P.Analysis.run (task app) in
          lat.(!k) <- Bench.now () -. t0;
          incr k;
          if not (right app.H.app_name report) then incr failed)
        (order ~seed r)
    done;
    { Bench.attempted = n;
      failed = !failed;
      correct = !failed = 0;
      values =
        [ ("setup_s", setup_s);
          ("peak_rss_mb", Bench.peak_rss_mb ());
          ("ops_per_s", Bench.grouped_rate ~per:(Array.length apps) lat);
          ("p50_ms", 1000.0 *. Bench.median lat);
          ("p99_ms", 1000.0 *. Bench.window_p99 lat) ] }
  end
