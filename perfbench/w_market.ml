(* market_sweep: the paper's Sec. III market triage.  Slices of the
   synthetic market go through [Pool.run] in [Hybrid] mode on the domains
   engine, with a worker domain on every core but one and no cache: the
   static front end proves most apps clean, and only the flagged residue
   is emulated.  After each sweep, single apps of the same slice are
   triaged one at a time, as a user submitting one app would have it.

   Unit of work: one app.  ops_per_s is apps per second of sweep wall
   time, the median over the run's sweeps; p50_ms and p99_ms are the
   per-app wall times of [Analysis.run] on the single apps.

   The traced run also hosts the analysis daemon ([Server.serve], domains
   engine) in a domain of its own and drives it from a seeded open-loop
   generator, for the server's per-layer metrics. *)

module P = Ndroid_pipeline
module Market = Ndroid_corpus.Market
module Apk = Ndroid_corpus.Apk
module St = Ndroid_static
module Verdict = Ndroid_report.Verdict
module Json = Ndroid_report.Json

(* Apps per sweep, and the rate (sweeps and single apps together) the
   run length is sized with (measured on a 2-core x86-64 box). *)
let slice = 5_000
let nominal_apps_per_s = 10_000.0

(* Sweep [i] of a run sweeps its own market, drawn from the run's seed. *)
let params ~seed i = { (Market.scaled slice) with Market.seed = (seed * 1000) + i }

let task params id =
  { P.Task.t_id = id;
    t_subject =
      P.Task.Market
        { m_total = params.Market.total; m_seed = params.Market.seed;
          m_permille = params.Market.type1_permille; m_id = id };
    t_mode = P.Task.Hybrid;
    t_fault = None }

(* A verdict is right when it flags exactly the apps the generator made
   leaky; a crash or timeout is never right. *)
let wrong params id (r : Verdict.report) =
  match r.Verdict.r_verdict with
  | Verdict.Crashed _ | Verdict.Timeout -> true
  | v -> Verdict.flagged v <> Market.app_is_leaky (Market.app params id)

type sweep = { sw_wall : float; sw_failed : int; sw_stats : P.Pool.stats }

let sweep ~jobs params =
  let t0 = Bench.now () in
  let cfg = P.Pool.config ~jobs ~engine:P.Engine.Domains () in
  let reports, stats = P.Pool.run cfg (List.init params.Market.total (task params)) in
  let wall = Bench.now () -. t0 in
  let failed = ref 0 in
  Array.iteri (fun id r -> if wrong params id r then incr failed) reports;
  { sw_wall = wall; sw_failed = !failed; sw_stats = stats }

(* Single apps triaged after each sweep, spread over its slice: enough
   for one p99 window per sweep. *)
let singles = Bench.min_samples

(* Wall seconds of [Analysis.run] on each single app, and how many of
   their verdicts were wrong. *)
let single_apps params =
  let failed = ref 0 in
  let lat =
    Array.init singles (fun k ->
        let id = k * (slice / singles) in
        let t0 = Bench.now () in
        let r = P.Analysis.run (task params id) in
        let dt = Bench.now () -. t0 in
        if wrong params id r then incr failed;
        dt)
  in
  (lat, !failed)

(* Set-up: a 500-app sweep, which creates the analysis service and
   spawns the worker domains as every sweep does. *)
let setup ~jobs ~seed () =
  ignore (sweep ~jobs { (Market.scaled 500) with Market.seed = seed })

(* ---- the traced replica ---------------------------------------------- *)

(* [Analysis]'s merge of a static and a focused dynamic report, which the
   replica needs to reproduce hybrid reports byte for byte. *)
let merge_hybrid (s : Verdict.report) (d : Verdict.report) =
  let verdict =
    match (s.Verdict.r_verdict, d.Verdict.r_verdict) with
    | Verdict.Crashed why, _ | _, Verdict.Crashed why -> Verdict.Crashed why
    | Verdict.Timeout, _ | _, Verdict.Timeout -> Verdict.Timeout
    | sv, dv ->
      Verdict.normalize (Verdict.Flagged (Verdict.flows sv @ Verdict.flows dv))
  in
  { Verdict.r_app = s.Verdict.r_app;
    r_analysis = "hybrid";
    r_verdict = verdict;
    r_meta =
      List.map (fun (k, v) -> ("static_" ^ k, v)) s.Verdict.r_meta
      @ List.map (fun (k, v) -> ("dynamic_" ^ k, v)) d.Verdict.r_meta }

let meta_int key (r : Verdict.report) =
  match List.assoc_opt key r.Verdict.r_meta with
  | Some (Json.Int n) -> n
  | _ -> 0

type app_trace = {
  at_json : string;
  at_static : St.Analyzer.verdict;
  at_dynamic : Verdict.report option;
}

(* One hybrid analysis, rebuilt from the public calls [Analysis.run]
   makes, each inside a span.  The JSON encoding happens after the
   analysis span, as a caller serialising the report would do it. *)
let traced_app params id =
  let report, v, dynamic =
    Bench.request id "app" (fun () ->
        let model, apk =
          Bench.span "corpus.materialize" (fun () ->
              let m =
                P.Task.market_model ~total:params.Market.total
                  ~seed:params.Market.seed
                  ~permille:params.Market.type1_permille id
              in
              (m, Apk.of_app_model m))
        in
        let v = Bench.span "static.analyze" (fun () -> St.Analyzer.analyze_apk apk) in
        let sr = Bench.span "report.to_report" (fun () -> St.Report.to_report v) in
        match sr.Verdict.r_verdict with
        | Verdict.Flagged _ ->
          let d =
            Bench.span "market_exec.focused" (fun () ->
                P.Market_exec.run ~focus:v.St.Analyzer.v_focus model)
          in
          (Bench.span "report.to_report" (fun () -> merge_hybrid sr d), v, Some d)
        | Verdict.Clean | Verdict.Crashed _ | Verdict.Timeout ->
          ({ sr with Verdict.r_analysis = "hybrid" }, v, None))
  in
  let json =
    Bench.span "json.encode" (fun () -> Json.to_string (Verdict.report_to_json report))
  in
  { at_json = json; at_static = v; at_dynamic = dynamic }

(* The layers a daemon puts around an analysis, measured in process: the
   service's cache layers answering a repeat, and the wire codec of the
   verdict frame.  Returns whether both gave back what went in. *)
let service_layers service p id (reference : Verdict.report) =
  let report, cached =
    Bench.request id "cache.hit" (fun () -> P.Analysis.service_run service (task p id))
  in
  let frame =
    Bench.request id "proto.encode" (fun () ->
        P.Proto.to_frame
          (P.Proto.Verdict
             { vd_req = id; vd_cached = cached; vd_seconds = 0.0; vd_report = reference }))
  in
  (* the payload after the 4-byte length header, as the wire reader
     hands it over *)
  let payload = Bytes.sub_string frame 4 (Bytes.length frame - 4) in
  let decoded = Bench.request id "proto.decode" (fun () -> P.Proto.of_frame payload) in
  let bytes r = Json.to_string (Verdict.report_to_json r) in
  let same r = bytes r = bytes reference in
  cached && same report
  &&
  match decoded with
  | Ok (P.Proto.Verdict { vd_report; _ }) -> same vd_report
  | Ok _ | Error _ -> false

(* ---- the daemon ------------------------------------------------------ *)

(* Requests the generator sends, and their mean rate: far below what one
   worker domain answers (a fresh market app takes well under a
   millisecond, a bundled dynamic analysis a few), so that nothing is
   shed. *)
let serve_requests = 600
let serve_rate = 200.0

(* The seeded request sequence: arrival times (exponential gaps at
   [serve_rate]) and tasks, each a fresh app of [p], a repeat of a task
   sent before, or a bundled registry app in [Dynamic]. *)
let schedule ~seed p =
  let st = Random.State.make [| seed; 0x5e7e |] in
  let t = ref 0.0 and fresh = ref 0 in
  let sent = Array.make serve_requests (task p 0) in
  Array.init serve_requests (fun k ->
      t := !t -. (log (1.0 -. Random.State.float st 1.0) /. serve_rate);
      let r = Random.State.float st 1.0 in
      let tk =
        if r < 0.3 && k > 0 then sent.(Random.State.int st k)
        else if r < 0.8 then begin
          let id = !fresh * (slice / serve_requests) in
          incr fresh;
          task p id
        end
        else W_jni.task W_jni.apps.(Random.State.int st (Array.length W_jni.apps))
      in
      sent.(k) <- tk;
      (!t, tk))

let answer_right p (tk : P.Task.t) r =
  match tk.P.Task.t_subject with
  | P.Task.Market { m_id; _ } -> not (wrong p m_id r)
  | P.Task.Bundled name -> W_jni.right name r

type generated = {
  g_verdicts : (Verdict.report * bool * float * float) option array;
      (** report, cached, analysis seconds, answer time *)
  g_late : float array;  (** send time minus due time *)
  g_depths : float array;  (** queue depths the daemon reported *)
  g_shed : int;
}

(* The generator: one connection, each request sent at its due time
   (open loop), responses read while waiting for the next one. *)
let drive ~socket sched =
  let c =
    match P.Proto.Client.connect ~retry_for:10.0 socket with
    | Ok c -> c
    | Error e -> failwith ("connect to the daemon: " ^ e)
  in
  let fd = P.Proto.Client.fd c in
  let n = Array.length sched in
  let verdicts = Array.make n None and late = Array.make n 0.0 in
  let depths = ref [] and shed = ref 0 and answered = ref 0 and next = ref 0 in
  let reader = P.Wire.create_reader () in
  let t0 = Bench.now () in
  let handle frame =
    match P.Proto.of_frame frame with
    | Ok (P.Proto.Verdict v) ->
      verdicts.(v.vd_req) <-
        Some (v.vd_report, v.vd_cached, v.vd_seconds, Bench.now () -. t0);
      incr answered
    | Ok (P.Proto.Progress pg) -> depths := float_of_int pg.pg_depth :: !depths
    | Ok (P.Proto.Shed _) ->
      incr shed;
      incr answered
    | Ok (P.Proto.Trace _) -> ()
    | Ok (P.Proto.Error e) | Error e -> failwith ("daemon: " ^ e)
    | Ok (P.Proto.Submit _ | P.Proto.Subscribe _) -> failwith "daemon: unexpected frame"
  in
  Fun.protect
    ~finally:(fun () -> P.Proto.Client.close c)
    (fun () ->
      while !answered < n do
        let now = Bench.now () -. t0 in
        if !next < n && fst sched.(!next) <= now then begin
          let due, (tk : P.Task.t) = sched.(!next) in
          late.(!next) <- now -. due;
          P.Proto.Client.send c
            (P.Proto.Submit
               { sb_req = !next; sb_subject = tk.P.Task.t_subject;
                 sb_mode = tk.P.Task.t_mode; sb_deadline = None; sb_fault = None;
                 sb_trace = false });
          incr next
        end
        else begin
          let wait = if !next < n then fst sched.(!next) -. now else 30.0 in
          match Unix.select [ fd ] [] [] wait with
          | [], _, _ -> if !next >= n then failwith "daemon: no answer in 30 s"
          | _ -> (
            match P.Wire.drain reader fd with
            | `Frames frames -> List.iter handle frames
            | `Eof frames ->
              List.iter handle frames;
              if !answered < n then failwith "daemon: connection closed")
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        end
      done);
  { g_verdicts = verdicts; g_late = late; g_depths = Array.of_list !depths;
    g_shed = !shed }

(* Host [Server.serve] in a domain of its own, drive it with the seeded
   sequence, stop it, and check every verdict against its known answer
   and byte for byte against [Analysis.run] of the same task.  Returns
   the requests sent, the failed ones and the server's metrics. *)
let serve_layers ~jobs ~seed p =
  Bench.ensure_out_dir ();
  let socket =
    Filename.concat Bench.out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))
  in
  let stop = Atomic.make false in
  let cfg =
    P.Server.config ~socket ~jobs ~engine:P.Engine.Domains
      ~stop:(fun () -> Atomic.get stop)
      ()
  in
  let daemon = Domain.spawn (fun () -> P.Server.serve cfg) in
  let sched = schedule ~seed p in
  let result = try Ok (drive ~socket sched) with e -> Error e in
  Atomic.set stop true;
  let stats = Domain.join daemon in
  let g = match result with Ok g -> g | Error e -> raise e in
  let failed = ref g.g_shed in
  let analysis = ref [] and overhead = ref [] and cached = ref 0 in
  Array.iteri
    (fun k v ->
      match v with
      | None -> ()
      | Some (report, hit, seconds, at) ->
        let due, tk = sched.(k) in
        let reference = P.Analysis.run tk in
        let bytes r = Json.to_string (Verdict.report_to_json r) in
        if bytes report <> bytes reference || not (answer_right p tk report) then
          incr failed;
        if hit then incr cached else analysis := (1000.0 *. seconds) :: !analysis;
        overhead := (1000.0 *. (at -. due -. seconds)) :: !overhead)
    g.g_verdicts;
  let answered = List.length !overhead in
  let med l = if l = [] then 0.0 else Bench.median (Array.of_list l) in
  ( Array.length sched,
    !failed,
    [ ("serve.analysis_ms", med !analysis);
      ("serve.overhead_ms", med !overhead);
      ("serve.cached_ratio",
       if answered = 0 then 0.0 else float_of_int !cached /. float_of_int answered);
      ("serve.admission_depth_p99",
       if g.g_depths = [||] then 0.0 else Bench.quantile 0.99 g.g_depths);
      ("serve.shed", float_of_int stats.P.Server.sv_shed);
      ("serve.coalesced", float_of_int stats.P.Server.sv_coalesced);
      ("serve.analyses", float_of_int stats.P.Server.sv_analyses);
      ("loadgen.late_p99_ms", 1000.0 *. Bench.quantile 0.99 g.g_late) ] )

(* Apps the sequential traced replica covers in a run. *)
let traced_apps = 2_000

let traced ~jobs ~seed ~sweeps =
  let sw = sweep ~jobs (params ~seed 0) in
  let st = sw.sw_stats in
  let p = params ~seed sweeps in
  let n = traced_apps in
  let untraced = ref 0.0 in
  let mismatches = ref 0 and failed = ref sw.sw_failed in
  let alloc = ref 0.0 and majors = ref 0 in
  let methods = ref 0 and insns = ref 0 and rounds = ref 0 and xir = ref 0 in
  let pruned = ref 0 and focused = ref 0 in
  let bytecodes = ref 0 and skipped = ref 0 and crossings = ref 0 in
  let traced_insns = ref 0 in
  let service = P.Analysis.service () in
  let layers_ok = ref true in
  (* spread over the slice: the generator lays sub-populations out by id *)
  let ids = Array.init n (fun k -> k * (slice / n)) in
  let references = Array.make n None in
  for k = 0 to n - 1 do
    let id = ids.(k) in
    let t0 = Bench.now () in
    let reference = P.Analysis.run (task p id) in
    untraced := !untraced +. (Bench.now () -. t0);
    references.(k) <- Some reference;
    let a0 = Bench.allocated_mb () and m0 = Bench.major_collections () in
    let at = traced_app p id in
    alloc := !alloc +. (Bench.allocated_mb () -. a0);
    majors := !majors + (Bench.major_collections () - m0);
    if at.at_json <> Json.to_string (Verdict.report_to_json reference) then
      incr mismatches;
    if wrong p id reference then incr failed;
    (* stored now, answered from the warm layer in the second pass *)
    ignore (P.Analysis.service_run service (task p id));
    let v = at.at_static in
    methods := !methods + v.St.Analyzer.v_methods;
    insns := !insns + v.St.Analyzer.v_native_insns;
    rounds := !rounds + v.St.Analyzer.v_rounds;
    xir := !xir + v.St.Analyzer.v_xir_nodes;
    match at.at_dynamic with
    | None -> incr pruned
    | Some d ->
      incr focused;
      bytecodes := !bytecodes + meta_int "bytecodes" d;
      skipped := !skipped + meta_int "skipped_bytecodes" d;
      crossings := !crossings + meta_int "jni_crossings" d;
      traced_insns := !traced_insns + meta_int "traced_instructions" d
  done;
  Array.iteri
    (fun k id ->
      if not (service_layers service p id (Option.get references.(k))) then
        layers_ok := false)
    ids;
  let per_app x = float_of_int x /. float_of_int n in
  let micros name = 1e6 *. Bench.span_seconds name /. float_of_int n in
  let per_focused x = if !focused = 0 then 0.0 else float_of_int x /. float_of_int !focused in
  let seconds name = Bench.span_seconds name /. float_of_int n in
  let values =
    [ ("corpus.materialize_s", seconds "corpus.materialize");
      ("static.analyze_s", seconds "static.analyze");
      ("static.methods", per_app !methods);
      ("static.native_insns", per_app !insns);
      ("static.rounds", per_app !rounds);
      ("static.xir_nodes", per_app !xir);
      ("static.pruned_ratio", per_app !pruned);
      ("market_exec.focused_s",
       if !focused = 0 then 0.0
       else Bench.span_seconds "market_exec.focused" /. float_of_int !focused);
      ("market_exec.bytecodes", per_focused !bytecodes);
      ("market_exec.skipped_bytecodes", per_focused !skipped);
      ("pool.analyze_cpu_s", st.P.Pool.s_analyze_cpu);
      ("pool.collect_s", st.P.Pool.s_collect);
      ("pool.digest_s", st.P.Pool.s_digest);
      ("pool.steals", float_of_int st.P.Pool.s_steals);
      ("pool.parallel_efficiency",
       st.P.Pool.s_analyze_cpu /. (st.P.Pool.s_wall *. float_of_int jobs));
      ("dalvik.bytecodes", per_app !bytecodes);
      ("jni.crossings", per_app !crossings);
      ("emulator.traced_insns", per_app !traced_insns);
      ("report.to_report_s", seconds "report.to_report");
      ("json.encode_s", seconds "json.encode");
      ("gc.alloc_mb", !alloc /. float_of_int n);
      ("gc.major_collections", per_app !majors);
      ("cache.hit_us", micros "cache.hit");
      ("proto.encode_us", micros "proto.encode");
      ("proto.decode_us", micros "proto.decode");
      ("trace.overhead_ratio", Bench.span_seconds "app" /. !untraced);
      ("trace.coverage_ratio", Bench.coverage "app") ]
  in
  let served, serve_failed, serve_values = serve_layers ~jobs ~seed (params ~seed (sweeps + 1)) in
  { Bench.attempted = slice + n + served;
    failed = !failed + !mismatches + serve_failed;
    correct = !failed = 0 && !mismatches = 0 && !layers_ok && serve_failed = 0;
    values = values @ serve_values }

let run ~seed ~seconds ~trace =
  (* one core stays with the domain that collects verdicts: with a worker
     domain on every core of a 2-core box, the sweep rate moved by 30-50%
     between identical runs *)
  let jobs = max 1 (Bench.nproc () - 1) in
  let sweeps = Bench.repetitions ~seconds ~ops_per_s:nominal_apps_per_s ~per_unit:slice in
  let setup_s, () = Bench.median_setup (setup ~jobs ~seed) in
  if trace then traced ~jobs ~seed ~sweeps
  else begin
    let results =
      List.init sweeps (fun i ->
          let p = params ~seed i in
          let sw = sweep ~jobs p in
          (sw, single_apps p))
    in
    let rates =
      Array.of_list (List.map (fun (sw, _) -> float_of_int slice /. sw.sw_wall) results)
    in
    let lat = Array.concat (List.map (fun (_, (l, _)) -> l) results) in
    let failed =
      List.fold_left (fun a (sw, (_, f)) -> a + sw.sw_failed + f) 0 results
    in
    { Bench.attempted = sweeps * (slice + singles);
      failed;
      correct = failed = 0;
      values =
        [ ("setup_s", setup_s);
          ("peak_rss_mb", Bench.peak_rss_mb ());
          ("ops_per_s", Bench.median rates);
          ("p50_ms", 1000.0 *. Bench.median lat);
          ("p99_ms", 1000.0 *. Bench.window_p99 lat) ] }
  end
