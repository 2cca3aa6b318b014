(* The analysis service: the typed protocol, the service facade, and the
   daemon — request/verdict parity with batch analysis, per-client
   fairness, overload shedding, and deadlines that cancel. *)

module Json = Ndroid_report.Json
module Verdict = Ndroid_report.Verdict
module Task = Ndroid_pipeline.Task
module Pool = Ndroid_pipeline.Pool
module Cache = Ndroid_pipeline.Cache
module Analysis = Ndroid_pipeline.Analysis
module Shard_queue = Ndroid_pipeline.Shard_queue
module Wire = Ndroid_pipeline.Wire
module Proto = Ndroid_pipeline.Proto
module Server = Ndroid_pipeline.Server
module Market = Ndroid_corpus.Market
module Stream = Ndroid_obs.Stream
module Event = Ndroid_obs.Event

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

let slice n = Task.of_market_slice (Market.scaled n)

let with_fault fault tasks =
  List.map (fun (t : Task.t) -> { t with Task.t_fault = Some fault }) tasks

let json_of reports =
  Json.to_string (Verdict.reports_to_json (Array.to_list reports))

(* ---- protocol ---- *)

let strip_length frame =
  (* [Proto.to_frame] returns complete wire bytes; [of_frame] takes the
     payload as the reader returns it, without the 4-byte length *)
  let s = Bytes.to_string frame in
  String.sub s 4 (String.length s - 4)

let test_proto_roundtrip () =
  let subject = (List.hd (slice 8)).Task.t_subject in
  let report =
    { Verdict.r_app = "app-0"; r_analysis = "static"; r_verdict = Verdict.Clean;
      r_meta = [ ("jni_sites", Json.Int 1) ] }
  in
  let messages =
    [ Proto.Submit
        { sb_req = 3; sb_subject = subject; sb_mode = Task.Hybrid;
          sb_deadline = Some 1.5; sb_fault = Some Task.Crash;
          sb_trace = false };
      Proto.Submit
        { sb_req = 0; sb_subject = Task.Bundled "case1"; sb_mode = Task.Static;
          sb_deadline = None; sb_fault = None; sb_trace = true };
      Proto.Verdict
        { vd_req = 7; vd_cached = true; vd_seconds = 0.25; vd_report = report };
      Proto.Progress { pg_req = 2; pg_state = "queued"; pg_depth = 5 };
      Proto.Shed { sh_req = 9; sh_reason = "queue at capacity" };
      Proto.Subscribe
        { su_cats = [ "jni"; "taint" ]; su_app = Some "case.*";
          su_window = 4096 };
      Proto.Subscribe { su_cats = []; su_app = None; su_window = 0 };
      Proto.Trace
        { tc_req = -1; tc_app = "case1";
          tc_events =
            [ { Stream.ev_seq = 0; ev_kind = Event.K_jni_begin;
                ev_name = "La;->n"; ev_detail = "java->native"; ev_addr = 0;
                ev_taint = 2; ev_insn = "" };
              { Stream.ev_seq = 5; ev_kind = Event.K_log; ev_name = "line";
                ev_detail = ""; ev_addr = 0; ev_taint = 0; ev_insn = "" } ];
          tc_dropped = 3; tc_lost = 1 };
      Proto.Trace
        { tc_req = 2; tc_app = "case2"; tc_events = []; tc_dropped = 0;
          tc_lost = 7 };
      Proto.Error "bad frame" ]
  in
  List.iter
    (fun m ->
      match Proto.of_frame (strip_length (Proto.to_frame m)) with
      | Error e -> Alcotest.failf "roundtrip: %s" e
      | Ok m' ->
        Alcotest.(check bytes) "message survives the wire" (Proto.to_frame m)
          (Proto.to_frame m'))
    messages

let test_proto_version_mismatch () =
  (* a frame from a binary one protocol generation ahead must be one
     decisive error, not a misparse *)
  let alien =
    Printf.sprintf "%c%c{}" (Char.chr (Wire.protocol_version + 1)) 'V'
  in
  (match Proto.of_frame alien with
   | Ok _ -> Alcotest.fail "alien version accepted"
   | Error e ->
     Alcotest.(check bool) "error names the version" true
       (contains ~affix:"version" e || contains ~affix:"protocol" e));
  match Proto.of_frame "" with
  | Ok _ -> Alcotest.fail "empty frame accepted"
  | Error _ -> ()

(* analyses run in worker domains, so there is no process to kill: a
   Submit carrying the kill fault is a protocol error *)
let test_proto_refuses_kill () =
  let submit fault =
    Printf.sprintf
      "{\"deadline\":null,\"fault\":\"%s\",\"mode\":\"static\",\"req\":0,\
       \"subject\":{\"kind\":\"bundled\",\"name\":\"case1\"},\
       \"trace\":false}"
      fault
    |> Wire.encode_tagged ~tag:'S' |> strip_length |> Proto.of_frame
  in
  (match submit "crash" with
   | Ok (Proto.Submit _) -> ()
   | _ -> Alcotest.fail "a crash fault must still parse");
  match submit "kill" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a kill fault was accepted"

(* ---- the service queue discipline ---- *)

let test_queue_service_discipline () =
  let q = Shard_queue.create_empty ~shards:3 ~capacity:4 () in
  Alcotest.(check bool) "push a" true (Shard_queue.push q ~shard:0 "a");
  Alcotest.(check bool) "push b" true (Shard_queue.push q ~shard:0 "b");
  Alcotest.(check bool) "push c" true (Shard_queue.push q ~shard:1 "c");
  Alcotest.(check bool) "push d" true (Shard_queue.push q ~shard:2 "d");
  Alcotest.(check bool) "capacity refuses" false (Shard_queue.push q ~shard:1 "e");
  Alcotest.(check int) "depth of shard 0" 2 (Shard_queue.shard_depth q ~shard:0);
  (* round-robin: one item per non-empty shard per round, so the client
     with two queued items waits for everyone else's first *)
  let pops = List.init 4 (fun _ -> Shard_queue.pop_rr q) in
  Alcotest.(check (list (option string))) "rr order"
    [ Some "a"; Some "c"; Some "d"; Some "b" ] pops;
  Alcotest.(check (option string)) "empty" None (Shard_queue.pop_rr q);
  (* popping freed capacity *)
  Alcotest.(check bool) "push after pop" true (Shard_queue.push q ~shard:1 "f");
  Alcotest.(check bool) "push g" true (Shard_queue.push q ~shard:1 "g");
  Alcotest.(check (list string)) "clear_shard returns the backlog"
    [ "f"; "g" ] (Shard_queue.clear_shard q ~shard:1);
  Alcotest.(check int) "cleared" 0 (Shard_queue.shard_depth q ~shard:1)

(* ---- the facade ---- *)

let test_service_facade () =
  let sv = Analysis.service () in
  let task = List.hd (slice 16) in
  let r1, hit1 = Analysis.service_run sv task in
  let r2, hit2 = Analysis.service_run sv task in
  Alcotest.(check bool) "first run computes" false hit1;
  Alcotest.(check bool) "second run is warm" true hit2;
  Alcotest.(check string) "warm report identical"
    (Json.to_string (Verdict.report_to_json r1))
    (Json.to_string (Verdict.report_to_json r2));
  (* fault-marked requests must never be answered from (or poison) the
     warm layer: the marker asks for a live run *)
  let faulted = { task with Task.t_fault = Some (Task.Sleep 0.0) } in
  let _, fhit1 = Analysis.service_run sv faulted in
  let _, fhit2 = Analysis.service_run sv faulted in
  Alcotest.(check bool) "faulted never cache-served" false (fhit1 || fhit2)

let test_digest_distinguishes_entry_points () =
  (* the poly-* bundled apps share one dex and one native library and
     differ only in entry point — their cache keys must still differ *)
  let dig name =
    Analysis.digest
      { Task.t_id = 0; t_subject = Task.Bundled name; t_mode = Task.Static;
        t_fault = None }
  in
  Alcotest.(check bool) "poly-net vs poly-file" false
    (dig "poly-net" = dig "poly-file");
  Alcotest.(check bool) "poly-net vs poly-callback" false
    (dig "poly-net" = dig "poly-callback")

(* ---- the daemon ---- *)

let tmp_name prefix =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.int 1_000_000))

(* the daemon lives in a sibling domain of the test; the stop hook shuts
   it down without signals.  Returns [f]'s result and the daemon's stats. *)
let serve_daemon ?(jobs = 1) ?cache ?depth ?max_clients ?deadline f =
  let socket = tmp_name "ndroid-test-sock" in
  let stop = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Server.serve
          (Server.config ~socket ~jobs ?cache ?depth ?max_clients ?deadline
             ~stop:(fun () -> Atomic.get stop)
             ()))
  in
  let stop_daemon () =
    Atomic.set stop true;
    Domain.join daemon
  in
  match f socket with
  | v -> (v, stop_daemon ())
  | exception e ->
    ignore (stop_daemon ());
    raise e

let with_daemon ?jobs ?depth ?max_clients ?deadline f =
  fst (serve_daemon ?jobs ?depth ?max_clients ?deadline f)

let connect socket =
  match Proto.Client.connect ~retry_for:10.0 socket with
  | Error e -> Alcotest.failf "connect: %s" e
  | Ok c ->
    (* a wedged daemon must fail the test, not hang the suite *)
    Unix.setsockopt_float (Proto.Client.fd c) Unix.SO_RCVTIMEO 30.0;
    c

let submit c ?deadline ?(trace = false) (t : Task.t) =
  Proto.Client.send c
    (Proto.Submit
       { sb_req = t.Task.t_id; sb_subject = t.Task.t_subject;
         sb_mode = t.Task.t_mode; sb_deadline = deadline;
         sb_fault = t.Task.t_fault; sb_trace = trace })

(* next [n] terminal responses, in arrival order *)
let collect c n =
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      match Proto.Client.recv c with
      | Error e -> Alcotest.failf "recv: %s" e
      | Ok (Proto.Verdict v) ->
        go ((v.vd_req, `Verdict (v.vd_report, v.vd_cached)) :: acc) (k - 1)
      | Ok (Proto.Shed s) -> go ((s.sh_req, `Shed s.sh_reason) :: acc) (k - 1)
      | Ok (Proto.Progress _) -> go acc k
      | Ok _ -> Alcotest.fail "unexpected message from the server"
  in
  go [] n

let reports_in_req_order terminals total =
  let arr = Array.make total None in
  List.iter
    (fun (req, t) ->
      match t with
      | `Verdict (r, cached) -> arr.(req) <- Some (r, cached)
      | `Shed reason -> Alcotest.failf "request %d shed: %s" req reason)
    terminals;
  Array.map
    (function
      | Some rc -> rc
      | None -> Alcotest.fail "request got no terminal response")
    arr

(* The warm round submits every task [rounds] times before reading a
   byte: far more answers than a socket buffer holds, so the daemon's
   writes go partial and its output buffer carries the rest. *)
let test_daemon_parity_and_warm () =
  let tasks = slice 40 in
  let n = List.length tasks in
  let batch = Pool.run_inline tasks in
  let expected = json_of batch in
  let rounds = 30 in
  with_daemon ~jobs:2 (fun socket ->
      let c = connect socket in
      List.iter (submit c) tasks;
      let cold = reports_in_req_order (collect c n) n in
      Alcotest.(check string) "cold verdicts bit-identical to batch" expected
        (json_of (Array.map fst cold));
      Alcotest.(check bool) "cold run computed" true
        (Array.for_all (fun (_, cached) -> not cached) cold);
      for _ = 1 to rounds do
        List.iter (submit c) tasks
      done;
      let answers = Array.make n 0 in
      let bytes r = Json.to_string (Verdict.report_to_json r) in
      List.iter
        (fun (req, t) ->
          match t with
          | `Verdict (r, cached) ->
            answers.(req) <- answers.(req) + 1;
            if not (cached && bytes r = bytes batch.(req)) then
              Alcotest.failf "warm answer to request %d: cached %b, %s" req
                cached (bytes r)
          | `Shed reason -> Alcotest.failf "request %d shed: %s" req reason)
        (collect c (rounds * n));
      Alcotest.(check (array int)) "every warm request answered once a round"
        (Array.make n rounds) answers;
      Proto.Client.close c)

let test_daemon_two_clients () =
  (* two clients pipelining concurrently on one worker: each stream gets
     exactly its own verdicts, each request exactly one terminal *)
  let tasks = slice 12 in
  let n = List.length tasks in
  with_daemon ~jobs:1 (fun socket ->
      let a = connect socket in
      let b = connect socket in
      List.iter
        (fun t ->
          submit a t;
          submit b t)
        tasks;
      let check name terminals =
        let reqs =
          List.map fst terminals |> List.sort_uniq compare
        in
        Alcotest.(check (list int)) (name ^ ": every request answered once")
          (List.map (fun (t : Task.t) -> t.Task.t_id) tasks)
          reqs
      in
      check "client a" (collect a n);
      check "client b" (collect b n);
      Proto.Client.close a;
      Proto.Client.close b)

let test_daemon_fairness () =
  (* a saturating client cannot starve a neighbour: round-robin dispatch
     serves b's single request after at most one in-flight task, while
     a's backlog alone is ~1.5s of worker time *)
  let backlog = with_fault (Task.Sleep 0.05) (slice 30) in
  let quick = List.hd (slice 1) in
  with_daemon ~jobs:1 ~depth:64 (fun socket ->
      let a = connect socket in
      let b = connect socket in
      List.iter (submit a) backlog;
      Unix.sleepf 0.05 (* let a's backlog reach the queue first *);
      let t0 = Unix.gettimeofday () in
      submit b quick;
      (match collect b 1 with
       | [ (0, `Verdict _) ] -> ()
       | _ -> Alcotest.fail "b expected one verdict");
      let waited = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "b served promptly (%.3fs)" waited) true
        (waited < 0.75);
      Proto.Client.close b;
      ignore (collect a (List.length backlog));
      Proto.Client.close a)

let test_daemon_overload_sheds () =
  (* a bounded queue refuses loudly: every request gets its terminal
     response, none stall, the excess is shed *)
  let tasks = with_fault (Task.Sleep 0.01) (slice 30) in
  let n = List.length tasks in
  with_daemon ~jobs:1 ~depth:4 (fun socket ->
      let c = connect socket in
      List.iter (submit c) tasks;
      let terminals = collect c n in
      let sheds =
        List.length
          (List.filter (function _, `Shed _ -> true | _ -> false) terminals)
      in
      Alcotest.(check int) "every request answered" n (List.length terminals);
      Alcotest.(check bool)
        (Printf.sprintf "overload shed some load (%d)" sheds) true (sheds > 0);
      Proto.Client.close c)

(* A deadline cancels the running analysis: a sleeping request answers
   [Timeout] at its deadline, and the worker serves the next request.  A
   cancelled [Timeout] is never cached, while one from the spent work
   budget is a fact about the app and is. *)
let test_daemon_deadline () =
  let sleeper =
    { (List.hd (slice 1)) with Task.t_fault = Some (Task.Sleep 20.0) }
  in
  let clean = List.hd (slice 1) in
  let loop =
    { Task.t_id = 0; t_subject = Task.Bundled Adversarial.native;
      t_mode = Task.Dynamic; t_fault = None }
  in
  (* submit, expect a [Timeout], tell whether it came from the cache *)
  let timeout c ?deadline task =
    submit c ?deadline task;
    match collect c 1 with
    | [ (0, `Verdict (r, cached)) ] ->
      Alcotest.(check bool) "times out" true
        (r.Verdict.r_verdict = Verdict.Timeout);
      cached
    | _ -> Alcotest.fail "expected one verdict"
  in
  with_daemon ~jobs:1 (fun socket ->
      let c = connect socket in
      let t0 = Unix.gettimeofday () in
      ignore (timeout c ~deadline:0.2 sleeper);
      Alcotest.(check bool) "cancelled at the deadline" true
        (Unix.gettimeofday () -. t0 < 10.0);
      submit c clean;
      (match collect c 1 with
       | [ (0, `Verdict _) ] -> ()
       | _ -> Alcotest.fail "the daemon must serve past the deadline");
      Alcotest.(check bool) "cancelled: computed" false
        (timeout c ~deadline:0.001 loop);
      Alcotest.(check bool) "budget spent: computed" false (timeout c loop);
      Alcotest.(check bool) "budget spent: cached" true (timeout c loop);
      Proto.Client.close c)

(* ---- live streaming through the daemon ---- *)

let hybrid_task name =
  { Task.t_id = 0; t_subject = Task.Bundled name; t_mode = Task.Hybrid;
    t_fault = None }

(* A Submit with the trace flag streams its own events inline on the same
   connection: every Trace frame arrives before the verdict, carries the
   request id, and the stream crosses JNI in seq order. *)
let test_daemon_inline_trace_stream () =
  with_daemon ~jobs:1 (fun socket ->
      let c = connect socket in
      submit c ~trace:true (hybrid_task "case1");
      let rec go events =
        match Proto.Client.recv c with
        | Error e -> Alcotest.failf "recv: %s" e
        | Ok (Proto.Trace tc) ->
          Alcotest.(check int) "inline frames carry the request id" 0
            tc.Proto.tc_req;
          go (events @ tc.Proto.tc_events)
        | Ok (Proto.Verdict _) -> events
        | Ok (Proto.Progress _) -> go events
        | Ok _ -> Alcotest.fail "unexpected message"
      in
      let events = go [] in
      Alcotest.(check bool) "events arrived before the verdict" true
        (events <> []);
      Alcotest.(check bool) "the stream crosses JNI" true
        (List.exists
           (fun (ev : Stream.event) -> ev.Stream.ev_kind = Event.K_jni_begin)
           events);
      let seqs = List.map (fun (ev : Stream.event) -> ev.Stream.ev_seq) events in
      Alcotest.(check bool) "seq strictly ordered" true
        (List.sort_uniq compare seqs = seqs);
      Proto.Client.close c)

(* A Subscribe connection gets every analysis broadcast, filtered to its
   categories and app regexp, with req = -1; verdicts never land there. *)
let test_daemon_broadcast_subscriber () =
  with_daemon ~jobs:1 (fun socket ->
      let sub = connect socket in
      Proto.Client.send sub
        (Proto.Subscribe
           { su_cats = [ "jni" ]; su_app = Some "case.*"; su_window = 0 });
      let c = connect socket in
      submit c (hybrid_task "case1");
      (match collect c 1 with
       | [ (0, `Verdict _) ] -> ()
       | _ -> Alcotest.fail "submitter expected one verdict");
      (match Proto.Client.recv sub with
       | Error e -> Alcotest.failf "subscriber recv: %s" e
       | Ok (Proto.Trace tc) ->
         Alcotest.(check int) "broadcast frames are request-less" (-1)
           tc.Proto.tc_req;
         Alcotest.(check string) "frames name the app" "case1"
           tc.Proto.tc_app;
         Alcotest.(check bool) "frame is non-empty" true
           (tc.Proto.tc_events <> []);
         List.iter
           (fun (ev : Stream.event) ->
             Alcotest.(check string) "category filter respected" "jni"
               (Event.category ev.Stream.ev_kind))
           tc.Proto.tc_events;
         Alcotest.(check bool) "the jni lane has its begin" true
           (List.exists
              (fun (ev : Stream.event) ->
                ev.Stream.ev_kind = Event.K_jni_begin)
              tc.Proto.tc_events)
       | Ok _ -> Alcotest.fail "subscriber expected a Trace frame");
      Proto.Client.close sub;
      Proto.Client.close c)

(* The app regexp is a real gate: a subscriber watching a different app
   sees no frames for this analysis, only the submitter's inline stream
   exists.  (Asserting a negative over a live socket: the submitter's
   verdict is the happens-after barrier — by then fan-out for the task is
   done, and the subscriber's connection must hold nothing.) *)
let test_daemon_subscriber_app_filter () =
  with_daemon ~jobs:1 (fun socket ->
      let sub = connect socket in
      Proto.Client.send sub
        (Proto.Subscribe
           { su_cats = []; su_app = Some "no-such-app.*"; su_window = 0 });
      let c = connect socket in
      submit c (hybrid_task "case1");
      (match collect c 1 with
       | [ (0, `Verdict _) ] -> ()
       | _ -> Alcotest.fail "submitter expected one verdict");
      Unix.setsockopt_float (Proto.Client.fd sub) Unix.SO_RCVTIMEO 0.3;
      (match Proto.Client.recv sub with
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
         ()  (* receive timeout: nothing was sent, as required *)
       | Error _ -> ()
       | Ok (Proto.Trace tc) ->
         Alcotest.failf "filtered subscriber got %d events for %s"
           (List.length tc.Proto.tc_events) tc.Proto.tc_app
       | Ok _ -> Alcotest.fail "unexpected message");
      Proto.Client.close sub;
      Proto.Client.close c)

(* ---- batch-side satellites ---- *)

let test_inline_progress_uniform () =
  (* progress must fire once per task whether the answer was computed or
     served warm — a progress bar that skips cache hits reads as a hang *)
  let tasks = slice 20 in
  let n = List.length tasks in
  let count = ref 0 in
  let last = ref 0 in
  let progress ~done_ ~total =
    incr count;
    Alcotest.(check int) "monotone" (!last + 1) done_;
    last := done_;
    Alcotest.(check int) "total constant" n total
  in
  ignore (Pool.run_inline ~progress tasks);
  Alcotest.(check int) "cold: one tick per task" n !count;
  count := 0;
  last := 0;
  ignore (Pool.run_inline ~progress tasks);
  Alcotest.(check int) "warm path ticks the same" n !count

let test_pool_stats_shed_zero () =
  let _, stats = Pool.run (Pool.config ~jobs:2 ()) (slice 24) in
  Alcotest.(check int) "batch sweeps never shed" 0 stats.Pool.s_shed

let test_daemon_oversized_frame () =
  (* one client announces a 4 GiB frame; the other's verdicts must not
     notice *)
  let tasks = slice 8 in
  let n = List.length tasks in
  let expected = json_of (Pool.run_inline tasks) in
  with_daemon ~jobs:1 (fun socket ->
      let good = connect socket in
      let bad = connect socket in
      let header = Bytes.create 4 in
      Bytes.set_int32_be header 0 (Int32.of_int 0xFFFFFFF0);
      ignore (Unix.write (Proto.Client.fd bad) header 0 4);
      List.iter (submit good) tasks;
      (match Proto.Client.recv bad with
       | Ok (Proto.Error e) ->
         Alcotest.(check bool) "names the limit" true
           (Str.string_match (Str.regexp ".*exceeds") e 0)
       | _ -> Alcotest.fail "no error for an oversized frame");
      (match Proto.Client.recv bad with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail "a second answer instead of a close");
      let got = reports_in_req_order (collect good n) n in
      Alcotest.(check string) "verdicts bit-identical to batch" expected
        (json_of (Array.map fst got));
      Proto.Client.close bad;
      Proto.Client.close good)

(* a fresh cache directory, removed afterwards *)
let with_temp_cache f =
  let dir = tmp_name "ndroid-test-cache" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f (Cache.create ~dir))

(* A daemon over a disk cache a batch sweep filled: its fresh warm table
   misses at admission, so each request goes to a worker, whose one probe
   answers it from disk — cached, bit-identical, and no analysis run. *)
let test_daemon_disk_cache () =
  let tasks = slice 24 in
  let n = List.length tasks in
  with_temp_cache (fun cache ->
      let batch, _ = Pool.run (Pool.config ~jobs:2 ~cache ()) tasks in
      let got, st =
        serve_daemon ~jobs:2 ~cache (fun socket ->
            let c = connect socket in
            List.iter (submit c) tasks;
            let got = reports_in_req_order (collect c n) n in
            Proto.Client.close c;
            got)
      in
      Alcotest.(check string) "verdicts bit-identical to batch"
        (json_of batch)
        (json_of (Array.map fst got));
      Alcotest.(check bool) "every verdict cached" true
        (Array.for_all snd got);
      Alcotest.(check int) "every request a cache hit" n
        st.Server.sv_cache_hits;
      Alcotest.(check int) "no analysis ran" 0 st.Server.sv_analyses)

(* Two apps with equal content and different names: each request's report
   must name its own app, whether the warm table or the disk answers. *)
let test_same_content_other_name () =
  let copy_name = "case1-copy" in
  if Ndroid_apps.Registry.find copy_name = None then
    Ndroid_apps.Registry.register
      { Ndroid_apps.Cases.case1 with Ndroid_apps.Harness.app_name = copy_name };
  let task name =
    { Task.t_id = 0; t_subject = Task.Bundled name; t_mode = Task.Dynamic;
      t_fault = None }
  in
  let json r = Json.to_string (Verdict.report_to_json r) in
  let expected = Analysis.run (task copy_name) in
  Alcotest.(check string) "the analysis names the copy" copy_name
    expected.Verdict.r_app;
  let check what (r, _cached) =
    Alcotest.(check string) (what ^ ": names the copy") copy_name
      r.Verdict.r_app;
    Alcotest.(check string) (what ^ ": bytes of Analysis.run") (json expected)
      (json r)
  in
  let sv = Analysis.service () in
  ignore (Analysis.service_run sv (task "case1"));
  check "warm table" (Analysis.service_run sv (task copy_name));
  with_temp_cache (fun cache ->
      ignore (Analysis.service_run (Analysis.service ~cache ()) (task "case1"));
      check "disk cache"
        (Analysis.service_run (Analysis.service ~cache ()) (task copy_name)))

let suite =
  [ Alcotest.test_case "proto: messages roundtrip the wire" `Quick
      test_proto_roundtrip;
    Alcotest.test_case "proto: version mismatch is decisive" `Quick
      test_proto_version_mismatch;
    Alcotest.test_case "queue: service discipline (rr, bound, clear)" `Quick
      test_queue_service_discipline;
    Alcotest.test_case "service: facade memoizes, faults bypass" `Quick
      test_service_facade;
    Alcotest.test_case "service: digest keys on entry point" `Quick
      test_digest_distinguishes_entry_points;
    Alcotest.test_case "daemon: verdicts bit-identical to batch, warm hits"
      `Quick test_daemon_parity_and_warm;
    Alcotest.test_case "daemon: two clients, interleaved streams" `Quick
      test_daemon_two_clients;
    Alcotest.test_case "daemon: saturating client cannot starve another"
      `Quick test_daemon_fairness;
    Alcotest.test_case "daemon: overload sheds, nothing stalls" `Quick
      test_daemon_overload_sheds;
    Alcotest.test_case "daemon: per-request deadline kills and recovers"
      `Quick test_daemon_deadline;
    Alcotest.test_case "daemon: submit --trace streams before the verdict"
      `Quick test_daemon_inline_trace_stream;
    Alcotest.test_case "daemon: subscriber gets filtered broadcast frames"
      `Quick test_daemon_broadcast_subscriber;
    Alcotest.test_case "daemon: app regexp gates the broadcast" `Quick
      test_daemon_subscriber_app_filter;
    Alcotest.test_case "pool: progress uniform across cache hits" `Quick
      test_inline_progress_uniform;
    Alcotest.test_case "pool: batch stats report zero shed" `Quick
      test_pool_stats_shed_zero;
    Alcotest.test_case "proto: a kill fault is refused" `Quick
      test_proto_refuses_kill;
    Alcotest.test_case "daemon: an oversized frame closes only its client"
      `Quick test_daemon_oversized_frame;
    Alcotest.test_case "daemon: a disk cache answers through the workers"
      `Quick test_daemon_disk_cache;
    Alcotest.test_case "service: equal content, other name, own report"
      `Quick test_same_content_other_name ]
