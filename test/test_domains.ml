(* The worker engine: parity across worker counts, the work budget on
   adversarial loops, the bounded warm layer, domain-safety of the shared
   service, the worker pool itself, and single-flight coalescing and
   streaming in the daemon. *)

module Json = Ndroid_report.Json
module Verdict = Ndroid_report.Verdict
module Task = Ndroid_pipeline.Task
module Pool = Ndroid_pipeline.Pool
module Analysis = Ndroid_pipeline.Analysis
module Domain_pool = Ndroid_pipeline.Domain_pool
module Proto = Ndroid_pipeline.Proto
module Server = Ndroid_pipeline.Server
module Market = Ndroid_corpus.Market
module Registry = Ndroid_apps.Registry
module Stream = Ndroid_obs.Stream

let slice n = Task.of_market_slice (Market.scaled n)

let bundled_tasks mode =
  List.mapi
    (fun i name ->
      { Task.t_id = i; t_subject = Task.Bundled name; t_mode = mode;
        t_fault = None })
    Registry.names

let json_of reports =
  Json.to_string (Verdict.reports_to_json (Array.to_list reports))

let report_json r = Json.to_string (Verdict.report_to_json r)

(* ---- parity: inline, one worker and four workers agree ---- *)

let test_jobs_differential () =
  let corpora =
    [ ("bundled both", bundled_tasks Task.Both);
      ("market 300 static", slice 300) ]
  in
  List.iter
    (fun (name, tasks) ->
      let inline = json_of (Pool.run_inline tasks) in
      List.iter
        (fun jobs ->
          let reports, _ = Pool.run (Pool.config ~jobs ()) tasks in
          Alcotest.(check string)
            (Printf.sprintf "%s: jobs %d == inline" name jobs)
            inline (json_of reports))
        [ 1; 4 ])
    corpora

(* ---- the work budget: loops that never end on their own ---- *)

let with_domains_daemon ?(jobs = 1) ?stream_buf name f =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ndroid-test-%s-%d.sock" name (Unix.getpid ()))
  in
  let stop = Atomic.make false in
  let cfg =
    Server.config ~socket ~jobs ?stream_buf
      ~stop:(fun () -> Atomic.get stop)
      ()
  in
  let daemon = Domain.spawn (fun () -> Server.serve cfg) in
  match f socket with
  | exception e ->
    Atomic.set stop true;
    ignore (Domain.join daemon);
    raise e
  | v ->
    Atomic.set stop true;
    (Domain.join daemon, v)

let connect socket =
  match Proto.Client.connect ~retry_for:10.0 socket with
  | Ok c ->
    Unix.setsockopt_float (Proto.Client.fd c) Unix.SO_RCVTIMEO 30.0;
    c
  | Error e -> Alcotest.failf "connect: %s" e

let rec daemon_verdict c =
  match Proto.Client.recv c with
  | Ok (Proto.Verdict v) -> v.vd_report
  | Ok (Proto.Progress _) -> daemon_verdict c
  | Ok _ -> Alcotest.fail "unexpected message"
  | Error e -> Alcotest.failf "recv: %s" e

(* Send every message in one write, so the daemon reads them as one
   batch and admits them all before any is answered. *)
let send_batch c msgs =
  let batch = Bytes.concat Bytes.empty (List.map Proto.to_frame msgs) in
  let rec write_all off =
    if off < Bytes.length batch then
      write_all
        (off
        + Unix.write (Proto.Client.fd c) batch off (Bytes.length batch - off))
  in
  write_all 0

(* The loop app first, then a few ordinary apps that must not notice it:
   the same bytes inline, at one and four workers and from the daemon. *)
let test_loop_times_out name () =
  let loop =
    { Task.t_id = 0; t_subject = Task.Bundled name; t_mode = Task.Dynamic;
      t_fault = None }
  in
  let tasks =
    loop
    :: List.map
         (fun (t : Task.t) ->
           { t with Task.t_id = t.Task.t_id + 1; t_mode = Task.Dynamic })
         (slice 6)
  in
  (match (Analysis.run loop).Verdict.r_verdict with
   | Verdict.Timeout -> ()
   | v -> Alcotest.failf "%s: expected a timeout, got %a" name Verdict.pp v);
  let inline = Pool.run_inline tasks in
  List.iter
    (fun jobs ->
      let reports, stats = Pool.run (Pool.config ~jobs ()) tasks in
      Alcotest.(check string)
        (Printf.sprintf "%s: jobs %d == inline" name jobs)
        (json_of inline) (json_of reports);
      Alcotest.(check int) "one timeout" 1 stats.Pool.s_timeouts)
    [ 1; 4 ];
  let _, served =
    with_domains_daemon ~jobs:2 "loop" (fun socket ->
        let c = connect socket in
        Proto.Client.send c
          (Proto.Submit
             { sb_req = 0; sb_subject = loop.Task.t_subject;
               sb_mode = loop.Task.t_mode; sb_deadline = None;
               sb_fault = None; sb_trace = false });
        let r = daemon_verdict c in
        Proto.Client.close c;
        r)
  in
  Alcotest.(check string) (name ^ ": daemon == inline")
    (report_json inline.(0)) (report_json served)

(* ---- the bounded warm layer ---- *)

let test_service_eviction () =
  let sv = Analysis.service ~capacity:4 () in
  let tasks = slice 10 in
  let first = List.map (fun t -> Analysis.service_run sv t) tasks in
  Alcotest.(check bool) "cap held" true
    (Analysis.service_warm_entries sv <= 4);
  Alcotest.(check bool) "evictions counted" true
    (Analysis.service_evictions sv > 0);
  (* an evicted entry recomputes to the identical report *)
  List.iteri
    (fun i t ->
      let r, _ = Analysis.service_run sv t in
      Alcotest.(check string)
        (Printf.sprintf "task %d identical after eviction" i)
        (report_json (fst (List.nth first i)))
        (report_json r))
    tasks

let test_service_second_chance () =
  (* a referenced entry survives one eviction scan: hammer one task while
     filling the table and it must stay warm *)
  let sv = Analysis.service ~capacity:4 () in
  let hot = List.hd (slice 1) in
  ignore (Analysis.service_run sv hot);
  List.iter
    (fun t ->
      ignore (Analysis.service_run sv hot);  (* keep the ref bit set *)
      ignore (Analysis.service_run sv t))
    (slice 6);
  let _, warm = Analysis.service_run sv hot in
  Alcotest.(check bool) "hot entry survived the churn" true warm

(* ---- domain-safety of the shared service ---- *)

let prop_service_hammer =
  QCheck.Test.make ~name:"one service, 4 hammering domains, no lost entries"
    ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let tasks = Array.of_list (slice 16) in
      let reference =
        let sv = Analysis.service () in
        Array.map (fun t -> report_json (fst (Analysis.service_run sv t))) tasks
      in
      let sv = Analysis.service () in
      (* each domain runs its own seeded mix of the corpus, duplicates
         included, all against the one shared service *)
      let mix k =
        let state = ref (seed + (k * 7919) + 1) in
        List.init 40 (fun _ ->
            state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
            !state mod Array.length tasks)
      in
      let run_ids ids =
        List.map
          (fun i -> (i, report_json (fst (Analysis.service_run sv tasks.(i)))))
          ids
      in
      let workers =
        List.init 4 (fun k ->
            let ids = mix k in
            Domain.spawn (fun () -> run_ids ids))
      in
      let results = List.concat_map Domain.join workers in
      List.iter
        (fun (i, got) ->
          if not (String.equal reference.(i) got) then
            QCheck.Test.fail_reportf "task %d diverged under contention" i)
        results;
      (* nothing lost, nothing duplicated: exactly one warm entry per
         distinct digest ever requested *)
      let distinct =
        List.sort_uniq compare (List.map fst results) |> List.length
      in
      Alcotest.(check int) "one warm entry per distinct task" distinct
        (Analysis.service_warm_entries sv);
      Alcotest.(check int) "every request counted" (4 * 40)
        (Analysis.service_requests sv);
      true)

(* ---- the worker pool itself ---- *)

let test_domain_pool_roundtrip () =
  let tasks = slice 30 in
  let reference = Pool.run_inline tasks in
  let service = Analysis.service () in
  let pool = Domain_pool.create ~domains:2 ~service () in
  List.iter
    (fun (t : Task.t) -> Domain_pool.submit pool ~ticket:(1000 + t.Task.t_id) t)
    tasks;
  let got = Hashtbl.create 32 in
  while Hashtbl.length got < List.length tasks do
    List.iter
      (fun (c : Domain_pool.completion) ->
        Alcotest.(check bool) "ticket echoed once" false
          (Hashtbl.mem got c.Domain_pool.dc_ticket);
        Hashtbl.replace got c.Domain_pool.dc_ticket c.Domain_pool.dc_report)
      (Domain_pool.wait pool)
  done;
  Domain_pool.shutdown pool;
  List.iter
    (fun (t : Task.t) ->
      match Hashtbl.find_opt got (1000 + t.Task.t_id) with
      | None -> Alcotest.failf "task %d never completed" t.Task.t_id
      | Some r ->
        Alcotest.(check string) "report matches inline"
          (report_json reference.(t.Task.t_id))
          (report_json r))
    tasks;
  match Domain_pool.submit pool ~ticket:0 (List.hd tasks) with
  | () -> Alcotest.fail "submit after shutdown accepted"
  | exception Invalid_argument _ -> ()

(* ---- single-flight coalescing in the daemon ---- *)

let test_single_flight () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ndroid-test-sf-%d.sock" (Unix.getpid ()))
  in
  let stop = Atomic.make false in
  let cfg =
    Server.config ~socket ~jobs:2 ~depth:64 ~max_clients:4
      ~stop:(fun () -> Atomic.get stop)
      ()
  in
  (* the daemon lives in a sibling domain of this test process; the stop
     hook shuts it down without signals *)
  let daemon = Domain.spawn (fun () -> Server.serve cfg) in
  let finish () =
    Atomic.set stop true;
    Domain.join daemon
  in
  match
    let c =
      match Proto.Client.connect ~retry_for:10.0 socket with
      | Ok c ->
        Unix.setsockopt_float (Proto.Client.fd c) Unix.SO_RCVTIMEO 30.0;
        c
      | Error e -> Alcotest.failf "connect: %s" e
    in
    let task = List.hd (bundled_tasks Task.Both) in
    let n = 8 in
    (* the whole herd goes out in one write, so the daemon reads it in one
       batch and admits every submit while the first is still in flight —
       a herd sent frame by frame can lose the race to a fast analysis
       and be answered from the warm layer instead *)
    send_batch c
      (List.init n (fun req ->
           Proto.Submit
             { sb_req = req; sb_subject = task.Task.t_subject;
               sb_mode = task.Task.t_mode; sb_deadline = None;
               sb_fault = None; sb_trace = false }));
    let coalesced = ref 0 in
    let verdicts = ref [] in
    let rec collect remaining =
      if remaining > 0 then
        match Proto.Client.recv c with
        | Error e -> Alcotest.failf "recv: %s" e
        | Ok (Proto.Verdict v) ->
          verdicts := report_json v.vd_report :: !verdicts;
          collect (remaining - 1)
        | Ok (Proto.Progress p) ->
          if p.pg_state = "coalesced" then incr coalesced;
          collect remaining
        | Ok (Proto.Shed s) -> Alcotest.failf "shed: %s" s.sh_reason
        | Ok _ -> Alcotest.fail "unexpected message"
    in
    collect n;
    Proto.Client.close c;
    (n, !coalesced, !verdicts)
  with
  | exception e ->
    ignore (finish ());
    raise e
  | n, coalesced, verdicts ->
    let st = finish () in
    Alcotest.(check int) "every submit answered" n (List.length verdicts);
    (match verdicts with
     | [] -> Alcotest.fail "no verdicts"
     | v :: rest ->
       List.iter
         (Alcotest.(check string) "all waiters get the one verdict" v)
         rest);
    Alcotest.(check int) "exactly one analysis ran" 1 st.Server.sv_analyses;
    Alcotest.(check int) "herd deduplicated" (n - 1)
      (st.Server.sv_coalesced + st.Server.sv_cache_hits);
    Alcotest.(check bool) "some submits coalesced" true (coalesced > 0);
    Alcotest.(check int) "server agrees on coalesced count" coalesced
      st.Server.sv_coalesced;
    Alcotest.(check int) "all served" n st.Server.sv_served

(* ---- streaming ---- *)

(* one inline-traced submission per app, events as canonical JSON lines *)
let stream_apps = [ "case1"; "case2"; "QQPhoneBook3.5" ]

let trace_lines (tc : Proto.trace) =
  List.map (fun ev -> Json.to_string (Stream.event_json ev)) tc.Proto.tc_events

let hybrid_submit ~req ~trace name =
  Proto.Submit
    { sb_req = req; sb_subject = Task.Bundled name; sb_mode = Task.Hybrid;
      sb_deadline = None; sb_fault = None; sb_trace = trace }

(* one traced submission at a time, each answered before the next *)
let streams_of_daemon ?(apps = stream_apps) socket =
  let c = connect socket in
  let one i name =
    Proto.Client.send c (hybrid_submit ~req:i ~trace:true name);
    let rec go acc =
      match Proto.Client.recv c with
      | Error e -> Alcotest.failf "recv: %s" e
      | Ok (Proto.Trace tc) -> go (acc @ trace_lines tc)
      | Ok (Proto.Verdict _) -> acc
      | Ok (Proto.Progress _) -> go acc
      | Ok _ -> Alcotest.fail "unexpected message"
    in
    go []
  in
  let streams = List.mapi one apps in
  Proto.Client.close c;
  streams

(* A task's stream depends on the task alone: per-task throttles over a
   ring cleared per task, whichever worker ran it and whatever it ran
   before. *)
let test_stream_differential () =
  let _, one = with_domains_daemon ~jobs:1 "stream-1" streams_of_daemon in
  let _, two = with_domains_daemon ~jobs:2 "stream-2" streams_of_daemon in
  List.iteri
    (fun i name ->
      Alcotest.(check bool) (name ^ ": the daemon streamed") true
        (List.nth one i <> []);
      Alcotest.(check (list string)) (name ^ ": jobs 2 stream == jobs 1 stream")
        (List.nth one i) (List.nth two i))
    stream_apps

(* A traced Submit pipelined right behind an untraced one, with two
   workers free: each job must run with its own trace window, not with
   whichever window the daemon armed last.  Every request goes out in one
   write before anything is read, so both workers are handed jobs back to
   back; distinct apps keep the warm layer and coalescing out of it. *)
let race_pairs =
  [ ("case1", "case2"); ("QQPhoneBook3.5", "case4");
    ("PoC-case3", "ePhone3.3"); ("case3", "poly-net") ]

let test_trace_window_per_job () =
  let traced = List.map fst race_pairs in
  let _, reference =
    with_domains_daemon ~jobs:1 "race-1" (streams_of_daemon ~apps:traced)
  in
  let _, got =
    with_domains_daemon ~jobs:2 "race-2" (fun socket ->
        let c = connect socket in
        send_batch c
          (List.concat
             (List.mapi
                (fun i (t, u) ->
                  [ hybrid_submit ~req:(2 * i) ~trace:true t;
                    hybrid_submit ~req:((2 * i) + 1) ~trace:false u ])
                race_pairs));
        let streams = Array.make (2 * List.length race_pairs) [] in
        let rec collect remaining =
          if remaining > 0 then
            match Proto.Client.recv c with
            | Error e -> Alcotest.failf "recv: %s" e
            | Ok (Proto.Trace tc) ->
              let r = tc.Proto.tc_req in
              streams.(r) <- streams.(r) @ trace_lines tc;
              collect remaining
            | Ok (Proto.Verdict _) -> collect (remaining - 1)
            | Ok (Proto.Progress _) -> collect remaining
            | Ok (Proto.Shed s) -> Alcotest.failf "shed: %s" s.sh_reason
            | Ok _ -> Alcotest.fail "unexpected message"
        in
        collect (Array.length streams);
        Proto.Client.close c;
        streams)
  in
  List.iteri
    (fun i ((t, u), expected) ->
      Alcotest.(check bool) (t ^ ": the jobs 1 daemon streamed") true
        (expected <> []);
      Alcotest.(check (list string))
        (t ^ ": pipelined jobs 2 stream == jobs 1 stream")
        expected got.(2 * i);
      Alcotest.(check (list string)) (u ^ ": untraced, no events") []
        got.((2 * i) + 1))
    (List.combine race_pairs reference)

let test_slow_subscriber_sheds_not_stalls () =
  (* a subscriber that never reads, behind a deliberately tiny outbound
     bound: every analysis still completes, verdicts stay bit-identical to
     the unsubscribed inline run, and the undeliverable trace frames are
     shed and counted — never queued without bound, never blocking *)
  let tasks =
    List.mapi
      (fun i name ->
        { Task.t_id = i; t_subject = Task.Bundled name; t_mode = Task.Hybrid;
          t_fault = None })
      stream_apps
  in
  let expected = List.map (fun r -> report_json r)
      (Array.to_list (Pool.run_inline tasks))
  in
  let st, got =
    with_domains_daemon ~stream_buf:256 "stream-slow" (fun socket ->
        let sub =
          match Proto.Client.connect ~retry_for:10.0 socket with
          | Ok c -> c
          | Error e -> Alcotest.failf "subscriber connect: %s" e
        in
        Proto.Client.send sub
          (Proto.Subscribe { su_cats = []; su_app = None; su_window = 0 });
        (* the subscriber never reads again; its frames cannot fit the
           256-byte bound and must be shed *)
        let c =
          match Proto.Client.connect ~retry_for:10.0 socket with
          | Ok c ->
            Unix.setsockopt_float (Proto.Client.fd c) Unix.SO_RCVTIMEO 30.0;
            c
          | Error e -> Alcotest.failf "connect: %s" e
        in
        List.iter
          (fun (t : Task.t) ->
            Proto.Client.send c
              (Proto.Submit
                 { sb_req = t.Task.t_id; sb_subject = t.Task.t_subject;
                   sb_mode = t.Task.t_mode; sb_deadline = None;
                   sb_fault = None; sb_trace = false }))
          tasks;
        let got = Array.make (List.length tasks) "" in
        let rec collect remaining =
          if remaining > 0 then
            match Proto.Client.recv c with
            | Error e -> Alcotest.failf "recv: %s" e
            | Ok (Proto.Verdict v) ->
              got.(v.vd_req) <- report_json v.vd_report;
              collect (remaining - 1)
            | Ok (Proto.Progress _) -> collect remaining
            | Ok (Proto.Shed s) -> Alcotest.failf "shed: %s" s.sh_reason
            | Ok _ -> Alcotest.fail "unexpected message"
        in
        collect (List.length tasks);
        Proto.Client.close c;
        Proto.Client.close sub;
        got)
  in
  List.iteri
    (fun i e ->
      Alcotest.(check string)
        (Printf.sprintf "verdict %d bit-identical despite the subscriber" i)
        e got.(i))
    expected;
  Alcotest.(check bool) "the workers streamed events" true
    (st.Server.sv_trace_events > 0);
  Alcotest.(check bool) "undeliverable frames shed and counted" true
    (st.Server.sv_trace_lost > 0);
  Alcotest.(check int) "one subscriber" 1 st.Server.sv_subscribers

let suite =
  [ Alcotest.test_case
      "engines: inline, one worker and four workers agree (bundled + market)"
      `Quick test_jobs_differential;
    Alcotest.test_case "budget: a Dalvik goto-self loop times out everywhere"
      `Quick (test_loop_times_out Adversarial.dalvik);
    Alcotest.test_case "budget: a native b . loop times out everywhere"
      `Quick (test_loop_times_out Adversarial.native);
    Alcotest.test_case "service: capacity bound evicts, recomputes identically"
      `Quick test_service_eviction;
    Alcotest.test_case "service: second chance keeps hot entries" `Quick
      test_service_second_chance;
    QCheck_alcotest.to_alcotest prop_service_hammer;
    Alcotest.test_case "domain pool: tickets echo, reports match inline"
      `Quick test_domain_pool_roundtrip;
    Alcotest.test_case "daemon: single-flight coalesces a herd" `Quick
      test_single_flight;
    Alcotest.test_case "daemon: streams identical events across worker counts"
      `Quick test_stream_differential;
    Alcotest.test_case "daemon: slow subscriber sheds, never stalls" `Quick
      test_slow_subscriber_sheds_not_stalls;
    Alcotest.test_case "budget: a memset of 4 GiB times out everywhere"
      `Quick (test_loop_times_out Adversarial.memset);
    Alcotest.test_case "daemon: each pipelined job streams with its own window"
      `Quick test_trace_window_per_job ]
