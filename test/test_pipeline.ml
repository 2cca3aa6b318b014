(* The batch pipeline: canonical JSON, the unified verdict, the
   worker pool (budget timeouts, crash isolation, determinism across
   --jobs), the work budget itself and the on-disk result cache. *)

module T = Ndroid_taint.Taint
module Json = Ndroid_report.Json
module Flow = Ndroid_report.Flow
module Verdict = Ndroid_report.Verdict
module Task = Ndroid_pipeline.Task
module Pool = Ndroid_pipeline.Pool
module Cache = Ndroid_pipeline.Cache
module Analysis = Ndroid_pipeline.Analysis
module Wire = Ndroid_pipeline.Wire
module Market = Ndroid_corpus.Market
module Budget = Ndroid_budget.Budget
module H = Ndroid_apps.Harness
module Registry = Ndroid_apps.Registry

let flow ?(sink = "Socket.send") ?(site = "Lcom/a;->leak") ?(ctx = Flow.Java_ctx)
    taint =
  { Flow.f_taint = taint; f_sink = sink; f_context = ctx; f_site = site;
    f_hops = [] }

let sample_report =
  { Verdict.r_app = "demo";
    r_analysis = "static";
    r_verdict = Verdict.Flagged [ flow T.imei ];
    r_meta = [ ("jni_sites", Json.Int 2); ("classification", Json.Null) ] }

(* ---- canonical JSON ---- *)

let test_json_golden () =
  (* exact bytes: sorted keys, no whitespace, stable flow encoding — the
     schema `ndroid analyze --json` and the cache commit to *)
  Alcotest.(check string) "canonical report"
    "{\"analysis\":\"static\",\"app\":\"demo\",\"meta\":{\"classification\":null,\"jni_sites\":2},\"result\":{\"flows\":[{\"context\":\"java\",\"sink\":\"Socket.send\",\"site\":\"Lcom/a;->leak\",\"taint\":\"0x400\"}],\"verdict\":\"flagged\"}}"
    (Json.to_string (Verdict.report_to_json sample_report))

let test_json_sorted_keys () =
  let j = Json.Obj [ ("zeta", Json.Int 1); ("alpha", Json.Int 2) ] in
  Alcotest.(check string) "keys sorted" "{\"alpha\":2,\"zeta\":1}"
    (Json.to_string j)

let test_json_roundtrip () =
  let reports =
    [ sample_report;
      { sample_report with Verdict.r_verdict = Verdict.Clean };
      { sample_report with Verdict.r_verdict = Verdict.Crashed "sig 9" };
      { sample_report with Verdict.r_verdict = Verdict.Timeout } ]
  in
  List.iter
    (fun r ->
      let s = Json.to_string (Verdict.report_to_json r) in
      match Result.bind (Json.of_string s) Verdict.report_of_json with
      | Error e -> Alcotest.failf "roundtrip of %s: %s" s e
      | Ok r' ->
        Alcotest.(check bool) "report survives json roundtrip" true
          (Verdict.report_equal r r'))
    reports

(* Both printers must round-trip every document up to key order: strings
   with quotes, backslashes and control bytes, and finite floats over their
   whole range, integral ones at or above 1e15 included.  Non-finite floats
   have no JSON spelling and are left out. *)
let json_gen =
  let open QCheck.Gen in
  let str =
    string_size
      ~gen:
        (frequency
           [ (1, oneofl [ '"'; '\\'; '\n'; '\000'; '\031' ]); (3, char) ])
      (int_bound 8)
  in
  let finite_float =
    frequency
      [ ( 2,
          map
            (fun b ->
              let f = Int64.float_of_bits b in
              if Float.is_finite f then f else 0.0)
            ui64 );
        (1, map Float.round (float_range (-1e18) 1e18));
        (1, float_range (-1e6) 1e6) ]
  in
  let leaf =
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) finite_float;
        map (fun s -> Json.Str s) str ]
  in
  let distinct_keys fields =
    List.rev
      (List.fold_left
         (fun acc (k, v) -> if List.mem_assoc k acc then acc else (k, v) :: acc)
         [] fields)
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           let child = list_size (int_bound 4) (self (n / 4)) in
           frequency
             [ (1, leaf);
               (1, map (fun l -> Json.List l) child);
               ( 1,
                 map
                   (fun fields -> Json.Obj (distinct_keys fields))
                   (list_size (int_bound 4) (pair str (self (n / 4)))) ) ])

let rec json_sorted = function
  | Json.List l -> Json.List (List.map json_sorted l)
  | Json.Obj fields ->
    Json.Obj
      (List.sort
         (fun (a, _) (b, _) -> String.compare a b)
         (List.map (fun (k, v) -> (k, json_sorted v)) fields))
  | j -> j

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json: both printers round-trip" ~count:500
    (QCheck.make json_gen ~print:Json.to_string)
    (fun j ->
      let back print =
        match Json.of_string (print j) with
        | Ok j' -> json_sorted j' = json_sorted j
        | Error _ -> false
      in
      back Json.to_string && back Json.to_string_hum)

(* A hostile frame of brackets is refused at the depth limit, in time
   linear in the limit, not the input *)
let test_json_depth_limit () =
  let nested n = String.make n '[' ^ String.make n ']' in
  (match Json.of_string (nested Json.max_depth) with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "depth %d refused: %s" Json.max_depth e);
  (match Json.of_string (nested (Json.max_depth + 1)) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "nesting past the limit accepted");
  match Json.of_string (String.make 1_000_000 '[') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a million open brackets accepted"

let test_verdict_normalize () =
  Alcotest.(check bool) "empty flagged is clean" true
    (Verdict.equal (Verdict.Flagged []) Verdict.Clean);
  let a = flow T.imei and b = flow ~sink:"sendto" T.contacts in
  Alcotest.(check bool) "flow order irrelevant" true
    (Verdict.equal (Verdict.Flagged [ a; b ]) (Verdict.Flagged [ b; a; a ]))

(* ---- wire protocol ---- *)

(* one bare frame: a 4-byte big-endian length, then the payload *)
let frame payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.to_string b

let test_wire_roundtrip () =
  let r, w = Unix.pipe () in
  List.iter
    (fun p ->
      let f = frame p in
      ignore (Unix.write_substring w f 0 (String.length f)))
    [ "hello"; ""; String.make 10_000 'x' ];
  Alcotest.(check (option string)) "frame 1" (Some "hello") (Wire.read_frame r);
  Alcotest.(check (option string)) "frame 2" (Some "") (Wire.read_frame r);
  Alcotest.(check (option string)) "frame 3"
    (Some (String.make 10_000 'x'))
    (Wire.read_frame r);
  Unix.close w;
  Alcotest.(check (option string)) "eof" None (Wire.read_frame r);
  Unix.close r

let test_wire_incremental () =
  (* a frame delivered byte-by-byte must come out whole *)
  let r, w = Unix.pipe () in
  let reader = Wire.create_reader () in
  let raw = frame "abcde" in
  let got = ref [] in
  String.iter
    (fun c ->
      ignore (Unix.write_substring w (String.make 1 c) 0 1);
      match Wire.drain reader r with
      | `Frames fs -> got := !got @ fs
      | `Eof _ -> Alcotest.fail "unexpected eof")
    raw;
  Unix.close w;
  (match Wire.drain reader r with
   | `Eof fs -> got := !got @ fs
   | `Frames _ -> Alcotest.fail "expected eof");
  Unix.close r;
  Alcotest.(check (list string)) "reassembled" [ "abcde" ] !got

(* a header announcing just under 4 GiB, and no payload *)
let oversized_header () =
  let h = Bytes.create 4 in
  Bytes.set_int32_be h 0 (Int32.of_int 0xFFFFFFF0);
  h

let test_wire_oversized () =
  let r, w = Unix.pipe () in
  let write b = ignore (Unix.write w b 0 (Bytes.length b)) in
  write (oversized_header ());
  (match Wire.read_frame r with
   | exception Wire.Frame_too_large { length; before = [] } ->
     Alcotest.(check int) "announced length" 0xFFFFFFF0 length
   | _ -> Alcotest.fail "blocking read accepted a 4 GiB header");
  (* incremental: a whole frame, then the header *)
  write (Bytes.of_string (frame "ok"));
  write (oversized_header ());
  let reader = Wire.create_reader () in
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  (match Wire.drain reader r with
   | exception Wire.Frame_too_large { before; _ } ->
     Alcotest.(check (list string)) "the frame before it" [ "ok" ] before
   | _ -> Alcotest.fail "drain accepted a 4 GiB header");
  write (Bytes.of_string "rest");
  (match Wire.drain reader r with
   | exception Wire.Frame_too_large { before = []; _ } -> ()
   | _ -> Alcotest.fail "a rejected reader read on");
  Gc.minor ();
  Alcotest.(check bool) "nothing allocated toward the announced length" true
    (Gc.allocated_bytes () -. a0 < 1_048_576.);
  Unix.close w;
  let rest = Bytes.create 16 in
  Alcotest.(check int) "the bytes after it stay unread" 4
    (Unix.read r rest 0 16);
  Unix.close r

(* ---- the pool ---- *)

let slice n = Task.of_market_slice (Market.scaled n)

let with_fault fault id tasks =
  List.map
    (fun (t : Task.t) ->
      if t.Task.t_id = id then { t with Task.t_fault = Some fault } else t)
    tasks

let json_of reports =
  Json.to_string (Verdict.reports_to_json (Array.to_list reports))

let test_pool_matches_inline () =
  let tasks = slice 300 in
  let inline = Pool.run_inline tasks in
  let pooled, stats = Pool.run (Pool.config ~jobs:4 ()) tasks in
  Alcotest.(check string) "jobs 4 bit-identical to inline" (json_of inline)
    (json_of pooled);
  Alcotest.(check int) "all from workers" 300 stats.Pool.s_from_workers

let test_pool_timeout () =
  let tasks = with_fault Task.Hang 2 (slice 64) in
  let reports, stats = Pool.run (Pool.config ~jobs:2 ()) tasks in
  Alcotest.(check int) "one timeout" 1 stats.Pool.s_timeouts;
  (match reports.(2).Verdict.r_verdict with
   | Verdict.Timeout -> ()
   | v -> Alcotest.failf "expected timeout, got %a" Verdict.pp v);
  Alcotest.(check int) "every app answered" 64 (Array.length reports);
  Array.iteri
    (fun i r ->
      if i <> 2 then
        Alcotest.(check bool)
          (Printf.sprintf "app %d unaffected" i)
          false
          (r.Verdict.r_verdict = Verdict.Timeout))
    reports

let test_pool_crash_contained () =
  let tasks = with_fault Task.Crash 1 (slice 64) in
  let reports, stats = Pool.run (Pool.config ~jobs:2 ()) tasks in
  (match reports.(1).Verdict.r_verdict with
   | Verdict.Crashed why ->
     Alcotest.(check string) "deterministic crash reason"
       "analyzer exception: Failure(\"injected crash\")" why
   | v -> Alcotest.failf "expected crash, got %a" Verdict.pp v);
  Alcotest.(check int) "one crash" 1 stats.Pool.s_crashed;
  (* the crash cost exactly one app: everything else has a real verdict *)
  Array.iteri
    (fun i r ->
      if i <> 1 then
        match r.Verdict.r_verdict with
        | Verdict.Crashed _ | Verdict.Timeout ->
          Alcotest.failf "app %d lost to the crash" i
        | _ -> ())
    reports

let with_temp_cache f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ndroid-test-cache-%d-%d" (Unix.getpid ())
         (Random.int 100000))
  in
  Fun.protect
    ~finally:(fun () ->
      (match Sys.readdir dir with
       | names ->
         Array.iter
           (fun n ->
             try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
           names
       | exception Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f ~dir (Cache.create ~dir))

let test_cache_hit_miss () =
  with_temp_cache (fun ~dir:_ cache ->
      let tasks = slice 64 in
      let cold = Pool.run_inline ~cache tasks in
      Alcotest.(check int) "cold run misses everything" 64 (Cache.misses cache);
      Alcotest.(check int) "cold run hits nothing" 0 (Cache.hits cache);
      let warm = Pool.run_inline ~cache tasks in
      Alcotest.(check int) "warm run hits everything" 64 (Cache.hits cache);
      Alcotest.(check string) "cached verdicts identical" (json_of cold)
        (json_of warm))

let test_cache_feeds_pool () =
  with_temp_cache (fun ~dir:_ cache ->
      let tasks = slice 64 in
      let cold, _ = Pool.run (Pool.config ~jobs:2 ~cache ()) tasks in
      let warm, stats = Pool.run (Pool.config ~jobs:2 ~cache ()) tasks in
      Alcotest.(check int) "warm pool run is all cache" 64
        stats.Pool.s_cache_hits;
      Alcotest.(check int) "no worker work left" 0 stats.Pool.s_from_workers;
      Alcotest.(check string) "identical bytes" (json_of cold) (json_of warm))

let test_cache_corrupt_entry () =
  with_temp_cache (fun ~dir cache ->
      let task = List.hd (slice 1) in
      let key = Analysis.digest task in
      Cache.store cache ~key (Analysis.run task);
      Alcotest.(check bool) "stored entry readable" true
        (Cache.find cache ~key <> None);
      (* truncate the entry behind the cache's back: must become a miss,
         and a fresh store must repair it *)
      let path = Filename.concat dir (key ^ ".json") in
      let oc = open_out_bin path in
      output_string oc "{\"analysis\":";
      close_out oc;
      Alcotest.(check bool) "torn entry is a miss" true
        (Cache.find cache ~key = None);
      Cache.store cache ~key (Analysis.run task);
      Alcotest.(check bool) "overwritten entry readable again" true
        (Cache.find cache ~key <> None))

let test_digest_sensitivity () =
  let t = List.hd (slice 4) in
  let d_static = Analysis.digest t in
  let d_dynamic = Analysis.digest { t with Task.t_mode = Task.Dynamic } in
  Alcotest.(check bool) "mode changes the key" true (d_static <> d_dynamic);
  let t' = List.nth (slice 4) 1 in
  Alcotest.(check bool) "app changes the key" true
    (d_static <> Analysis.digest t')

(* ---- the work budget ---- *)

let test_budget_counts_exactly () =
  let b = Budget.create 10 in
  for _ = 1 to 10 do
    Budget.spend b
  done;
  Alcotest.(check int) "ten units spent" 10 (Budget.used b);
  Alcotest.check_raises "the eleventh unit" Budget.Exhausted (fun () ->
      Budget.spend b);
  let cancel = Atomic.make false in
  let b = Budget.create ~cancel max_int in
  Budget.spend b;
  Atomic.set cancel true;
  Alcotest.check_raises "a cancel lands within a slice" Budget.Cancelled
    (fun () ->
      for _ = 1 to 1_000_000 do
        Budget.spend b
      done);
  Alcotest.check_raises "sleep polls the cancel flag" Budget.Cancelled
    (fun () -> Budget.sleep b 30.0)

(* a size-driven step pays before its work, all or nothing *)
let test_budget_charges_up_front () =
  let b = Budget.create 10_000 in
  Budget.spend b;
  Budget.charge b 5_000;
  Alcotest.(check int) "a charge spans slices" 5_001 (Budget.used b);
  Alcotest.check_raises "more than is left" Budget.Exhausted (fun () ->
      Budget.charge b 5_000);
  Alcotest.check_raises "and nothing after" Budget.Exhausted (fun () ->
      Budget.spend b);
  (* the heap charges an array before making it: a billion elements
     would be 8 GB *)
  Budget.with_budget (Budget.create 1_000) (fun () ->
      let h = Ndroid_dalvik.Heap.create () in
      ignore (Ndroid_dalvik.Heap.alloc_array h "I" 1_000);
      Alcotest.check_raises "the heap pays per element" Budget.Exhausted
        (fun () -> ignore (Ndroid_dalvik.Heap.alloc_array h "I" 1_000_000_000)))

(* the sizing the budget's comment claims: three orders of magnitude
   between the largest bundled dynamic analysis and the bound *)
let test_budget_headroom () =
  List.iter
    (fun (app : H.app) ->
      let b = Budget.create Analysis.work_budget in
      Budget.with_budget b (fun () ->
          ignore (H.run ~summaries:true H.Ndroid_full app));
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d units" app.H.app_name (Budget.used b))
        true
        (Budget.used b * 1000 <= Analysis.work_budget))
    Registry.all

let suite =
  [ Alcotest.test_case "json: golden report bytes" `Quick test_json_golden;
    Alcotest.test_case "json: object keys sorted" `Quick test_json_sorted_keys;
    Alcotest.test_case "json: report roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "verdict: normalization" `Quick test_verdict_normalize;
    Alcotest.test_case "wire: frame roundtrip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire: byte-by-byte reassembly" `Quick
      test_wire_incremental;
    Alcotest.test_case "wire: a header over the frame limit is refused unread"
      `Quick test_wire_oversized;
    Alcotest.test_case "pool: jobs 4 equals inline" `Quick
      test_pool_matches_inline;
    Alcotest.test_case "pool: hung app records timeout" `Quick
      test_pool_timeout;
    Alcotest.test_case "pool: crash isolates and respawns" `Quick
      test_pool_crash_contained;
    Alcotest.test_case "cache: inline hit/miss accounting" `Quick
      test_cache_hit_miss;
    Alcotest.test_case "cache: warm pool skips workers" `Quick
      test_cache_feeds_pool;
    Alcotest.test_case "cache: corrupt entry is a miss" `Quick
      test_cache_corrupt_entry;
    Alcotest.test_case "cache: digests separate modes and apps" `Quick
      test_digest_sensitivity;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    Alcotest.test_case "json: nesting past the depth limit is an error" `Quick
      test_json_depth_limit;
    Alcotest.test_case "budget: exact count, cancel within a slice" `Quick
      test_budget_counts_exactly;
    Alcotest.test_case "budget: a charge pays up front or not at all" `Quick
      test_budget_charges_up_front;
    Alcotest.test_case "budget: bundled apps leave three orders of headroom"
      `Quick test_budget_headroom ]
