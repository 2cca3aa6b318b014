module Json = Ndroid_report.Json
module Verdict = Ndroid_report.Verdict
module Metrics = Ndroid_obs.Metrics

type config = {
  c_jobs : int;
  c_cache : Cache.t option;
  c_progress : (done_:int -> total:int -> unit) option;
}

let config ?(jobs = 1) ?cache ?progress ?engine:(_ : Engine.t option) () =
  { c_jobs = max 1 jobs; c_cache = cache; c_progress = progress }

type stats = {
  s_total : int;
  s_from_workers : int;
  s_cache_hits : int;
  s_crashed : int;
  s_timeouts : int;
  s_steals : int;
  s_shed : int;
  s_evictions : int;
  s_wall : float;
  s_digest : float;
  s_collect : float;
  s_analyze_cpu : float;
  s_bytecodes : int;
  s_jni_crossings : int;
  s_focused_methods : int;
  s_skipped_bytecodes : int;
  s_ring_overwritten : int;
  s_metrics : Json.t;
}

(* A counter from the report's meta, accepting both the bare key (dynamic
   reports) and its ["dynamic_"]-prefixed form (merged reports). *)
let meta_int key (r : Verdict.report) =
  match
    ( List.assoc_opt key r.Verdict.r_meta,
      List.assoc_opt ("dynamic_" ^ key) r.Verdict.r_meta )
  with
  | Some (Json.Int n), _ | None, Some (Json.Int n) -> n
  | _ -> 0

let counters_of_reports reports =
  Array.fold_left
    (fun (b, j, fm, sk) r ->
      ( b + meta_int "bytecodes" r,
        j + meta_int "jni_crossings" r,
        fm + meta_int "focused_methods" r,
        sk + meta_int "skipped_bytecodes" r ))
    (0, 0, 0, 0) reports

let now () = Unix.gettimeofday ()

let validate_ids tasks =
  List.iteri
    (fun i (t : Task.t) ->
      if t.Task.t_id <> i then
        invalid_arg
          (Printf.sprintf
             "Pool.run: task at position %d carries id %d (ids must be dense \
              and in order)"
             i t.Task.t_id))
    tasks

let dummy_report =
  { Verdict.r_app = "?"; r_analysis = "?";
    r_verdict = Verdict.Crashed "result never recorded"; r_meta = [] }

let run cfg tasks =
  validate_ids tasks;
  let service = Analysis.service ?cache:cfg.c_cache () in
  let t_start = now () in
  let total = List.length tasks in
  let results = Array.make total dummy_report in
  let n_done = ref 0 in
  let from_workers = ref 0 in
  let cache_hits = ref 0 in
  let crashed = ref 0 in
  let timeouts = ref 0 in
  let analyze_cpu = ref 0.0 in
  (* sweep-wide metrics: parent-side counters plus every worker registry *)
  let metrics = Metrics.create () in
  let mcount name n = Metrics.add (Metrics.counter metrics name) n in
  (* every task goes to the workers: the domains share [service], whose
     [service_run] is the one cache probe, so a completion is a report by
     reference — nothing to parse, nothing to re-store *)
  if tasks <> [] then begin
    let pool =
      Domain_pool.create ~domains:(min cfg.c_jobs total) ~service ()
    in
    List.iter
      (fun (t : Task.t) -> Domain_pool.submit pool ~ticket:t.Task.t_id t)
      tasks;
    while !n_done < total do
      List.iter
        (fun (c : Domain_pool.completion) ->
          let report = c.Domain_pool.dc_report in
          analyze_cpu := !analyze_cpu +. c.Domain_pool.dc_seconds;
          if c.Domain_pool.dc_cached then incr cache_hits
          else begin
            incr from_workers;
            (match report.Verdict.r_verdict with
             | Verdict.Crashed _ -> incr crashed
             | Verdict.Timeout -> incr timeouts
             | Verdict.Clean | Verdict.Flagged _ -> ());
            Metrics.observe_int
              (Metrics.histogram metrics "task_bytecodes")
              (meta_int "bytecodes" report)
          end;
          results.(c.Domain_pool.dc_ticket) <- report;
          incr n_done;
          match cfg.c_progress with
          | Some f -> f ~done_:!n_done ~total
          | None -> ())
        (Domain_pool.wait pool)
    done;
    (* everything is resolved, so the workers are idle: their lifetime
       registries are stable and merge once per worker *)
    List.iter (Metrics.merge metrics) (Domain_pool.metrics pool);
    mcount "domains" (Domain_pool.domains pool);
    Domain_pool.shutdown pool
  end;
  let collect = now () -. t_start in
  let bytecodes, jni_crossings, focused_methods, skipped_bytecodes =
    counters_of_reports results
  in
  let evictions = Analysis.service_evictions service in
  mcount "cache_hits" !cache_hits;
  mcount "cache_misses" (total - !cache_hits);
  mcount "evictions" evictions;
  mcount "phase_collect_us" (int_of_float (collect *. 1e6));
  ( results,
    { s_total = total;
      s_from_workers = !from_workers;
      s_cache_hits = !cache_hits;
      s_crashed = !crashed;
      s_timeouts = !timeouts;
      s_steals = 0;
      s_shed = 0;
      s_evictions = evictions;
      s_wall = now () -. t_start;
      s_digest = 0.0;
      s_collect = collect;
      s_analyze_cpu = !analyze_cpu;
      s_bytecodes = bytecodes;
      s_jni_crossings = jni_crossings;
      s_focused_methods = focused_methods;
      s_skipped_bytecodes = skipped_bytecodes;
      s_ring_overwritten =
        Metrics.value (Metrics.counter metrics "ring_overwritten");
      s_metrics = Metrics.to_json metrics } )

let run_inline ?cache ?obs ?progress tasks =
  validate_ids tasks;
  (* the in-process batch path is a thin client of the same
     request-oriented facade the daemon serves from *)
  let service = Analysis.service ?cache () in
  let total = List.length tasks in
  let results = Array.make total dummy_report in
  let n_done = ref 0 in
  List.iter
    (fun (task : Task.t) ->
      let report, _cached = Analysis.service_run service ?obs task in
      results.(task.Task.t_id) <- report;
      incr n_done;
      match progress with
      | Some f -> f ~done_:!n_done ~total
      | None -> ())
    tasks;
  results
