module Json = Ndroid_report.Json
module Verdict = Ndroid_report.Verdict
module Metrics = Ndroid_obs.Metrics
module Ring = Ndroid_obs.Ring
module Stream = Ndroid_obs.Stream

let meta_int key (r : Verdict.report) =
  match
    ( List.assoc_opt key r.Verdict.r_meta,
      List.assoc_opt ("dynamic_" ^ key) r.Verdict.r_meta )
  with
  | Some (Json.Int n), _ | None, Some (Json.Int n) -> n
  | _ -> 0

let act_on_fault = function
  | None -> ()
  | Some Task.Crash -> Unix._exit 66
  | Some Task.Kill ->
    (* death by signal: indistinguishable from an OOM kill to the parent *)
    Unix.kill (Unix.getpid ()) Sys.sigkill
  | Some Task.Hang ->
    let rec hang () =
      Unix.sleep 3600;
      hang ()
    in
    hang ()
  | Some (Task.Sleep s) ->
    (* deterministic slowness, then the analysis proceeds normally *)
    Unix.sleepf s

let trace_batch = 256

(* Trace frames for one finished task, written to the result pipe *before*
   the result frame so the server fans events out ahead of the verdict.
   The cumulative throttle/wraparound counts ride only the final chunk —
   the server sums per-frame deltas, and intermediate chunks carry 0s. *)
let write_trace result_w ~id ~app ~events ~dropped ~lost =
  let rec chunks = function
    | [] -> []
    | evs ->
      let rec take n acc = function
        | rest when n = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | ev :: rest -> take (n - 1) (ev :: acc) rest
      in
      let batch, rest = take trace_batch [] evs in
      batch :: chunks rest
  in
  let batches = chunks events in
  let batches = if batches = [] then [ [] ] else batches in
  let n = List.length batches in
  if events <> [] || dropped > 0 || lost > 0 then
    List.iteri
      (fun i batch ->
        let final = i = n - 1 in
        Wire.write_frame result_w
          (Json.to_string
             (Json.Obj
                [ ("trace",
                   Json.Obj
                     [ ("id", Json.Int id);
                       ("app", Json.Str app);
                       ("events",
                        Json.List (List.map Stream.event_json batch));
                       ("dropped", Json.Int (if final then dropped else 0));
                       ("lost", Json.Int (if final then lost else 0)) ]) ])))
      batches

let loop task_r result_w =
  let respond id seconds report metrics =
    Wire.write_frame result_w
      (Json.to_string
         (Json.Obj
            [ ("id", Json.Int id);
              ("seconds", Json.Float seconds);
              ("metrics", metrics);
              ("report", Verdict.report_to_json report) ]))
  in
  let rec loop () =
    match Wire.read_frame task_r with
    | None -> ()
    | Some payload ->
      (match Json.of_string payload with
       | Error _ -> ()
       | Ok j -> (
         match Task.of_json j with
         | Error _ -> ()
         | Ok task ->
           (* the optional streaming request rides the task frame as an
              extra member ({!Task.of_json} ignores members it does not
              know): the throttle window in event-seq units *)
           let trace = Option.bind (Json.member "trace" j) Json.int in
           act_on_fault task.Task.t_fault;
           (* a fresh per-task hub: its metrics registry rides the result
              frame back to the parent, which merges registries across the
              whole sweep.  The ring allocates its cells as the task's
              events arrive, so a small task pays for a few dozen cells,
              not 4096 *)
           let ring = Ring.create ~capacity:4096 () in
           let t0 = Unix.gettimeofday () in
           let report = Analysis.run ~obs:ring task in
           let dt = Unix.gettimeofday () -. t0 in
           let m = Ring.metrics ring in
           Metrics.incr (Metrics.counter m "tasks");
           Metrics.observe (Metrics.histogram m "task_seconds") dt;
           Metrics.observe_int
             (Metrics.histogram m "task_bytecodes")
             (meta_int "bytecodes" report);
           Metrics.add
             (Metrics.counter m "ring_overwritten")
             (Ring.overwritten ring);
           (match trace with
            | None -> ()
            | Some window ->
              let tap = Stream.tap ~window () in
              let events = Stream.drain tap ring in
              Metrics.add
                (Metrics.counter m "trace_events")
                (List.length events);
              Metrics.add
                (Metrics.counter m "trace_dropped")
                (Stream.tap_dropped tap);
              write_trace result_w ~id:task.Task.t_id
                ~app:report.Verdict.r_app ~events
                ~dropped:(Stream.tap_dropped tap)
                ~lost:(Stream.tap_missed tap));
           respond task.Task.t_id dt report (Metrics.to_json m)));
      loop ()
  in
  (try loop () with _ -> ());
  Unix._exit 0
