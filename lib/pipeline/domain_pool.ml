module Verdict = Ndroid_report.Verdict
module Metrics = Ndroid_obs.Metrics
module Ring = Ndroid_obs.Ring
module Stream = Ndroid_obs.Stream

type completion = {
  dc_ticket : int;
  dc_report : Verdict.report;
  dc_cached : bool;
  dc_seconds : float;
  dc_events : Stream.event list;
  dc_dropped : int;
  dc_lost : int;
}

(* ticket, task, cancel flag, streaming throttle window (if tapped) *)
type job = int * Task.t * bool Atomic.t option * int option

type t = {
  dp_service : Analysis.service;
  dp_lock : Mutex.t;
  dp_work : Condition.t;  (* signaled on submit and shutdown *)
  dp_done : Condition.t;  (* signaled on every completion *)
  dp_queue : job Queue.t;  (* one FIFO for every worker *)
  mutable dp_uncollected : int;  (* completions since the last take *)
  mutable dp_completed : completion list;  (* newest first *)
  mutable dp_inflight : int;  (* submitted, not yet in dp_completed *)
  mutable dp_stop : bool;
  dp_notify_r : Unix.file_descr;
  dp_notify_w : Unix.file_descr;
  dp_metrics : Metrics.t option array;  (* one registry per worker *)
  mutable dp_workers : unit Domain.t array;
}

(* One byte down the self-pipe per completion batch: a select()-driven
   caller (the daemon) learns of domain completions the same way it
   learns of client frames, without polling.  Both ends are nonblocking;
   a full pipe just means a wakeup is already pending. *)
let notify t =
  try ignore (Unix.write t.dp_notify_w (Bytes.unsafe_of_string "!") 0 1)
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) -> ()

let drain_notify t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.dp_notify_r buf 0 64 with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

(* The worker body: per-task obs ring, analyze, metrics.  The report
   returns by reference through shared memory.  Fault markers, budgets and
   cancels all act inside {!Analysis.service_run}, so a worker domain
   never dies with its task. *)
let worker_loop t slot =
  (* one obs ring and one metrics registry for the worker's whole life:
     per-task registries would make the collector merge thousands of
     tables while the workers still compute, and the ring keeps the cells
     it has grown instead of regrowing them for every task *)
  let ring = Ring.create ~capacity:4096 () in
  let m = Ring.metrics ring in
  Mutex.lock t.dp_lock;
  t.dp_metrics.(slot) <- Some m;
  Mutex.unlock t.dp_lock;
  let rec next () =
    Mutex.lock t.dp_lock;
    let rec claim () =
      if t.dp_stop then begin
        Mutex.unlock t.dp_lock;
        None
      end
      else
        match Queue.take_opt t.dp_queue with
        | Some _ as job ->
          Mutex.unlock t.dp_lock;
          job
        | None ->
          Condition.wait t.dp_work t.dp_lock;
          claim ()
    in
    match claim () with
    | None -> ()
    | Some (ticket, task, cancel, trace) ->
      (* the ring outlives the task (see above) but its event window must
         not: provenance reconstruction reads the live window, and stale
         events would graft one app's trace onto the next app's flows *)
      Ring.clear ring;
      let ow0 = Ring.overwritten ring in
      let t0 = Unix.gettimeofday () in
      let report, cached =
        Analysis.service_run t.dp_service ~obs:ring ?cancel task
      in
      let dt = Unix.gettimeofday () -. t0 in
      Metrics.incr (Metrics.counter m "tasks");
      Metrics.observe (Metrics.histogram m "task_seconds") dt;
      (match report.Verdict.r_verdict with
       | Verdict.Crashed _ -> Metrics.incr (Metrics.counter m "worker_crashes")
       | Verdict.Timeout -> Metrics.incr (Metrics.counter m "worker_timeouts")
       | Verdict.Clean | Verdict.Flagged _ -> ());
      Metrics.add
        (Metrics.counter m "ring_overwritten")
        (Ring.overwritten ring - ow0);
      (* a fresh tap per task: the cleared ring restarted the seq clock,
         and per-task throttle state makes a task's stream independent of
         which worker ran it and what it ran before *)
      let events, dropped, lost =
        match trace with
        | None -> ([], 0, 0)
        | Some window ->
          let tap = Stream.tap ~window () in
          let events = Stream.drain tap ring in
          Metrics.add
            (Metrics.counter m "trace_events")
            (List.length events);
          Metrics.add (Metrics.counter m "trace_dropped")
            (Stream.tap_dropped tap);
          (events, Stream.tap_dropped tap, Stream.tap_missed tap)
      in
      Mutex.lock t.dp_lock;
      t.dp_completed <-
        { dc_ticket = ticket; dc_report = report; dc_cached = cached;
          dc_seconds = dt;
          dc_events = events; dc_dropped = dropped; dc_lost = lost }
        :: t.dp_completed;
      t.dp_inflight <- t.dp_inflight - 1;
      t.dp_uncollected <- t.dp_uncollected + 1;
      (* wake the collector in batches, not per task: a waiter that stirs
         on every completion contends for the one CPU the workers are
         using (and drags the stop-the-world minor collector with it).
         The drain path is unaffected — the self-pipe below marks every
         completion for select()-driven callers. *)
      if t.dp_inflight = 0 || t.dp_uncollected >= 64 then
        Condition.broadcast t.dp_done;
      Mutex.unlock t.dp_lock;
      notify t;
      next ()
  in
  next ()

let create ?(domains = 1) ~service () =
  (* cap at the runtime's recommendation (≈ cores): domains share one
     runtime, so every domain beyond the core count multiplies
     stop-the-world minor-GC synchronization instead of adding
     throughput *)
  let domains =
    max 1 (min domains (Domain.recommended_domain_count ()))
  in
  let notify_r, notify_w = Unix.pipe () in
  Unix.set_nonblock notify_r;
  Unix.set_nonblock notify_w;
  let t =
    { dp_service = service;
      dp_lock = Mutex.create ();
      dp_work = Condition.create ();
      dp_done = Condition.create ();
      (* unbounded: callers bound their own load — a batch is a list
         already in memory, and the daemon hands over one task per free
         worker slot, holding the rest behind its own admission bound *)
      dp_queue = Queue.create ();
      dp_uncollected = 0;
      dp_completed = [];
      dp_inflight = 0;
      dp_stop = false;
      dp_notify_r = notify_r;
      dp_notify_w = notify_w;
      dp_metrics = Array.make domains None;
      dp_workers = [||] }
  in
  t.dp_workers <-
    Array.init domains (fun i -> Domain.spawn (fun () -> worker_loop t i));
  t

let domains t = Array.length t.dp_workers
let notify_fd t = t.dp_notify_r

let submit t ~ticket ?cancel ?trace task =
  Mutex.lock t.dp_lock;
  if t.dp_stop then begin
    Mutex.unlock t.dp_lock;
    invalid_arg "Domain_pool.submit: pool is shut down"
  end;
  Queue.push (ticket, task, cancel, trace) t.dp_queue;
  t.dp_inflight <- t.dp_inflight + 1;
  Condition.signal t.dp_work;
  Mutex.unlock t.dp_lock

let take_completed t =
  let cs = List.rev t.dp_completed in
  t.dp_completed <- [];
  t.dp_uncollected <- 0;
  cs

let drain t =
  drain_notify t;
  Mutex.lock t.dp_lock;
  let cs = take_completed t in
  Mutex.unlock t.dp_lock;
  cs

let wait t =
  Mutex.lock t.dp_lock;
  while t.dp_completed = [] && t.dp_inflight > 0 do
    Condition.wait t.dp_done t.dp_lock
  done;
  let cs = take_completed t in
  Mutex.unlock t.dp_lock;
  drain_notify t;
  cs

let metrics t =
  Mutex.lock t.dp_lock;
  let ms = Array.to_list t.dp_metrics |> List.filter_map Fun.id in
  Mutex.unlock t.dp_lock;
  ms

let shutdown t =
  Mutex.lock t.dp_lock;
  t.dp_stop <- true;
  Condition.broadcast t.dp_work;
  Mutex.unlock t.dp_lock;
  Array.iter Domain.join t.dp_workers;
  t.dp_workers <- [||];
  (try Unix.close t.dp_notify_r with Unix.Unix_error _ -> ());
  try Unix.close t.dp_notify_w with Unix.Unix_error _ -> ()
