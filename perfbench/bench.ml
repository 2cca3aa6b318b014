(* Shared pieces of the benchmark: the clock, order statistics, the
   in-memory span recorder, process memory and the machine fingerprint. *)

module Json = Ndroid_report.Json

let now = Unix.gettimeofday

let nproc () = Domain.recommended_domain_count ()

(* Where traced runs write their spans, relative to the checkout the
   benchmark runs in. *)
let out_dir = ".perfbench"

(* ---- order statistics ------------------------------------------------ *)

(* Linear interpolation between closest ranks, the same rule as Python's
   [statistics.quantiles(method="inclusive")]. *)
let quantile q xs =
  match Array.length xs with
  | 0 -> nan
  | n ->
    let s = Array.copy xs in
    Array.sort compare s;
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))

let median xs = quantile 0.5 xs

let geomean xs =
  match Array.length xs with
  | 0 -> 0.0
  | n -> exp (Array.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int n)

(* A timing is reported as a median plus the highest percentile with at
   least ten samples beyond it.  Workloads report p99, so each takes at
   least this many samples whatever the run length. *)
let min_samples = 1000

(* Repetitions of a unit of [per_unit] operations that fill [seconds] at
   [ops_per_s], but never fewer than give [min_samples] operations. *)
let repetitions ~seconds ~ops_per_s ~per_unit =
  let fill = Float.round (float_of_int seconds *. ops_per_s /. float_of_int per_unit) in
  max (int_of_float fill) ((min_samples + per_unit - 1) / per_unit)

(* p99 of each consecutive window of [min_samples] operations (each has
   ten samples beyond its p99), and the median of them.  On a shared
   host, bursts of outside interference lasting seconds move a window's
   p99 by up to 2x; the median window is robust to bursts that hit a
   minority of windows, and a tail the program gives in most windows
   still shows. *)
let window_p99 xs =
  let n = Array.length xs in
  let windows = max 1 (n / min_samples) in
  let size = n / windows in
  median
    (Array.init windows (fun w ->
         let len = if w = windows - 1 then n - (w * size) else size in
         quantile 0.99 (Array.sub xs (w * size) len)))

(* Set-ups per run; set-up time is their median. *)
let setups = 11

(* Operations per second of each consecutive group of [per] latencies,
   then the median over groups. *)
let grouped_rate ~per xs =
  let groups = Array.length xs / per in
  median
    (Array.init groups (fun g ->
         float_of_int per /. Array.fold_left ( +. ) 0.0 (Array.sub xs (g * per) per)))

(* Median of {!setups} timed repetitions of [f]; the last call's result
   is kept so the caller can go on with it. *)
let median_setup f =
  let last = ref None in
  let times =
    Array.init setups (fun _ ->
        let t0 = now () in
        let v = f () in
        last := Some v;
        now () -. t0)
  in
  (median times, Option.get !last)

(* ---- spans ----------------------------------------------------------- *)

(* A span covers one call into a layer's public function, recorded from
   the benchmark's own code (outside in).  Spans stay in memory until the
   workload ends and are written out in one go. *)
type span = {
  sp_id : int;
  sp_name : string;
  sp_req : int;  (** the request (analysis, app, category run) it serves *)
  sp_parent : int;  (** enclosing span, [-1] at the root *)
  sp_t0 : float;
  sp_t1 : float;
}

let spans : span list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []
let current_req = ref (-1)

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let req = !current_req in
  let t0 = now () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = now () in
      open_spans := List.tl !open_spans;
      spans :=
        { sp_id = id; sp_name = name; sp_req = req; sp_parent = parent;
          sp_t0 = t0; sp_t1 = t1 }
        :: !spans)
    f

(* The root span of one request: every span opened inside carries [req]. *)
let request req name f =
  current_req := req;
  Fun.protect ~finally:(fun () -> current_req := -1) (fun () -> span name f)

let duration s = s.sp_t1 -. s.sp_t0

(* Total seconds spent in spans called [name]. *)
let span_seconds name =
  List.fold_left
    (fun acc s -> if s.sp_name = name then acc +. duration s else acc)
    0.0 !spans

(* Share of the root spans called [root] that their direct children
   cover, over all such roots. *)
let coverage root =
  let roots = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.sp_name = root then Hashtbl.replace roots s.sp_id s)
    !spans;
  let children =
    List.fold_left
      (fun acc s ->
        if Hashtbl.mem roots s.sp_parent then acc +. duration s else acc)
      0.0 !spans
  in
  let total = Hashtbl.fold (fun _ s acc -> acc +. duration s) roots 0.0 in
  if total > 0.0 then children /. total else 0.0

let ensure_out_dir () =
  try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let write_spans ~workload ~seed =
  ensure_out_dir ();
  let path =
    Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" workload seed)
  in
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [ ("id", Json.Int s.sp_id); ("name", Json.Str s.sp_name);
                ("req", Json.Int s.sp_req); ("parent", Json.Int s.sp_parent);
                ("start", Json.Float s.sp_t0); ("end", Json.Float s.sp_t1) ]));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* ---- processes ------------------------------------------------------- *)

(* This process's VmHWM, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "VmHWM missing from /proc status"
      in
      scan ())

(* Bytes allocated by this domain so far, in MB. *)
let allocated_mb () =
  let minor, promoted, major = Gc.counters () in
  (minor +. major -. promoted) *. float_of_int (Sys.word_size / 8) /. 1048576.0

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* The commit the checkout was built from, when it is a git checkout. *)
let git_commit () =
  match
    if Sys.file_exists ".git" then
      Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |]
    else raise Exit
  with
  | exception (Exit | Unix.Unix_error _) -> "unknown"
  | ic ->
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    (match Unix.close_process_in ic with
     | Unix.WEXITED 0 when line <> "" -> line
     | _ -> "unknown")

let fingerprint () =
  Json.Obj
    [ ("nproc", Json.Int (nproc ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str (git_commit ())) ]

(* ---- results --------------------------------------------------------- *)

(* What one workload run measured.  [failed] counts operations that did
   not produce a correct verdict (wrong, crashed or timed out);
   [correct] is false when any output disagreed with its known answer or
   any check failed. *)
type outcome = {
  attempted : int;
  failed : int;
  correct : bool;
  values : (string * float) list;
}
