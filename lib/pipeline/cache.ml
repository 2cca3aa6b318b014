module Json = Ndroid_report.Json
module Verdict = Ndroid_report.Verdict

(* the counters are atomic: the pool's worker domains probe concurrently *)
type t = { dir : string; hits : int Atomic.t; misses : int Atomic.t }

let create ~dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  { dir; hits = Atomic.make 0; misses = Atomic.make 0 }

let path t key = Filename.concat t.dir (key ^ ".json")

(* Every writer needs a distinct tmp name for the write+rename to stay
   atomic.  Domains share one pid, so a process-wide counter
   disambiguates them; the pid separates processes sharing a cache
   directory. *)
let tmp_seq = Atomic.make 0

let tmp_name final =
  Printf.sprintf "%s.tmp.%d.%d" final (Unix.getpid ())
    (Atomic.fetch_and_add tmp_seq 1)

(* A plain descriptor, not a channel: the pool's worker domains probe the
   disk concurrently, and each channel costs a 64 KiB buffer and a trip
   through the runtime's process-wide channel list. *)
let read_file path =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd ->
    let rec fill buf off =
      off = Bytes.length buf
      || (let n = Unix.read fd buf off (Bytes.length buf - off) in
          n > 0 && fill buf (off + n))
    in
    let data =
      try
        let buf = Bytes.create (Unix.fstat fd).Unix.st_size in
        if fill buf 0 then Some (Bytes.unsafe_to_string buf) else None
      with Unix.Unix_error _ -> None
    in
    Unix.close fd;
    data

let find t ~key =
  let result =
    match read_file (path t key) with
    | None -> None
    | Some data -> (
      match Json.of_string data with
      | Error _ -> None
      | Ok j -> (
        match Verdict.report_of_json j with
        | Ok report -> Some report
        | Error _ -> None))
  in
  (match result with
   | Some _ -> Atomic.incr t.hits
   | None -> Atomic.incr t.misses);
  result

let store t ~key report =
  let final = path t key in
  let tmp = tmp_name final in
  match open_out_bin tmp with
  | exception Sys_error _ -> ()
  | oc ->
    output_string oc (Json.to_string (Verdict.report_to_json report));
    close_out_noerr oc;
    (try Sys.rename tmp final with Sys_error _ -> ())

let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
