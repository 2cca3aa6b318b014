module Json = Ndroid_report.Json
module Verdict = Ndroid_report.Verdict
module Stream = Ndroid_obs.Stream

type submit = {
  sb_req : int;
  sb_subject : Task.subject;
  sb_mode : Task.mode;
  sb_deadline : float option;
  sb_fault : Task.fault option;
  sb_trace : bool;
}

type subscribe = {
  su_cats : string list;
  su_app : string option;
  su_window : int;
}

type trace = {
  tc_req : int;
  tc_app : string;
  tc_events : Stream.event list;
  tc_dropped : int;
  tc_lost : int;
}

type message =
  | Submit of submit
  | Subscribe of subscribe
  | Verdict of { vd_req : int; vd_cached : bool; vd_seconds : float;
                 vd_report : Verdict.report }
  | Progress of { pg_req : int; pg_state : string; pg_depth : int }
  | Trace of trace
  | Shed of { sh_req : int; sh_reason : string }
  | Error of string

let tag_submit = 'S'
let tag_subscribe = 'F'
let tag_verdict = 'V'
let tag_progress = 'P'
let tag_trace = 'T'
let tag_shed = 'X'
let tag_error = 'E'

let to_tag_payload = function
  | Submit s ->
    ( tag_submit,
      Json.Obj
        [ ("req", Json.Int s.sb_req);
          ("subject", Task.subject_to_json s.sb_subject);
          ("mode", Json.Str (Task.mode_name s.sb_mode));
          ("deadline",
           match s.sb_deadline with
           | Some d -> Json.Float d
           | None -> Json.Null);
          ("fault", Task.fault_to_json s.sb_fault);
          ("trace", Json.Bool s.sb_trace) ] )
  | Subscribe s ->
    ( tag_subscribe,
      Json.Obj
        [ ("cats", Json.List (List.map (fun c -> Json.Str c) s.su_cats));
          ("app",
           match s.su_app with Some re -> Json.Str re | None -> Json.Null);
          ("window", Json.Int s.su_window) ] )
  | Trace t ->
    ( tag_trace,
      Json.Obj
        [ ("req", Json.Int t.tc_req);
          ("app", Json.Str t.tc_app);
          ("events", Json.List (List.map Stream.event_json t.tc_events));
          ("dropped", Json.Int t.tc_dropped);
          ("lost", Json.Int t.tc_lost) ] )
  | Verdict v ->
    ( tag_verdict,
      Json.Obj
        [ ("req", Json.Int v.vd_req);
          ("cached", Json.Bool v.vd_cached);
          ("seconds", Json.Float v.vd_seconds);
          ("report", Verdict.report_to_json v.vd_report) ] )
  | Progress p ->
    ( tag_progress,
      Json.Obj
        [ ("req", Json.Int p.pg_req);
          ("state", Json.Str p.pg_state);
          ("depth", Json.Int p.pg_depth) ] )
  | Shed s ->
    ( tag_shed,
      Json.Obj
        [ ("req", Json.Int s.sh_req); ("reason", Json.Str s.sh_reason) ] )
  | Error e -> (tag_error, Json.Obj [ ("error", Json.Str e) ])

let to_frame m =
  let tag, payload = to_tag_payload m in
  Wire.encode_tagged ~tag (Json.to_string payload)

let write fd m =
  let tag, payload = to_tag_payload m in
  Wire.write_tagged fd ~tag (Json.to_string payload)

let ( let* ) = Result.bind

let req_int name j =
  match Option.bind (Json.member name j) Json.int with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "message is missing int field %S" name)

let req_str name j =
  match Option.bind (Json.member name j) Json.str with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "message is missing string field %S" name)

let decode_submit j =
  let* req = req_int "req" j in
  let* subject =
    match Json.member "subject" j with
    | None -> Error "submit is missing its \"subject\""
    | Some s -> Task.subject_of_json s
  in
  let* mode =
    let* m = req_str "mode" j in
    match Task.mode_of_name m with
    | Some m -> Ok m
    | None -> Error (Printf.sprintf "unknown submit mode %S" m)
  in
  let deadline =
    match Json.member "deadline" j with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  let* fault = Task.fault_of_json (Json.member "fault" j) in
  let trace =
    Option.value ~default:false
      (Option.bind (Json.member "trace" j) Json.bool)
  in
  Ok
    (Submit
       { sb_req = req; sb_subject = subject; sb_mode = mode;
         sb_deadline = deadline; sb_fault = fault; sb_trace = trace })

let decode_subscribe j =
  let cats =
    match Option.bind (Json.member "cats" j) Json.list with
    | None -> []
    | Some l -> List.filter_map Json.str l
  in
  let app = Option.bind (Json.member "app" j) Json.str in
  let window =
    Option.value ~default:0 (Option.bind (Json.member "window" j) Json.int)
  in
  Ok (Subscribe { su_cats = cats; su_app = app; su_window = window })

let decode_trace j =
  let* req = req_int "req" j in
  let* app = req_str "app" j in
  let* events =
    match Option.bind (Json.member "events" j) Json.list with
    | None -> Error "trace is missing its \"events\""
    | Some l ->
      List.fold_left
        (fun acc ej ->
          let* evs = acc in
          let* ev = Stream.event_of_json ej in
          Ok (ev :: evs))
        (Ok []) l
      |> Result.map List.rev
  in
  let dropped =
    Option.value ~default:0 (Option.bind (Json.member "dropped" j) Json.int)
  in
  let lost =
    Option.value ~default:0 (Option.bind (Json.member "lost" j) Json.int)
  in
  Ok
    (Trace
       { tc_req = req; tc_app = app; tc_events = events;
         tc_dropped = dropped; tc_lost = lost })

let decode_verdict j =
  let* req = req_int "req" j in
  let cached =
    Option.value ~default:false
      (Option.bind (Json.member "cached" j) Json.bool)
  in
  let seconds =
    match Json.member "seconds" j with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> 0.0
  in
  let* report =
    match Json.member "report" j with
    | None -> Error "verdict is missing its \"report\""
    | Some r -> Verdict.report_of_json r
  in
  Ok
    (Verdict
       { vd_req = req; vd_cached = cached; vd_seconds = seconds;
         vd_report = report })

let decode_progress j =
  let* req = req_int "req" j in
  let* state = req_str "state" j in
  let depth =
    Option.value ~default:0 (Option.bind (Json.member "depth" j) Json.int)
  in
  Ok (Progress { pg_req = req; pg_state = state; pg_depth = depth })

let decode_shed j =
  let* req = req_int "req" j in
  let* reason = req_str "reason" j in
  Ok (Shed { sh_req = req; sh_reason = reason })

let decode_error j =
  let* e = req_str "error" j in
  Ok (Error e)

let of_frame frame =
  let* tag, payload = Wire.parse_tagged frame in
  let* j = Json.of_string payload in
  if tag = tag_submit then decode_submit j
  else if tag = tag_subscribe then decode_subscribe j
  else if tag = tag_verdict then decode_verdict j
  else if tag = tag_progress then decode_progress j
  else if tag = tag_trace then decode_trace j
  else if tag = tag_shed then decode_shed j
  else if tag = tag_error then decode_error j
  else Error (Printf.sprintf "unknown message tag %C" tag)

(* ---- the client side ---- *)

module Client = struct
  type t = { c_fd : Unix.file_descr }

  let connect ?retry_for path =
    let deadline =
      match retry_for with
      | Some s -> Unix.gettimeofday () +. s
      | None -> neg_infinity
    in
    let rec attempt () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> Ok { c_fd = fd }
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
        when Unix.gettimeofday () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.02;
        attempt ()
      | exception Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        Error
          (Printf.sprintf "cannot connect to %s: %s" path
             (Unix.error_message e))
    in
    attempt ()

  let fd t = t.c_fd
  let send t m = write t.c_fd m

  let recv t =
    match Wire.read_frame t.c_fd with
    | None -> Stdlib.Error "server closed the connection"
    | Some frame -> of_frame frame
    | exception Wire.Frame_too_large { length; _ } ->
      Stdlib.Error
        (Printf.sprintf "server sent a %d-byte frame (limit %d)" length
           Wire.max_frame)

  let close t = try Unix.close t.c_fd with Unix.Unix_error _ -> ()
end
