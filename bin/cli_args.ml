(* Argument definitions and request parsing shared by the ndroid
   subcommands.  analyze, serve and submit must agree on what an app
   request looks like — one spelling of the mode flags, the corpus
   selection and the task-list construction lives here so they cannot
   drift. *)

module Task = Ndroid_pipeline.Task
module Market = Ndroid_corpus.Market
module Registry = Ndroid_apps.Registry

let find_app name =
  match Registry.find name with
  | Some app -> Ok app
  | None ->
    Error
      (Printf.sprintf "unknown app %S; try one of: %s" name
         (String.concat ", " Registry.names))

(* The one way a corpus request becomes a dense-id task list: explicit
   bundled apps (default: all of them) or a --market slice, never both. *)
let tasks_of_request names market mode =
  match (market, names) with
  | Some _, _ :: _ -> Error "--market and explicit APP names are exclusive"
  | Some total, [] -> Ok (Task.of_market_slice ~mode (Market.scaled total))
  | None, names ->
    let names = match names with [] -> Registry.names | ns -> ns in
    let rec build i acc = function
      | [] -> Ok (List.rev acc)
      | name :: rest -> (
        match find_app name with
        | Error e -> Error e
        | Ok _ ->
          build (i + 1)
            ({ Task.t_id = i; t_subject = Task.Bundled name; t_mode = mode;
               t_fault = None }
             :: acc)
            rest)
    in
    build 0 [] names

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let data = really_input_string ic n in
  close_in ic;
  data

open Cmdliner

let apps_pos =
  Arg.(value & pos_all string []
       & info [] ~docv:"APP"
           ~doc:"Apps to analyze (default: every bundled app).")

let json_flag =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Emit one canonical JSON array of per-app reports on stdout.")

let mode_flags =
  Arg.(value
       & vflag Task.Static
           [ (Task.Static,
              info [ "static" ]
                ~doc:"Artifact-level analysis over the JNI supergraph \
                      (default).");
             (Task.Dynamic,
              info [ "dynamic" ]
                ~doc:"Run the app under the emulated NDroid tracker.");
             (Task.Both,
              info [ "both" ]
                ~doc:"Run both analyzers and merge their flows.");
             (Task.Hybrid,
              info [ "hybrid" ]
                ~doc:"Static triage first: clean apps finish with no \
                      emulation; flagged apps get a dynamic run focused \
                      on the static slice.") ])

let jobs_arg ~default ~doc =
  Arg.(value & opt int default & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let cache_arg =
  Arg.(value & opt (some string) None
       & info [ "cache" ] ~docv:"DIR"
           ~doc:"On-disk result cache keyed by app name, content digest and \
                 analyzer version.")

let market_arg =
  Arg.(value & opt (some int) None
       & info [ "market" ] ~docv:"N"
           ~doc:"Instead of bundled apps, sweep an $(docv)-app market \
                 slice.")

let socket_pos =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"SOCKET" ~doc:"Unix-domain socket path of the daemon.")

(* submit's app list: every positional after the socket *)
let apps_after_socket =
  Arg.(value & pos_right 0 string []
       & info [] ~docv:"APP"
           ~doc:"Apps to analyze (default: every bundled app).")

let deadline_arg ~doc =
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SEC" ~doc)
