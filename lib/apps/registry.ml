(* One canonical list of every bundled scenario app.  The CLI, the bench
   harness and the pipeline used to each rebuild (and slightly disagree
   about) this list; they all share this one now. *)

let all : Harness.app list =
  Cases.all @ Case_studies.all @ Polymorphic.variants @ Sec6_batch.apps
  @ [ Evasion.app; Monkey.gated_app.Monkey.app ]
  |> List.fold_left
       (fun acc a ->
         if List.exists (fun b -> b.Harness.app_name = a.Harness.app_name) acc
         then acc
         else a :: acc)
       []
  |> List.rev

let names = List.map (fun a -> a.Harness.app_name) all

(* Apps registered at run time, newest first.  Atomic, so a worker
   domain reading it while the main domain registers sees a whole list. *)
let registered : Harness.app list Atomic.t = Atomic.make []

let find name =
  let named a = a.Harness.app_name = name in
  match List.find_opt named all with
  | Some _ as app -> app
  | None -> List.find_opt named (Atomic.get registered)

let rec register app =
  if find app.Harness.app_name <> None then
    invalid_arg
      (Printf.sprintf "Registry.register: %S is already taken"
         app.Harness.app_name);
  let old = Atomic.get registered in
  if not (Atomic.compare_and_set registered old (app :: old)) then register app

let find_exn name =
  match find name with
  | Some app -> app
  | None ->
    invalid_arg
      (Printf.sprintf "unknown app %S; try one of: %s" name
         (String.concat ", " names))
