module Ring = Ndroid_obs.Ring
module Event = Ndroid_obs.Event

(* The flow log is a string-rendering view over the observability ring:
   engines emit typed events, and the legacy line-oriented API renders
   them on demand through [Event.render] — the single home of the paper's
   log vocabulary.  Events with no legacy spelling (method spans, machine
   instructions, pipeline phases) render to [None] and are invisible
   here. *)
type t = Ring.t

let ring t = t
let of_ring r = r

let record t line = Ring.emit_log t line
let recordf t fmt = Format.kasprintf (record t) fmt

let entries t =
  List.rev
    (Ring.fold
       (fun acc r ->
         match Event.render r with Some line -> line :: acc | None -> acc)
       [] t)

let clear t = Ring.clear t
let count t = Ring.lines t

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  if nl = 0 then true
  else
    let rec loop i =
      if i + nl > hl then false
      else if String.sub hay i nl = needle then true
      else loop (i + 1)
    in
    loop 0

let matching t needle = List.filter (fun e -> contains e needle) (entries t)
