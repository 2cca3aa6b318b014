exception Exhausted
exception Cancelled

(* [tick] counts down the slice in hand; [reserve] holds the units not yet
   handed out.  Slices keep the per-unit path to a decrement and a test,
   and the cancel flag is read once per slice, not once per unit.  The
   accounting stays exact: the budget runs out after exactly [limit]
   units, whatever the slice size. *)
type state = {
  mutable reserve : int;
  limit : int;
  cancel : bool Atomic.t;
}

type t = { mutable tick : int; state : state }

let slice = 4096

(* Never set: the flag of a budget nobody can cancel. *)
let never = Atomic.make false

let create ?(cancel = never) limit =
  let limit = max 0 limit in
  { tick = 0; state = { reserve = limit; limit; cancel } }

let unlimited () = create max_int

let refill b =
  let st = b.state in
  if Atomic.get st.cancel then begin
    b.tick <- 0;
    raise Cancelled
  end;
  if st.reserve = 0 then begin
    b.tick <- 0;
    raise Exhausted
  end;
  let take = min slice st.reserve in
  st.reserve <- st.reserve - take;
  (* the unit being spent comes out of the new slice *)
  b.tick <- take - 1

let[@inline] spend b =
  let n = b.tick - 1 in
  b.tick <- n;
  if n < 0 then refill b

let charge b n =
  let owed = n - b.tick in
  if n <= 0 then ()
  else if owed <= 0 then b.tick <- b.tick - n
  else begin
    (* more than the slice in hand: settle the rest from the reserve *)
    let st = b.state in
    b.tick <- 0;
    if Atomic.get st.cancel then raise Cancelled;
    if owed > st.reserve then begin
      st.reserve <- 0;
      raise Exhausted
    end;
    st.reserve <- st.reserve - owed
  end

let used b = b.state.limit - b.state.reserve - max 0 b.tick

let sleep b seconds =
  let until = Unix.gettimeofday () +. seconds in
  let rec go () =
    if Atomic.get b.state.cancel then raise Cancelled;
    let left = until -. Unix.gettimeofday () in
    if left > 0.0 then begin
      Unix.sleepf (Float.min left 0.01);
      go ()
    end
  in
  go ()

let installed : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () =
  match Domain.DLS.get installed with Some b -> b | None -> unlimited ()

let with_budget b f =
  let prev = Domain.DLS.get installed in
  Domain.DLS.set installed (Some b);
  Fun.protect ~finally:(fun () -> Domain.DLS.set installed prev) f
