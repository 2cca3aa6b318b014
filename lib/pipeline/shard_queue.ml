(* Each shard is a two-list amortized FIFO, so pushes are O(1). *)
type 'a shard = {
  mutable front : 'a list;  (* next to run is the head *)
  mutable back : 'a list;  (* pushed items, newest first *)
  mutable len : int;
}

type 'a t = {
  shards : 'a shard array;
  capacity : int;
  mutable size : int;
  mutable cursor : int;  (* round-robin scan start for {!pop_rr} *)
}

let create_empty ~shards ~capacity () =
  if shards < 1 then
    invalid_arg "Shard_queue.create_empty: shards must be >= 1";
  { shards = Array.init shards (fun _ -> { front = []; back = []; len = 0 });
    capacity; size = 0; cursor = 0 }

let remaining t = t.size
let shard_depth t ~shard = t.shards.(shard mod Array.length t.shards).len

let push t ~shard item =
  if t.size >= t.capacity then false
  else begin
    let s = t.shards.(shard mod Array.length t.shards) in
    s.back <- item :: s.back;
    s.len <- s.len + 1;
    t.size <- t.size + 1;
    true
  end

(* front, refilled from back when dry; caller already checked len > 0 *)
let take_front s =
  (match s.front with
   | [] ->
     s.front <- List.rev s.back;
     s.back <- []
   | _ :: _ -> ());
  match s.front with
  | [] -> None
  | x :: rest ->
    s.front <- rest;
    s.len <- s.len - 1;
    Some x

let pop_rr t =
  if t.size = 0 then None
  else begin
    let n = Array.length t.shards in
    let found = ref None in
    let i = ref 0 in
    while !found = None && !i < n do
      let idx = (t.cursor + !i) mod n in
      let s = t.shards.(idx) in
      if s.len > 0 then begin
        t.size <- t.size - 1;
        t.cursor <- idx + 1;  (* next scan starts past the served shard *)
        found := take_front s
      end;
      incr i
    done;
    !found
  end

let clear_shard t ~shard =
  let s = t.shards.(shard mod Array.length t.shards) in
  let dropped = s.front @ List.rev s.back in
  t.size <- t.size - s.len;
  s.front <- [];
  s.back <- [];
  s.len <- 0;
  dropped
