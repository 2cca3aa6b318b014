(** The daemon's bounded admission queue: one shard per client slot.
    Admission {!push}es onto the submitting client's shard (refused at
    capacity — the caller sheds), and the dispatcher {!pop_rr}s
    round-robin across non-empty shards, so one client saturating the
    daemon cannot starve the others: every client's oldest request is at
    most one round away. *)

type 'a t

val create_empty : shards:int -> capacity:int -> unit -> 'a t
(** An empty queue of [shards] (>= 1) shards holding at most [capacity]
    items in all, filled by {!push}. *)

val push : 'a t -> shard:int -> 'a -> bool
(** Append to the back of that shard, O(1) amortized.  [false] — and the
    item is not enqueued — when the queue already holds [capacity] items:
    the admission bound that turns overload into explicit [Shed]
    responses instead of unbounded memory growth. *)

val pop_rr : 'a t -> 'a option
(** Next item in round-robin order across non-empty shards, resuming the
    scan after the shard served last.  [None] when every shard is
    empty. *)

val clear_shard : 'a t -> shard:int -> 'a list
(** Drop and return everything queued on that shard (a disconnected
    client's not-yet-dispatched requests). *)

val remaining : 'a t -> int
val shard_depth : 'a t -> shard:int -> int
