(** Hot-instruction decode cache.

    "To speed up the identification of the instruction type and the search of
    the handler, NDroid caches hot instructions and the corresponding
    handlers" (paper, Sec. V-C).  The cache maps a fetch address and ISA
    mode to the decoded instruction and its byte size, avoiding re-decoding
    in loops.  It is direct-mapped over halfword-aligned addresses: a lookup
    is two array reads.

    The table grows on demand.  It starts at 64 slots, so a machine that
    decodes little costs little to create, and grows on stores, not on
    occupancy: a {!store} that would evict the decode of other bytes widens
    the table, re-inserting every entry, to the smallest size that gives
    the two slots of their own — at most 8,192 slots.  (A table that grew
    only once it filled would never fill: a loop whose instructions collide
    keeps evicting.)  At 8,192 slots the slot function is fixed and a
    conflicting address silently evicts the previous tenant.  The same
    bytes in the other ISA mode share a slot at every size, so that
    eviction never grows the table.  Disable the cache to run ablation A1
    ([Machine.set_icache_enabled]). *)

type t

val create : unit -> t

val find : t -> int -> Cpu.mode -> (Insn.t * int) option
val store : t -> int -> Cpu.mode -> Insn.t * int -> unit
val clear : t -> unit

val lookup : t -> int -> Cpu.mode -> int
(** Counter-updating lookup of a fetch address in a mode: the slot that
    holds its entry, or [-1] on a miss.  The allocation-free hit path of
    the trace loop: read the entry with {!entry}. *)

val entry : t -> int -> Insn.t * int
(** The entry in a slot {!lookup} just returned — meaningful only until
    the next {!store}, which may grow the table. *)

val invalidate : t -> int -> int -> unit
(** [invalidate c addr len] drops, in either mode, every entry whose
    instruction bytes overlap the [len] bytes written at [addr] — including
    a 4-byte instruction that starts 2 bytes before [addr].  The work grows
    with [len], not with the table size. *)

val slots : t -> int
(** The table's current size: 64 at creation, at most 8,192. *)

val hits : t -> int
(** Lookup hits since creation (or the last {!clear}). *)

val misses : t -> int
