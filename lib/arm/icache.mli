(** Hot-instruction decode cache.

    "To speed up the identification of the instruction type and the search of
    the handler, NDroid caches hot instructions and the corresponding
    handlers" (paper, Sec. V-C).  The cache maps a fetch address and ISA
    mode to the decoded instruction and its byte size, avoiding re-decoding
    in loops.  It is direct-mapped over halfword-aligned addresses: a lookup
    is two array reads, and a conflicting address silently evicts the
    previous tenant.  Disable it to run ablation A1. *)

type t

val create : unit -> t

val find : t -> int -> Cpu.mode -> (Insn.t * int) option
val store : t -> int -> Cpu.mode -> Insn.t * int -> unit
val clear : t -> unit

val probe : t -> int -> Cpu.mode -> bool
(** Counter-updating membership test of a fetch address in a mode.  The
    allocation-free hit path of the trace loop: on [true], read the entry
    with {!cached}. *)

val cached : t -> int -> Insn.t * int
(** The entry stored in [addr]'s slot — meaningful only immediately after
    {!probe} returned [true] for the same address. *)

val invalidate : t -> int -> int -> unit
(** [invalidate c addr len] drops, in either mode, every entry whose
    instruction bytes overlap the [len] bytes written at [addr] — including
    a 4-byte instruction that starts 2 bytes before [addr].  The work grows
    with [len], not with the table size. *)

val hits : t -> int
(** Lookup hits since creation (or the last {!clear}). *)

val misses : t -> int
