(** Sparse, page-granular guest memory.

    A single flat 32-bit little-endian address space shared by native code,
    native stack and heap, and mapped libraries.  Pages are allocated on
    first touch so mapping libraries at far-apart addresses (the memory-map
    layout NDroid's OS-level view reconstructor reports) costs nothing. *)

type t

val create : unit -> t

val read_u8 : t -> int -> int
val read_u16 : t -> int -> int
val read_u32 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val write_u16 : t -> int -> int -> unit
val write_u32 : t -> int -> int -> unit

val read_bytes : t -> int -> int -> Bytes.t
(** [read_bytes m addr n] copies [n] bytes out of guest memory. *)

val write_bytes : t -> int -> Bytes.t -> unit
val write_string : t -> int -> string -> unit

val read_cstring : t -> ?max:int -> int -> string
(** [read_cstring m addr] reads a NUL-terminated string ([max] defaults to
    65536 bytes and bounds runaway reads). *)

val write_cstring : t -> int -> string -> unit
(** Write a string followed by a NUL byte. *)

val read_f32 : t -> int -> float
val read_f64 : t -> int -> float
val write_f32 : t -> int -> float -> unit
val write_f64 : t -> int -> float -> unit

val pages_touched : t -> int
(** Number of pages allocated so far (memory-map accounting). *)

val watch_code : t -> lo:int -> hi:int -> unit
(** Register [lo, hi] (inclusive) as loaded code: any later write, by
    guest or host, that overlaps a watched range is reported to the
    {!on_code_write} observers.  The check costs two integer compares on
    the store fast path while no watch is registered. *)

val on_code_write : t -> (int -> int -> unit) -> unit
(** Add a code-write observer, called as [f addr len] with the write's
    start address and length.  Observers run in the order they were added;
    the machine's decode cache drops the instructions the write overlaps,
    and the summary layer marks the owning library dirty. *)

val clear : t -> unit
