(** Length-prefixed frames over sockets.

    Each frame is a 4-byte big-endian length followed by that many payload
    bytes.  A blocking client reads whole frames ({!read_frame}); the
    daemon feeds whatever [read(2)] returned into an incremental
    {!reader}, so its select-driven loop never blocks halfway through a
    frame a slow client only partly wrote.

    The service socket speaks tagged frames: the payload starts with a
    protocol-version byte and a one-byte message tag ({!write_tagged} /
    {!parse_tagged}), because daemon and client can be different
    binaries — a version mismatch must be one decisive error, never a
    silent misparse. *)

val max_frame : int
(** The largest payload a frame may announce (64 MiB).  A peer chooses
    the 32-bit length in a header, so a longer announcement is refused
    before anything is allocated for it. *)

exception Frame_too_large of { length : int; before : string list }
(** A header announced [length] > {!max_frame} bytes.  [before] holds the
    whole frames that preceded it in the same read, still to be handled;
    nothing after the header is read. *)

val read_frame : Unix.file_descr -> string option
(** Blocking read of one whole frame; [None] on clean EOF at a frame
    boundary (and on a torn frame, which only happens if the peer died
    mid-write).  @raise Frame_too_large *)

type reader

val create_reader : unit -> reader

val drain : reader -> Unix.file_descr ->
  [ `Frames of string list | `Eof of string list ]
(** One [read(2)] on a descriptor select said is readable; returns every
    frame completed by those bytes (often none or several).  [`Eof] carries
    the final complete frames; a trailing torn frame is discarded.
    @raise Frame_too_large on a header over {!max_frame}, and again on
    every later call without reading: the reader is done. *)

(** {1 Tagged frames} *)

val protocol_version : int
(** The service-protocol generation this binary speaks.  Bump on any
    incompatible change to the tagged-frame payloads. *)

val encode_tagged : tag:char -> string -> bytes
(** The complete frame bytes (length header, version byte, [tag] byte,
    payload) — for callers that buffer writes themselves, like the
    server's non-blocking per-client output queues. *)

val write_tagged : Unix.file_descr -> tag:char -> string -> unit
(** [encode_tagged] + blocking write, retrying short writes. *)

val parse_tagged : string -> (char * string, string) result
(** Split a frame (as returned by {!read_frame} / {!drain}) into its tag
    and payload.  [Error] — decisively, with the versions named — if the
    frame is too short or carries a different {!protocol_version}. *)
