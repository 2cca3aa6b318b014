(** Per-exported-function native taint summaries.

    Derived from the loaded image each time a library is loaded (nothing
    is persisted: deriving is cheaper than reading a stored copy back),
    a summary classifies each exported function as
    [Exact] — straight-line, unconditional, register-only, so the JNI
    bridge can apply its fused taint transfer and replay its value effect
    without emulating the body — or [Emulate reason], in which case the
    bridge falls back to full emulation.  Runtime writes into the library
    image mark it dirty and reject all of its summaries (self-modifying /
    decrypting native code). *)

type verdict =
  | Exact
  | Emulate of string  (** human-readable reason the body must be emulated *)

type fn = {
  f_name : string;
  f_addr : int;  (** entry address, interworking bit stripped *)
  f_len : int;  (** decoded instructions, terminal return included *)
  f_verdict : verdict;
  f_masks : (int * int) array;
      (** (rd, entry-register dependence mask); [Exact] only *)
  f_body : (int * Ndroid_arm.Insn.t * int) array;
      (** (addr, insn, size), terminal return excluded; [Exact] only *)
}

type lib

val derive : Ndroid_arm.Memory.t -> Ndroid_arm.Asm.program -> lib
(** Summarize every exported symbol of a loaded image. *)

val find : lib -> int -> fn option
(** Look up by entry address (interworking bit ignored). *)

val mark_dirty : lib -> unit
val dirty : lib -> bool

val owns : lib -> int -> bool
(** Does this address fall inside the summarized image? *)

val exact_count : lib -> int

val eval : fn -> cpu:Ndroid_arm.Cpu.t -> mem:Ndroid_arm.Memory.t ->
  slots:(int * Ndroid_taint.Taint.t) array -> int * int
(** Replay an [Exact] body's value effect: r0-r3 seeded from the marshaled
    slots, r4-r12 and flags from the live CPU, returning (r0, r1) — exactly
    what emulating the body would produce. *)

val apply_masks : Ndroid_emulator.Taint_engine.t -> (int * int) array -> unit
(** Write the summary's taint effect into the shadow registers: each
    (rd, mask) pair's post-taint is the union of the entry taints the mask
    names. *)
