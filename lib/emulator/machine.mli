(** The whole-system machine: CPU + memory + host-function dispatch + the
    instrumentation event stream.

    This plays QEMU's role in NDroid's architecture (paper, Fig. 4).
    Library functions ([libdvm]'s JNI functions, libc, libm) are {e host
    functions}: OCaml handlers mounted at guest addresses.  A branch that
    lands on one runs the handler and returns — and, like NDroid's
    TCG-insertion hooking (Sec. V-G), emits pre/post events keyed by the
    function's address and name.  Everything else is stepped instruction by
    instruction, with a pre-execution event per instruction so an attached
    tracer sees the machine state the instruction is about to consume. *)

module Cpu = Ndroid_arm.Cpu
module Memory = Ndroid_arm.Memory
module Insn = Ndroid_arm.Insn
module Exec = Ndroid_arm.Exec
module Icache = Ndroid_arm.Icache

type host_fn = { hf_name : string; hf_lib : string; hf_addr : int }

(** [Ev_insn] and [Ev_branch] carry mutable payloads: the trace loop reuses
    one preallocated cell of each, rewriting the fields per emission, so
    per-instruction event delivery allocates nothing.  Listeners must read
    the fields during the callback and never retain the event value. *)
type event =
  | Ev_insn of { mutable addr : int; mutable insn : Insn.t }
      (** emitted {e before} the instruction executes *)
  | Ev_branch of { mutable from_ : int; mutable to_ : int;
                   mutable is_call : bool }
      (** any control transfer, including synthetic ones host functions emit
          when they call other host functions *)
  | Ev_host_pre of host_fn
  | Ev_host_post of host_fn
  | Ev_svc of int

exception Runaway of int
(** Raised when a run exceeds its fuel (instruction budget). *)

type t

val create : unit -> t
(** Fresh machine: empty memory, stack pointer at the top of the stack
    region, no listeners, instruction cache enabled. *)

val cpu : t -> Cpu.t
val mem : t -> Memory.t

val set_icache_enabled : t -> bool -> unit
(** Ablation A1: disable the hot-instruction decode cache. *)

val set_host_fn_work : t -> int -> unit
(** Baseline cost of one host-function dispatch, in abstract work units
    (default 48).  A mounted library function stands for a real function
    body of dozens-to-hundreds of instructions; charging that body in
    {e every} configuration is what makes summary-based instrumentation
    nearly free relative to it (the Fig. 10 MALLOCS/Disk rows) while
    instruction-level instrumentation (DroidScope) still pays per
    instruction. *)

val icache_stats : t -> int * int
(** (hits, misses). *)

val mount_host_fn : t -> lib:string -> name:string -> addr:int ->
  ?charge:(Ndroid_budget.Budget.t -> Cpu.t -> Memory.t -> unit) ->
  (Cpu.t -> Memory.t -> unit) -> host_fn
(** Mount a host function at a guest address.  The handler must follow the
    AAPCS (result in r0).  A call costs one unit of the work budget; a
    function whose work grows with a size its arguments choose also gets
    a [charge] that spends those units ({!Ndroid_budget.Budget.charge}),
    run before the call's listeners and body.
    @raise Invalid_argument if the address is taken. *)

val host_fn_addr : t -> string -> int
(** Address of a mounted function by name. @raise Not_found. *)

val find_host_fn : t -> int -> host_fn option

val add_listener : t -> (event -> unit) -> unit
(** Attach an analysis.  Listeners run in attachment order. *)

val clear_listeners : t -> unit

val emit_branch : t -> from_:int -> to_:int -> is_call:bool -> unit
(** Host functions use this to surface their internal call chains (e.g.
    [CallVoidMethodA] → [dvmCallMethodA] → [dvmInterpret]) as branch events
    so multilevel hooking can follow them (paper, Fig. 5). *)

val call_host : t -> from_:int -> string -> unit
(** [call_host t ~from_ name] invokes a mounted host function from host
    code, producing the full event sequence a guest call would: a call
    branch [from_ → addr], [Ev_host_pre], the handler, [Ev_host_post], and
    a return branch [addr → from_ + 4].  This is how libdvm internals
    surface their call chains ([NewStringUTF] → [dvmCreateStringFromCstr],
    Fig. 6; the Fig. 5 chain).  Arguments and results travel in registers,
    as they would on hardware.  @raise Not_found for unmounted names. *)

val load_program : t -> Ndroid_arm.Asm.program -> unit
(** Copy an assembled library into guest memory, remember it in the
    memory map, and watch it for code writes: a later write into the image
    drops the decodes it overlaps from the decode cache. *)

val call_native : t -> ?fuel:int -> addr:int -> args:int list ->
  ?stack_args:int list -> unit -> int * int
(** Call a guest function: set up arguments per the AAPCS, run until it
    returns, give back (r0, r1).  Re-entrant — host functions may call back
    into guest code.  [fuel] (default 50M) bounds the instruction count.
    Every instruction and host call also spends one unit of the work
    budget that was {!Ndroid_budget.Budget.current} when the machine was
    created.
    @raise Runaway when the fuel runs out.
    @raise Ndroid_budget.Budget.Exhausted when the work budget runs out.
    @raise Ndroid_budget.Budget.Cancelled when its cancel flag is set. *)

val insn_count : t -> int
(** Guest instructions executed so far. *)

val host_calls : t -> int
val libs : t -> (string * int * int) list
(** Loaded/mounted regions (name, base, size) — input to the OS-level view
    reconstructor. *)
