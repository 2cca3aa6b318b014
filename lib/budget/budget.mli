(** The work budget that bounds one analysis.

    A budget counts units of work — Dalvik bytecodes plus native
    instructions — and stops the analysis when they run out.  The Dalvik
    interpreter spends one unit per bytecode and the ARM machine one per
    instruction or host call, so the point where a budget runs out
    depends only on what the app executes:
    the same app stops at the same instruction on every machine, under
    any load and any number of workers.

    A budget can also carry a cancel flag, set from another domain when a
    wall-clock deadline passes.  {!spend} polls it every few thousand
    units; a cancel is the only wall-clock input to an analysis.

    A virtual machine or ARM machine draws on the budget installed on its
    domain when it is created ({!current}); one created outside
    {!with_budget} gets a budget of its own that never runs out. *)

type state
(** The units not yet handed out, and the cancel flag. *)

type t = { mutable tick : int; state : state }
(** [tick] is the slice of units in hand.  Spending one is
    [tick <- tick - 1], then {!refill} if [tick] went negative — what
    {!spend} does.  The field is visible so that the interpreter and the
    ARM machine can do it inline on their per-unit paths: across
    libraries a call to {!spend} is not inlined. *)

exception Exhausted
(** Raised by {!spend} once every unit is spent.  Deterministic. *)

exception Cancelled
(** Raised by {!spend} and {!sleep} once the cancel flag is set. *)

val create : ?cancel:bool Atomic.t -> int -> t
(** A budget of that many units, polling [cancel] if given. *)

val spend : t -> unit
(** Spend one unit.
    @raise Exhausted when none is left
    @raise Cancelled when the cancel flag is set *)

val charge : t -> int -> unit
(** Spend that many units at once — the price of one step whose work
    grows with a size the app chose, paid before the work is done.  When
    fewer units are left, none are spent on the work: the budget is
    emptied and {!Exhausted} raised.
    @raise Exhausted when fewer than that many are left
    @raise Cancelled when the cancel flag is set *)

val refill : t -> unit
(** Take the next slice, once [tick] has gone negative.
    @raise Exhausted when none is left
    @raise Cancelled when the cancel flag is set *)

val used : t -> int
(** Units spent so far. *)

val sleep : t -> float -> unit
(** Wait that many seconds in short slices, polling the cancel flag.
    @raise Cancelled when it is set before the time is up *)

val with_budget : t -> (unit -> 'a) -> 'a
(** Run the function with [t] installed as this domain's {!current}
    budget, restoring the previous one afterwards. *)

val current : unit -> t
(** The budget installed on this domain, or else a fresh one that never
    runs out and is never cancelled. *)
