(* Direct-mapped decode cache: (fetch address, ISA mode) -> decoded
   instruction.

   Slots are indexed by the halfword-aligned fetch address, so consecutive
   ARM (4-byte) and Thumb (2-byte) instructions land in distinct slots and a
   lookup is two array reads — no hashing, no probing.  Fetch addresses are
   halfword-aligned, so bit 0 of a key is free to carry the mode: the same
   bytes entered as ARM and as Thumb share a slot but never an entry. *)

let slot_bits = 13
let slots = 1 lsl slot_bits

type t = {
  keys : int array;  (* -1 = empty slot *)
  entries : (Insn.t * int) array;
  mutable hits : int;
  mutable misses : int;
}

let dummy_entry = (Insn.bx_lr, 4)

let create () =
  { keys = Array.make slots (-1);
    entries = Array.make slots dummy_entry;
    hits = 0;
    misses = 0 }

let key addr mode = match mode with Cpu.Arm -> addr | Cpu.Thumb -> addr lor 1

let slot addr = (addr lsr 1) land (slots - 1)

let probe c addr mode =
  let i = slot addr in
  if c.keys.(i) = key addr mode then begin
    c.hits <- c.hits + 1;
    true
  end
  else begin
    c.misses <- c.misses + 1;
    false
  end

let cached c addr = c.entries.(slot addr)

let find c addr mode =
  if probe c addr mode then Some (cached c addr) else None

let store c addr mode entry =
  let i = slot addr in
  c.keys.(i) <- key addr mode;
  c.entries.(i) <- entry

(* An instruction starts on a halfword and is at most 4 bytes long, so the
   first one a write at [addr] can overlap starts at the halfword at or
   below [addr - 2].  One slot per halfword written; a write that covers
   the whole table clears it. *)
let invalidate c addr len =
  let first = (addr - 2) land lnot 1 in
  let n = (addr + len - first + 1) / 2 in
  if n >= slots then Array.fill c.keys 0 slots (-1)
  else
    for k = 0 to n - 1 do
      let a = first + (2 * k) in
      let i = slot a in
      if c.keys.(i) land lnot 1 = a then c.keys.(i) <- -1
    done

let clear c =
  Array.fill c.keys 0 slots (-1);
  c.hits <- 0;
  c.misses <- 0

let hits c = c.hits
let misses c = c.misses
