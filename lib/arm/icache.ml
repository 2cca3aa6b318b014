(* Direct-mapped decode cache: (fetch address, ISA mode) -> decoded
   instruction.

   Slots are indexed by the halfword-aligned fetch address, so consecutive
   ARM (4-byte) and Thumb (2-byte) instructions land in distinct slots and a
   lookup is two array reads — no hashing, no probing.  Fetch addresses are
   halfword-aligned, so bit 0 of a key is free to carry the mode: the same
   bytes entered as ARM and as Thumb share a slot but never an entry.

   The table starts at [min_bits] and grows on stores, not on occupancy: a
   store that would evict a live entry for other bytes widens the table to
   the smallest size that gives the two separate slots, up to [max_bits].
   A small direct-mapped table that only grew once it filled would never
   fill: conflicts keep evicting, and a loop whose instructions collide
   would miss on every iteration.  At [max_bits] the slot function is the
   fixed one of a table that never grew, and conflicts evict as before. *)

let min_bits = 6
let max_bits = 13

type t = {
  mutable keys : int array;  (* -1 = empty slot *)
  mutable entries : (Insn.t * int) array;
  mutable mask : int;  (* slots - 1 *)
  mutable hits : int;
  mutable misses : int;
}

let dummy_entry = (Insn.bx_lr, 4)

let create () =
  let slots = 1 lsl min_bits in
  { keys = Array.make slots (-1);
    entries = Array.make slots dummy_entry;
    mask = slots - 1;
    hits = 0;
    misses = 0 }

let key addr mode = match mode with Cpu.Arm -> addr | Cpu.Thumb -> addr lor 1

let slot c addr = (addr lsr 1) land c.mask

let lookup c addr mode =
  let i = slot c addr in
  if c.keys.(i) = key addr mode then begin
    c.hits <- c.hits + 1;
    i
  end
  else begin
    c.misses <- c.misses + 1;
    -1
  end

let entry c i = c.entries.(i)

let find c addr mode =
  let i = lookup c addr mode in
  if i >= 0 then Some (entry c i) else None

(* Re-insert every live entry into a table of [1 lsl bits] slots.  The new
   slot index extends the old one by high bits, so no two entries that
   had slots of their own can collide. *)
let resize c bits =
  let slots = 1 lsl bits in
  let keys = Array.make slots (-1) and entries = Array.make slots dummy_entry in
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = (k lsr 1) land (slots - 1) in
        keys.(j) <- k;
        entries.(j) <- c.entries.(i)
      end)
    c.keys;
  c.keys <- keys;
  c.entries <- entries;
  c.mask <- slots - 1

(* The smallest table in which halfword indices [a] and [b] (a <> b) take
   different slots: one bit past the lowest bit in which they differ. *)
let separating_bits a b =
  let rec low_bit d n = if d land 1 = 1 then n else low_bit (d lsr 1) (n + 1) in
  low_bit (a lxor b) 1

let store c addr mode entry =
  let k = key addr mode in
  let old = c.keys.(slot c addr) in
  (* evicting another address's decode: widen the table if a size up to
     the maximum separates the two (the same bytes in the other mode
     share the slot at every size) *)
  if old >= 0 && old lsr 1 <> addr lsr 1 then begin
    let bits = separating_bits (old lsr 1) (addr lsr 1) in
    if bits <= max_bits then resize c bits
  end;
  let i = slot c addr in
  c.keys.(i) <- k;
  c.entries.(i) <- entry

(* An instruction starts on a halfword and is at most 4 bytes long, so the
   first one a write at [addr] can overlap starts at the halfword at or
   below [addr - 2].  One slot per halfword written; a write that covers
   the whole table clears it. *)
let invalidate c addr len =
  let slots = c.mask + 1 in
  let first = (addr - 2) land lnot 1 in
  let n = (addr + len - first + 1) / 2 in
  if n >= slots then Array.fill c.keys 0 slots (-1)
  else
    for k = 0 to n - 1 do
      let a = first + (2 * k) in
      let i = slot c a in
      if c.keys.(i) land lnot 1 = a then c.keys.(i) <- -1
    done

let clear c =
  Array.fill c.keys 0 (c.mask + 1) (-1);
  c.hits <- 0;
  c.misses <- 0

let slots c = c.mask + 1
let hits c = c.hits
let misses c = c.misses
