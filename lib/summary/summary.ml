module Insn = Ndroid_arm.Insn
module Cpu = Ndroid_arm.Cpu
module Memory = Ndroid_arm.Memory
module Exec = Ndroid_arm.Exec
module Asm = Ndroid_arm.Asm
module Taint = Ndroid_taint.Taint
module Taint_engine = Ndroid_emulator.Taint_engine
module Layout = Ndroid_emulator.Layout
module Json = Ndroid_report.Json

(* Per-exported-function native taint summaries.

   A summary records, per library function, either [Exact] — the function
   is a straight-line, unconditional, register-only computation whose taint
   effect is a fused Table V transfer over entry-register taints and whose
   value effect can be replayed on a scratch CPU — or [Emulate reason]: the
   body has data-dependent control flow, memory traffic, stack discipline,
   or upcalls, and the JNI bridge must run it under the emulator as before.

   Summaries are derived once per library image, keyed by a digest of its
   bytes, and survive across runs through a pluggable persistence hook (the
   pipeline's result cache).  A runtime write into the library's image
   marks the whole library dirty, after which every summary in it is
   rejected and calls fall back to emulation (self-modifying / decrypting
   native code). *)

type verdict =
  | Exact
  | Emulate of string  (* why the body must be emulated *)

type fn = {
  f_name : string;
  f_addr : int;  (* entry address, interworking bit stripped *)
  f_len : int;  (* decoded instructions, terminal return included *)
  f_verdict : verdict;
  f_masks : (int * int) array;  (* (rd, entry dependence mask); Exact only *)
  f_body : (int * Insn.t * int) array;
      (* (addr, insn, size), terminal return excluded; Exact only *)
}

type lib = {
  l_digest : string;
  l_mode : Cpu.mode;
  l_base : int;
  l_limit : int;
  l_fns : (int, fn) Hashtbl.t;  (* keyed by entry address *)
  mutable l_dirty : bool;  (* image written at runtime: reject everything *)
}

let digest_of prog =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%d:%s:%s" (Asm.base prog)
          (match Asm.mode prog with Cpu.Arm -> "arm" | Cpu.Thumb -> "thumb")
          (Bytes.to_string (Asm.code prog))))

let max_body = 64

(* ---- exactness classification ---- *)

let is_return = function
  | Insn.Bx { cond = Insn.AL; link = false; rm = 14 } -> true
  | _ -> false

(* Reject any touch of r13-r15: stack discipline and PC-relative reads
   would need the real machine context the summary replay doesn't have. *)
let banned_reg r = r >= 13

let op2_banned = function
  | Insn.Imm _ -> false
  | Insn.Reg r | Insn.Reg_shift_imm (r, _, _) -> banned_reg r
  | Insn.Reg_shift_reg (r, _, s) -> banned_reg r || banned_reg s

let classify insn =
  if Insn.cond_of insn <> Insn.AL then Error "conditional execution"
  else
    match insn with
    | Insn.Dp { op; rd; rn; op2; _ } ->
      if
        (not (Insn.is_test_op op)) && banned_reg rd
        || ((not (Insn.is_move_op op)) && banned_reg rn)
        || op2_banned op2
      then Error "r13-r15 access"
      else Ok ()
    | Insn.Mul { rd; rm; rs; _ } ->
      if banned_reg rd || banned_reg rm || banned_reg rs then
        Error "r13-r15 access"
      else Ok ()
    | Insn.Mla { rd; rm; rs; rn; _ } ->
      if banned_reg rd || banned_reg rm || banned_reg rs || banned_reg rn then
        Error "r13-r15 access"
      else Ok ()
    | Insn.Mull { rdlo; rdhi; rm; rs; _ } ->
      if banned_reg rdlo || banned_reg rdhi || banned_reg rm || banned_reg rs
      then Error "r13-r15 access"
      else Ok ()
    | Insn.Clz { rd; rm; _ } ->
      if banned_reg rd || banned_reg rm then Error "r13-r15 access"
      else Ok ()
    | Insn.Mem _ | Insn.Block _ | Insn.Vmem _ -> Error "memory access"
    | Insn.Vdp _ | Insn.Vmov_core _ | Insn.Vcvt _ | Insn.Vcvt_int _ ->
      Error "vfp"
    | Insn.B _ | Insn.Bx _ | Insn.Svc _ -> Error "control flow"

(* ---- fused Table V composition ---- *)

(* Any instruction that can write the PC (or trap) ends a block: branches,
   data-processing with rd = 15, PC loads, POP {…, pc}, SVC. *)
let ends_block = function
  | Insn.B _ | Insn.Bx _ | Insn.Svc _ -> true
  | Insn.Dp { rd; _ } | Insn.Mul { rd; _ } | Insn.Mla { rd; _ }
  | Insn.Clz { rd; _ } ->
    rd = 15
  | Insn.Mull { rdlo; rdhi; _ } -> rdlo = 15 || rdhi = 15
  | Insn.Mem { load; rd; _ } -> load && rd = 15
  | Insn.Block { load; regs; _ } -> load && regs land 0x8000 <> 0
  | Insn.Vmov_core { to_core; rt; _ } -> to_core && rt = 15
  | Insn.Vdp _ | Insn.Vmem _ | Insn.Vcvt _ | Insn.Vcvt_int _ -> false

let op2_mask masks = function
  | Insn.Imm _ -> None
  | Insn.Reg r | Insn.Reg_shift_imm (r, _, _) | Insn.Reg_shift_reg (r, _, _) ->
    (* op2_taint ignores the shift-amount register, exactly as Table V
       only names Rn and Rm *)
    Some masks.(r)

(* [fuse_step masks written insn] folds [insn]'s Table V rule into the
   symbolic state when the rule is a pure function of entry-register taints
   — unconditional, integer, register-only.  Returns [false] (state
   untouched) for anything needing live CPU state at its program point. *)
let fuse_step masks written insn =
  let set rd m =
    masks.(rd) <- m;
    written := !written lor (1 lsl rd)
  in
  match insn with
  | Insn.Dp { cond = Insn.AL; op; rd; rn; op2; _ } when rd <> 15 -> (
    match op with
    | Insn.TST | Insn.TEQ | Insn.CMP | Insn.CMN -> true  (* flags only *)
    | Insn.MOV | Insn.MVN -> (
      match op2_mask masks op2 with
      | None -> set rd 0; true
      | Some m -> set rd m; true)
    | Insn.AND | Insn.EOR | Insn.SUB | Insn.RSB | Insn.ADD | Insn.ADC
    | Insn.SBC | Insn.RSC | Insn.ORR | Insn.BIC -> (
      match op2_mask masks op2 with
      | None -> set rd masks.(rn); true
      | Some m -> set rd (masks.(rn) lor m); true))
  | Insn.Mul { cond = Insn.AL; rd; rm; rs; _ } when rd <> 15 ->
    set rd (masks.(rm) lor masks.(rs));
    true
  | Insn.Mla { cond = Insn.AL; rd; rm; rs; rn; _ } when rd <> 15 ->
    set rd (masks.(rm) lor masks.(rs) lor masks.(rn));
    true
  | Insn.Mull { cond = Insn.AL; rdlo; rdhi; rm; rs; _ }
    when rdlo <> 15 && rdhi <> 15 ->
    let m = masks.(rm) lor masks.(rs) in
    set rdlo m;
    set rdhi m;
    true
  | Insn.Clz { cond = Insn.AL; rd; rm } when rd <> 15 ->
    set rd masks.(rm);
    true
  | _ -> false

let identity_masks () = Array.init 16 (fun i -> 1 lsl i)

let fused_pairs masks written =
  let n = ref 0 in
  for r = 0 to 15 do
    if written land (1 lsl r) <> 0 then incr n
  done;
  let pairs = Array.make !n (0, 0) in
  let i = ref 0 in
  for r = 0 to 15 do
    if written land (1 lsl r) <> 0 then begin
      pairs.(!i) <- (r, masks.(r));
      incr i
    end
  done;
  pairs

(* Whole-body fusion for the summary layer: the composed transfer of an
   entire straight-line function, or [None] if any instruction resists. *)
let fuse insns =
  let masks = identity_masks () in
  let written = ref 0 in
  if Array.for_all (fuse_step masks written) insns then
    Some (fused_pairs masks !written)
  else None

let emulate name addr len reason =
  { f_name = name; f_addr = addr; f_len = len; f_verdict = Emulate reason;
    f_masks = [||]; f_body = [||] }

(* Decode from the entry point and classify.  The only accepted terminal is
   a plain [bx lr]; any other block-ender (branches — including upcalls
   back into libdvm —, PC writes, SVC) means the control flow is not a
   straight line and the body must be emulated. *)
let summarize cpu mem ~name addr =
  let rev = ref [] in
  let count = ref 0 in
  let pos = ref addr in
  let result = ref None in
  while !result = None do
    if !count >= max_body then result := Some (Error "body too long")
    else
      match Exec.fetch_decode cpu mem !pos with
      | exception Exec.Undefined _ -> result := Some (Error "undecodable")
      | insn, size ->
        incr count;
        if is_return insn then result := Some (Ok ())
        else if ends_block insn then
          result := Some (Error "control flow")
        else begin
          (match classify insn with
           | Ok () -> rev := (!pos, insn, size) :: !rev
           | Error reason -> result := Some (Error reason));
          pos := !pos + size
        end
  done;
  match !result with
  | Some (Error reason) -> emulate name addr !count reason
  | None -> assert false
  | Some (Ok ()) -> (
    let body = Array.of_list (List.rev !rev) in
    match fuse (Array.map (fun (_, i, _) -> i) body) with
    | None ->
      (* classify accepted it, so fusion must too; belt and braces *)
      emulate name addr !count "unfusable"
    | Some masks ->
      { f_name = name; f_addr = addr; f_len = !count; f_verdict = Exact;
        f_masks = masks; f_body = body })

(* ---- derivation ---- *)

let derive mem prog =
  let cpu = Cpu.create () in
  cpu.Cpu.mode <- Asm.mode prog;
  let fns = Hashtbl.create 16 in
  List.iter
    (fun (name, _) ->
      let addr = Asm.fn_addr prog name land lnot 1 in
      if not (Hashtbl.mem fns addr) then
        Hashtbl.replace fns addr (summarize cpu mem ~name addr))
    (Asm.symbols prog);
  { l_digest = digest_of prog;
    l_mode = Asm.mode prog;
    l_base = Asm.base prog;
    l_limit = Asm.base prog + Asm.size prog - 1;
    l_fns = fns;
    l_dirty = false }

let find l addr = Hashtbl.find_opt l.l_fns (addr land lnot 1)
let mark_dirty l = l.l_dirty <- true
let dirty l = l.l_dirty
let owns l addr = addr >= l.l_base && addr <= l.l_limit

let exact_count l =
  Hashtbl.fold
    (fun _ f acc -> match f.f_verdict with Exact -> acc + 1 | _ -> acc)
    l.l_fns 0

(* ---- application ---- *)

(* Replay the body's value effect on a scratch CPU: r0-r3 seeded from the
   marshaled slots, r4-r12 and flags from the live CPU (exactly the state
   the emulated path's call_native would enter with), LR = the return
   sentinel.  The body is register-only, so passing the real guest memory
   is safe — it is never touched. *)
let eval fn ~cpu ~mem ~slots =
  let c = Cpu.create () in
  Array.blit cpu.Cpu.regs 0 c.Cpu.regs 0 16;
  (* through Cpu.set_reg, so values normalize to u32 exactly as the
     call bridge's own register seeding does *)
  Array.iteri (fun i (v, _) -> if i < 4 then Cpu.set_reg c i v) slots;
  c.Cpu.regs.(14) <- Layout.return_sentinel;
  c.Cpu.n <- cpu.Cpu.n;
  c.Cpu.z <- cpu.Cpu.z;
  c.Cpu.c <- cpu.Cpu.c;
  c.Cpu.v <- cpu.Cpu.v;
  c.Cpu.mode <- cpu.Cpu.mode;
  let run = Exec.run_create () in
  Array.iter
    (fun (a, insn, size) -> Exec.step_into run c mem ~addr:a insn size)
    fn.f_body;
  (Cpu.reg c 0, Cpu.reg c 1)

(* Write the summary's taint effect into the engine: each (rd, mask) pair's
   post-taint is the union of the *entry* taints the mask names — the same
   state the emulated body would leave behind (shadow registers are not
   restored on return). *)
let apply_masks engine pairs =
  let entry = Array.init 16 (fun r -> Taint_engine.reg engine r) in
  Array.iter
    (fun (rd, mask) ->
      let tag = ref Taint.clear in
      for r = 0 to 15 do
        if mask land (1 lsl r) <> 0 then tag := Taint.union !tag entry.(r)
      done;
      Taint_engine.set_reg engine rd !tag)
    pairs

(* ---- persistence (digest-keyed, via the pipeline result cache) ---- *)

let load_hook : (string -> string option) ref = ref (fun _ -> None)
let save_hook : (string -> string -> unit) ref = ref (fun _ _ -> ())

let set_persistence ~load ~save =
  load_hook := load;
  save_hook := save

let verdict_to_json = function
  | Exact -> Json.Str "exact"
  | Emulate reason -> Json.Obj [ ("emulate", Json.Str reason) ]

let verdict_of_json = function
  | Json.Str "exact" -> Some Exact
  | Json.Obj _ as o -> (
    match Json.member "emulate" o with
    | Some (Json.Str reason) -> Some (Emulate reason)
    | _ -> None)
  | _ -> None

let fn_to_json f =
  Json.Obj
    [ ("name", Json.Str f.f_name);
      ("addr", Json.Int f.f_addr);
      ("len", Json.Int f.f_len);
      ("verdict", verdict_to_json f.f_verdict) ]

let to_json l =
  let fns = Hashtbl.fold (fun _ f acc -> f :: acc) l.l_fns [] in
  let fns = List.sort (fun a b -> compare a.f_addr b.f_addr) fns in
  Json.Obj
    [ ("digest", Json.Str l.l_digest);
      ("fns", Json.List (List.map fn_to_json fns)) ]

(* The codec stores metadata only: instruction arrays and masks are
   re-derived by decoding the (digest-verified) image, which cannot
   disagree with a fresh derivation. *)
let of_json mem prog j =
  let open Json in
  match (member "digest" j, member "fns" j) with
  | Some (Str digest), Some (List fns) when digest = digest_of prog -> (
    let cpu = Cpu.create () in
    cpu.Cpu.mode <- Asm.mode prog;
    let tbl = Hashtbl.create 16 in
    let ok = ref true in
    List.iter
      (fun fj ->
        match (member "name" fj, member "addr" fj, member "verdict" fj) with
        | Some (Str name), Some (Int addr), Some vj -> (
          match verdict_of_json vj with
          | Some (Emulate reason) ->
            let len =
              match member "len" fj with Some (Int n) -> n | _ -> 0
            in
            Hashtbl.replace tbl addr (emulate name addr len reason)
          | Some Exact ->
            (* rebuild body + masks from the image itself *)
            Hashtbl.replace tbl addr (summarize cpu mem ~name addr)
          | None -> ok := false)
        | _ -> ok := false)
      fns;
    if not !ok then None
    else
      Some
        { l_digest = digest;
          l_mode = Asm.mode prog;
          l_base = Asm.base prog;
          l_limit = Asm.base prog + Asm.size prog - 1;
          l_fns = tbl;
          l_dirty = false })
  | _ -> None

let derive_cached mem prog =
  let digest = digest_of prog in
  match !load_hook digest with
  | Some payload -> (
    match Json.of_string payload with
    | Ok j -> (
      match of_json mem prog j with
      | Some l -> l
      | None -> derive mem prog)
    | Error _ -> derive mem prog)
  | None ->
    let l = derive mem prog in
    !save_hook digest (Json.to_string (to_json l));
    l
