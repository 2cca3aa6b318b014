module Cpu = Ndroid_arm.Cpu
module Memory = Ndroid_arm.Memory
module Insn = Ndroid_arm.Insn
module Exec = Ndroid_arm.Exec
module Icache = Ndroid_arm.Icache
module Asm = Ndroid_arm.Asm
module Budget = Ndroid_budget.Budget

type host_fn = { hf_name : string; hf_lib : string; hf_addr : int }

(* Ev_insn and Ev_branch have mutable payloads: the trace loop emits one
   preallocated cell of each per machine, overwriting the fields each step,
   so per-instruction event delivery allocates nothing.  Listeners must read
   the fields during [emit] and never retain the event value. *)
type event =
  | Ev_insn of { mutable addr : int; mutable insn : Insn.t }
  | Ev_branch of { mutable from_ : int; mutable to_ : int;
                   mutable is_call : bool }
  | Ev_host_pre of host_fn
  | Ev_host_post of host_fn
  | Ev_svc of int

exception Runaway of int

(* A host function of an image: [h_charge] spends the budget units its
   arguments ask for beyond the one every call costs (see [step]); both it
   and [h_run] take the context the machine was bound with. *)
type 'ctx host = {
  h_fn : host_fn;
  h_charge : 'ctx -> Budget.t -> Cpu.t -> Memory.t -> unit;
  h_run : 'ctx -> Cpu.t -> Memory.t -> unit;
}

(* Never written after [image] returns: every domain reads the tables
   without locks. *)
type 'ctx image = {
  i_by_addr : (int, 'ctx host) Hashtbl.t;
  i_by_name : (string, 'ctx host) Hashtbl.t;
  i_fns : host_fn list;  (* in address order *)
  i_lo : int;
  i_hi : int;
}

let no_charge _ _ _ _ = ()

let host ~lib ~name ~addr ?(charge = no_charge) run =
  { h_fn = { hf_name = name; hf_lib = lib; hf_addr = addr }; h_charge = charge;
    h_run = run }

let image hosts =
  let n = List.length hosts in
  let by_addr = Hashtbl.create n and by_name = Hashtbl.create n in
  List.iter
    (fun h ->
      let addr = h.h_fn.hf_addr in
      if Hashtbl.mem by_addr addr then
        invalid_arg (Printf.sprintf "host address 0x%x already taken" addr);
      Hashtbl.replace by_addr addr h;
      Hashtbl.replace by_name h.h_fn.hf_name h)
    hosts;
  let fns =
    List.sort (fun a b -> compare a.hf_addr b.hf_addr)
      (List.map (fun h -> h.h_fn) hosts)
  in
  let addrs = List.map (fun f -> f.hf_addr) fns in
  { i_by_addr = by_addr; i_by_name = by_name; i_fns = fns;
    i_lo = List.fold_left min max_int addrs;
    i_hi = List.fold_left max min_int addrs }

let image_fns img = img.i_fns

(* A machine's host functions: an image and the context its handlers run
   with.  The context's type is the binder's business. *)
type binding = Binding : 'ctx image * 'ctx -> binding

let unbound = Binding (image [], ())

type t = {
  m_cpu : Cpu.t;
  m_mem : Memory.t;
  mutable host : binding;
  (* the image's address bounds, copied here: the trace loop's cheap "can
     this PC possibly be a host function?" gate, so guest code pays no
     hashtable hit per step *)
  mutable host_lo : int;
  mutable host_hi : int;
  mutable listeners : (event -> unit) array;
  mutable icache : Icache.t option;
  mutable insn_count : int;
  mutable host_calls : int;
  mutable libs : (string * int * int) list;
  mutable fuel : int;  (* set by the outermost call_native; -1 = unlimited *)
  budget : Budget.t;  (* the analysis's work budget; see [burn] *)
  mutable host_work : int;
  scratch : Exec.run;  (* reused per-step result; never escapes [step] *)
  ev_insn : event;  (* preallocated Ev_insn cell, fields rewritten per step *)
  ev_branch : event;  (* preallocated Ev_branch cell, likewise *)
}

let create () =
  let cpu = Cpu.create () in
  Cpu.set_sp cpu Layout.stack_top;
  let t =
    { m_cpu = cpu;
      m_mem = Memory.create ();
      host = unbound;
      host_lo = max_int;
      host_hi = min_int;
      listeners = [||];
      icache = Some (Icache.create ());
      insn_count = 0;
      host_calls = 0;
      libs = Layout.regions;
      fuel = -1;
      budget = Budget.current ();
      host_work = 2500;
      scratch = Exec.run_create ();
      ev_insn = Ev_insn { addr = 0; insn = Insn.bx_lr };
      ev_branch = Ev_branch { from_ = 0; to_ = 0; is_call = false } }
  in
  (* a write into loaded code (self-modifying or decrypting code) drops
     the decodes it overlaps *)
  Memory.on_code_write t.m_mem (fun addr len ->
      match t.icache with Some c -> Icache.invalidate c addr len | None -> ());
  t

let bind t img ctx =
  t.host <- Binding (img, ctx);
  t.host_lo <- img.i_lo;
  t.host_hi <- img.i_hi

let cpu t = t.m_cpu
let mem t = t.m_mem

let set_icache_enabled t enabled =
  t.icache <- (if enabled then Some (Icache.create ()) else None)

let set_host_fn_work t n = t.host_work <- max 0 n

(* The stand-in for the instructions a real library function body would
   execute: paid in every configuration. *)
let burn_host_work t =
  let acc = ref 1 in
  for i = 1 to t.host_work do
    acc := (!acc * 33) + i
  done;
  ignore (Sys.opaque_identity !acc)

let icache_stats t =
  match t.icache with
  | Some c -> (Icache.hits c, Icache.misses c)
  | None -> (0, 0)

let host_fn_addr t name =
  match t.host with
  | Binding (img, _) -> (Hashtbl.find img.i_by_name name).h_fn.hf_addr

let find_host_fn t addr =
  match t.host with
  | Binding (img, _) -> (
    match Hashtbl.find_opt img.i_by_addr addr with
    | Some h -> Some h.h_fn
    | None -> None)

(* Listeners live in an array: attaching stays in attachment order without
   the old quadratic list append, and emitting is an allocation-free indexed
   loop. *)
let add_listener t f = t.listeners <- Array.append t.listeners [| f |]
let clear_listeners t = t.listeners <- [||]
let has_listeners t = Array.length t.listeners > 0

let emit t ev =
  let ls = t.listeners in
  for i = 0 to Array.length ls - 1 do
    ls.(i) ev
  done

(* Rewrite the preallocated cells in place and hand them to the listeners. *)
let emit_insn t ~addr ~insn =
  (match t.ev_insn with
   | Ev_insn r ->
     r.addr <- addr;
     r.insn <- insn
   | _ -> assert false);
  emit t t.ev_insn

let emit_branch t ~from_ ~to_ ~is_call =
  if has_listeners t then begin
    (match t.ev_branch with
     | Ev_branch r ->
       r.from_ <- from_;
       r.to_ <- to_;
       r.is_call <- is_call
     | _ -> assert false);
    emit t t.ev_branch
  end

(* Pay for one call of [h] before any listener runs: the listeners repeat
   the call's range work (taint copies, sink inspection). *)
let charge_host t h ctx =
  h.h_charge ctx t.budget t.m_cpu t.m_mem;
  t.host_calls <- t.host_calls + 1;
  burn_host_work t

let call_host t ~from_ name =
  match t.host with
  | Binding (img, ctx) ->
    let h = Hashtbl.find img.i_by_name name in
    let hf = h.h_fn in
    charge_host t h ctx;
    if has_listeners t then begin
      emit_branch t ~from_ ~to_:hf.hf_addr ~is_call:true;
      emit t (Ev_host_pre hf)
    end;
    h.h_run ctx t.m_cpu t.m_mem;
    if has_listeners t then begin
      emit t (Ev_host_post hf);
      emit_branch t ~from_:hf.hf_addr ~to_:(from_ + 4) ~is_call:false
    end

let load_program t prog =
  Asm.load prog t.m_mem;
  (* watch the image so later writes into it (self-modifying or
     decrypting code) invalidate stale decodes and native summaries *)
  Memory.watch_code t.m_mem ~lo:(Asm.base prog)
    ~hi:(Asm.base prog + Asm.size prog - 1);
  t.libs <- t.libs @ [ (Printf.sprintf "lib@%x" (Asm.base prog), Asm.base prog,
                        Asm.size prog) ]

let mask32 = 0xFFFFFFFF

(* Every guest instruction and host call spends one unit of fuel and one
   unit of the work budget: the fuel bounds one [call_native], the budget
   the whole analysis, Dalvik bytecodes included.  The budget unit is
   spent inline, as [Budget.spend] does it. *)
let burn t =
  let f = t.fuel in
  if f >= 0 then begin
    if f = 0 then raise (Runaway t.insn_count);
    t.fuel <- f - 1
  end;
  let b = t.budget in
  let n = b.Budget.tick - 1 in
  b.Budget.tick <- n;
  if n < 0 then Budget.refill b

(* One scheduling quantum: either dispatch a host function or execute one
   guest instruction.  Returns unit; the caller polls the PC.

   Each step decodes at most once: the decode feeds both the Ev_insn
   listeners and execution via Exec.step_decoded.  Host-function dispatch is
   gated by the mounted-address bounds, so ordinary guest instructions skip
   the host hashtable entirely. *)
let step_insn t pc =
  burn t;
  t.insn_count <- t.insn_count + 1;
  let insn, size = Exec.fetch_decode ?icache:t.icache t.m_cpu t.m_mem pc in
  if has_listeners t then begin
    emit_insn t ~addr:pc ~insn;
    let s = t.scratch in
    Exec.step_into s t.m_cpu t.m_mem ~addr:pc insn size;
    (* copy out before emitting: a listener may re-enter [step] (e.g. a
       hook running guest code) and clobber the shared scratch record *)
    let branch_to = s.Exec.r_branch_to in
    let is_call = s.Exec.r_is_call in
    let svc = s.Exec.r_svc in
    if branch_to >= 0 then emit_branch t ~from_:pc ~to_:branch_to ~is_call;
    if svc >= 0 then emit t (Ev_svc svc)
  end
  else Exec.step_into t.scratch t.m_cpu t.m_mem ~addr:pc insn size

let step t =
  let pc = Cpu.pc t.m_cpu in
  if pc >= t.host_lo && pc <= t.host_hi then
    match t.host with
    | Binding (img, ctx) -> (
      match Hashtbl.find_opt img.i_by_addr pc with
      | Some h ->
        let hf = h.h_fn in
        burn t;
        charge_host t h ctx;
        if has_listeners t then emit t (Ev_host_pre hf);
        h.h_run ctx t.m_cpu t.m_mem;
        if has_listeners t then emit t (Ev_host_post hf);
        (* return to the caller, honouring interworking *)
        let ret = Cpu.lr t.m_cpu in
        if ret land 1 = 1 then begin
          t.m_cpu.Cpu.mode <- Cpu.Thumb;
          Cpu.set_pc t.m_cpu (ret land lnot 1)
        end
        else begin
          t.m_cpu.Cpu.mode <- Cpu.Arm;
          Cpu.set_pc t.m_cpu (ret land mask32)
        end;
        emit_branch t ~from_:hf.hf_addr ~to_:(ret land lnot 1) ~is_call:false
      | None -> step_insn t pc)
  else step_insn t pc

let call_native t ?(fuel = 50_000_000) ~addr ~args ?(stack_args = []) () =
  let cpu = t.m_cpu in
  let saved = Cpu.copy cpu in
  let outermost = t.fuel < 0 in
  if outermost then t.fuel <- fuel;
  Fun.protect
    ~finally:(fun () ->
      if outermost then t.fuel <- -1;
      (* restore everything; results were read before the restore *)
      Array.blit saved.Cpu.regs 0 cpu.Cpu.regs 0 16;
      cpu.Cpu.n <- saved.Cpu.n;
      cpu.Cpu.z <- saved.Cpu.z;
      cpu.Cpu.c <- saved.Cpu.c;
      cpu.Cpu.v <- saved.Cpu.v;
      cpu.Cpu.mode <- saved.Cpu.mode;
      Array.blit saved.Cpu.vfp_s 0 cpu.Cpu.vfp_s 0 32;
      Array.blit saved.Cpu.vfp_d 0 cpu.Cpu.vfp_d 0 16)
    (fun () ->
      List.iteri (fun i v -> if i < 4 then Cpu.set_reg cpu i v) args;
      (* excess register args spill to the stack before explicit stack args *)
      let reg_overflow =
        if List.length args > 4 then List.filteri (fun i _ -> i >= 4) args else []
      in
      let pushes = reg_overflow @ stack_args in
      let sp = Cpu.sp cpu - (4 * List.length pushes) in
      List.iteri (fun i v -> Memory.write_u32 t.m_mem (sp + (4 * i)) v) pushes;
      Cpu.set_sp cpu sp;
      Cpu.set_reg cpu 14 Layout.return_sentinel;
      if addr land 1 = 1 then begin
        cpu.Cpu.mode <- Cpu.Thumb;
        Cpu.set_pc cpu (addr land lnot 1)
      end
      else begin
        cpu.Cpu.mode <- Cpu.Arm;
        Cpu.set_pc cpu addr
      end;
      while Cpu.pc cpu <> Layout.return_sentinel do
        step t
      done;
      (Cpu.reg cpu 0, Cpu.reg cpu 1))

let insn_count t = t.insn_count
let host_calls t = t.host_calls
let libs t = t.libs
