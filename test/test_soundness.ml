(* Soundness of the Table V rules on explicit flows.

   Non-interference check: generate a random straight-line program, mark one
   input register as tainted, execute it twice with two different input
   values while running the taint engine alongside one execution.  Every
   register or memory word whose final value differs between the two runs is
   data-dependent on the input — so the engine must have tainted it.

   This is exactly the guarantee the paper claims for explicit flows
   ("decreases the false negatives related to native codes by carefully
   tracking information flows"), and exactly what the Sec. VII evasion
   forfeits: the generator uses no conditional execution, so all flows here
   are explicit. *)

module Insn = Ndroid_arm.Insn
module Cpu = Ndroid_arm.Cpu
module Memory = Ndroid_arm.Memory
module Exec = Ndroid_arm.Exec
module Asm = Ndroid_arm.Asm
module Taint = Ndroid_taint.Taint
module Taint_engine = Ndroid_emulator.Taint_engine
module Insn_taint = Ndroid_emulator.Insn_taint

let scratch_base = 0x00050000
let input_reg = 2

(* straight-line instructions over r0..r7, plus loads/stores through the
   fixed base r11 (whose value never depends on the input) *)
let insn_gen =
  let open QCheck.Gen in
  let reg = int_bound 7 in
  let off = map (fun n -> (n land 0x3F) * 4) (int_bound 255) in
  let op =
    oneofl
      [ Insn.ADD; Insn.SUB; Insn.EOR; Insn.ORR; Insn.AND; Insn.ADC; Insn.SBC;
        Insn.RSB; Insn.BIC ]
  in
  frequency
    [ (4, map3 (fun op (rd, rn) rm ->
              Insn.Dp { cond = Insn.AL; op; s = false; rd; rn; op2 = Insn.Reg rm })
            op (pair reg reg) reg);
      (2, map3 (fun op (rd, rn) imm ->
              Insn.Dp { cond = Insn.AL; op; s = false; rd; rn;
                        op2 = Insn.Imm (imm land 0xFF) })
            op (pair reg reg) (int_bound 255));
      (2, map2 (fun rd rm -> Insn.mov rd (Insn.Reg rm)) reg reg);
      (1, map2 (fun rd imm -> Insn.mov rd (Insn.Imm (imm land 0xFF))) reg
            (int_bound 255));
      (2, map3 (fun rd rm amount ->
              Insn.Dp { cond = Insn.AL; op = Insn.MOV; s = false; rd; rn = 0;
                        op2 = Insn.Reg_shift_imm (rm, Insn.LSL, 1 + (amount mod 8)) })
            reg reg (int_bound 7));
      (2, map3 (fun rd rm rs -> Insn.mul rd rm rs) reg reg reg);
      (2, map2 (fun rd o -> Insn.ldr rd 11 o) reg off);
      (2, map2 (fun rd o -> Insn.str rd 11 o) reg off);
      (1, map2 (fun rd rm -> Insn.clz rd rm) reg reg) ]

let program_gen = QCheck.Gen.(list_size (int_range 5 40) insn_gen)

let print_program p = String.concat "; " (List.map Insn.to_string p)

(* run the program from a fixed initial state with [input] in r2; return the
   final registers and scratch memory *)
let run_with ?engine program input =
  let prog = Asm.assemble ~base:0x1000 (List.map (fun i -> Asm.I i) program) in
  let mem = Memory.create () in
  Asm.load prog mem;
  let cpu = Cpu.create () in
  for r = 0 to 7 do
    Cpu.set_reg cpu r (0x100 + (7 * r))
  done;
  Cpu.set_reg cpu 11 scratch_base;
  Cpu.set_reg cpu input_reg input;
  Cpu.set_pc cpu 0x1000;
  let stop = 0x1000 + (4 * List.length program) in
  while Cpu.pc cpu <> stop do
    (match engine with
     | Some e ->
       let insn, _ = Exec.fetch_decode cpu mem (Cpu.pc cpu) in
       Insn_taint.step e cpu ~addr:(Cpu.pc cpu) insn
     | None -> ());
    ignore (Exec.step cpu mem)
  done;
  let regs = Array.init 8 (fun r -> Cpu.reg cpu r) in
  let memory = Array.init 64 (fun i -> Memory.read_u32 mem (scratch_base + (4 * i))) in
  (regs, memory)

let check_non_interference program =
  let engine = Taint_engine.create () in
  Taint_engine.set_reg engine input_reg Taint.imei;
  let regs_a, mem_a = run_with ~engine program 0x1234567 in
  let regs_b, mem_b = run_with program 0x89ABCDE in
  let ok = ref true in
  Array.iteri
    (fun r va ->
      if va <> regs_b.(r) && Taint.is_clear (Taint_engine.reg engine r) then
        ok := false)
    regs_a;
  Array.iteri
    (fun i va ->
      if va <> mem_b.(i)
         && Taint.is_clear (Taint_engine.mem engine (scratch_base + (4 * i)) 4)
      then ok := false)
    mem_a;
  !ok

let prop_non_interference =
  QCheck.Test.make ~name:"explicit flows are always tainted (non-interference)"
    ~count:400
    (QCheck.make program_gen ~print:print_program)
    check_non_interference

(* the dual direction, statistically: programs that never read the input
   should end fully clean (no overtainting from nowhere) *)
let prop_no_overtaint_without_input =
  QCheck.Test.make ~name:"programs that ignore the input stay clean" ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (int_range 5 30)
                     (map3
                        (fun op (rd, rn) imm ->
                          Insn.Dp { cond = Insn.AL; op; s = false;
                                    rd = (rd land 1); rn = (rn land 1);
                                    op2 = Insn.Imm (imm land 0xFF) })
                        (oneofl [ Insn.ADD; Insn.EOR; Insn.ORR ])
                        (pair (int_bound 7) (int_bound 7))
                        (int_bound 255)))
       ~print:print_program)
    (fun program ->
      (* only r0/r1 are touched and the input lives in r2 *)
      let engine = Taint_engine.create () in
      Taint_engine.set_reg engine input_reg Taint.imei;
      ignore (run_with ~engine program 0xAAAA);
      Taint.is_clear (Taint_engine.reg engine 0)
      && Taint.is_clear (Taint_engine.reg engine 1))

let suite =
  [ QCheck_alcotest.to_alcotest prop_non_interference;
    QCheck_alcotest.to_alcotest prop_no_overtaint_without_input ]

(* ---- interpreter robustness fuzz: random bytecode either terminates with
   a value or raises a *Java-level* error, never an OCaml crash ---- *)

module Vm = Ndroid_dalvik.Vm
module Interp = Ndroid_dalvik.Interp
module J = Ndroid_dalvik.Jbuilder
module B = Ndroid_dalvik.Bytecode
module Dvalue = Ndroid_dalvik.Dvalue

let bytecode_gen =
  let open QCheck.Gen in
  let reg = int_bound 5 in
  let op = oneofl [ B.Add; B.Sub; B.Mul; B.Div; B.And; B.Or; B.Xor ] in
  list_size (int_range 1 25)
    (frequency
       [ (4, map3 (fun op (d, a) b -> B.Binop (op, d, a, b)) op (pair reg reg) reg);
         (3, map2 (fun r v -> B.Const (r, Dvalue.Int (Int32.of_int v))) reg
               (int_bound 1000));
         (2, map2 (fun d s -> B.Move (d, s)) reg reg);
         (1, map2 (fun d n -> B.New_array (d, n, "I")) reg reg);
         (1, map3 (fun v a i -> B.Aget (v, a, i)) reg reg reg);
         (1, map3 (fun v a i -> B.Aput (v, a, i)) reg reg reg);
         (1, map (fun r -> B.Array_length (r, r)) reg);
         (1, map (fun r -> B.Throw r) reg) ])

let prop_interp_never_crashes =
  QCheck.Test.make ~name:"random bytecode never crashes the VM" ~count:300
    (QCheck.make bytecode_gen
       ~print:(fun p -> String.concat "; " (List.map B.to_string p)))
    (fun insns ->
      let vm = Vm.create () in
      Ndroid_android.Framework.install vm;
      let m =
        J.method_ ~cls:"LFuzz;" ~name:"m" ~shorty:"I" ~registers:6
          (List.map (fun i -> J.I i) insns @ [ J.I (B.Return 0) ])
      in
      Vm.define_class vm (J.class_ ~name:"LFuzz;" [ m ]);
      match Interp.invoke_by_name vm "LFuzz;" "m" [||] with
      | _ -> true
      | exception Vm.Java_throw _ -> true
      | exception Vm.Dvm_error _ -> true)

let prop_interp_deterministic =
  QCheck.Test.make ~name:"interpretation is deterministic" ~count:100
    (QCheck.make bytecode_gen
       ~print:(fun p -> String.concat "; " (List.map B.to_string p)))
    (fun insns ->
      let run () =
        let vm = Vm.create () in
        Ndroid_android.Framework.install vm;
        let m =
          J.method_ ~cls:"LFuzz;" ~name:"m" ~shorty:"I" ~registers:6
            (List.map (fun i -> J.I i) insns @ [ J.I (B.Return 0) ])
        in
        Vm.define_class vm (J.class_ ~name:"LFuzz;" [ m ]);
        match Interp.invoke_by_name vm "LFuzz;" "m" [||] with
        | Dvalue.Int n, _ -> `Value n
        | _ -> `Other
        | exception Vm.Java_throw _ -> `Thrown
        | exception Vm.Dvm_error _ -> `Error
      in
      run () = run ())

let suite =
  suite
  @ [ QCheck_alcotest.to_alcotest prop_interp_never_crashes;
      QCheck_alcotest.to_alcotest prop_interp_deterministic ]
