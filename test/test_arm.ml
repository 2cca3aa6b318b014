(* ARM/Thumb: encode/decode roundtrips, executor semantics, flags. *)

module Insn = Ndroid_arm.Insn
module Encode = Ndroid_arm.Encode
module Decode = Ndroid_arm.Decode
module Thumb = Ndroid_arm.Thumb
module Cpu = Ndroid_arm.Cpu
module Memory = Ndroid_arm.Memory
module Exec = Ndroid_arm.Exec
module Asm = Ndroid_arm.Asm

let insn = Alcotest.testable Insn.pp ( = )

(* ---- roundtrips ---- *)

let roundtrip i =
  let w = Encode.encode i in
  match Decode.decode w with
  | Some i' -> Alcotest.check insn (Insn.to_string i) i i'
  | None -> Alcotest.failf "decode failed for %s (0x%08x)" (Insn.to_string i) w

let test_dp_roundtrip () =
  List.iter roundtrip
    [ Insn.adds Insn.r0 Insn.r1 (Insn.Reg Insn.r2);
      Insn.sub Insn.r3 Insn.r4 (Insn.Imm 0xFF);
      Insn.mov Insn.r5 (Insn.Imm 0xFF000000);
      Insn.mvn Insn.r6 (Insn.Reg Insn.r7);
      Insn.orr Insn.r1 Insn.r1 (Insn.Reg_shift_imm (Insn.r2, Insn.LSL, 4));
      Insn.eor Insn.r1 Insn.r1 (Insn.Reg_shift_reg (Insn.r2, Insn.ROR, Insn.r3));
      Insn.cmp Insn.r0 (Insn.Imm 10);
      Insn.tst Insn.r1 (Insn.Reg Insn.r2);
      Insn.bic Insn.r1 Insn.r2 (Insn.Imm 0xF0) ]

let test_conditional_roundtrip () =
  List.iter roundtrip
    [ Insn.Dp { cond = Insn.NE; op = Insn.ADD; s = false; rd = 0; rn = 1;
                op2 = Insn.Imm 1 };
      Insn.B { cond = Insn.GT; link = false; offset = -10 };
      Insn.Mem { cond = Insn.LS; load = true; width = Insn.Word; rd = 2; rn = 3;
                 offset = Insn.Off_imm 8; pre = true; writeback = false } ]

let test_mem_roundtrip () =
  List.iter roundtrip
    [ Insn.ldr 0 1 4;
      Insn.str 2 3 (-8);
      Insn.ldrb 4 5 0;
      Insn.strb 6 7 255;
      Insn.ldrh 0 1 6;
      Insn.strh 2 3 (-6);
      Insn.Mem { cond = Insn.AL; load = true; width = Insn.Word; rd = 0; rn = 1;
                 offset = Insn.Off_reg (true, 2, Insn.LSL, 2); pre = true;
                 writeback = false };
      Insn.Mem { cond = Insn.AL; load = false; width = Insn.Word; rd = 0; rn = 13;
                 offset = Insn.Off_imm (-4); pre = true; writeback = true } ]

let test_block_branch_roundtrip () =
  List.iter roundtrip
    [ Insn.push [ Insn.r4; Insn.r5; Insn.lr ];
      Insn.pop [ Insn.r4; Insn.r5; Insn.pc ];
      Insn.Block { cond = Insn.AL; load = true; rn = 2; mode = Insn.IB;
                   writeback = false; regs = 0xF0 };
      Insn.B { cond = Insn.AL; link = true; offset = 1000 };
      Insn.bx_lr;
      Insn.blx_reg 12;
      Insn.svc 0x42;
      Insn.mul 0 1 2;
      Insn.mla 0 1 2 3 ]

let test_vfp_roundtrip () =
  List.iter roundtrip
    [ Insn.Vdp { cond = Insn.AL; op = Insn.VADD; prec = Insn.F32; vd = 1; vn = 2; vm = 3 };
      Insn.Vdp { cond = Insn.AL; op = Insn.VSUB; prec = Insn.F64; vd = 4; vn = 5; vm = 6 };
      Insn.Vdp { cond = Insn.AL; op = Insn.VMUL; prec = Insn.F32; vd = 31; vn = 0; vm = 15 };
      Insn.Vdp { cond = Insn.AL; op = Insn.VDIV; prec = Insn.F64; vd = 7; vn = 8; vm = 9 };
      Insn.Vmem { cond = Insn.AL; load = true; prec = Insn.F64; vd = 2; rn = 1; offset = 16 };
      Insn.Vmem { cond = Insn.AL; load = false; prec = Insn.F32; vd = 9; rn = 13; offset = -8 };
      Insn.Vmov_core { cond = Insn.AL; to_core = true; rt = 3; sn = 17 };
      Insn.Vmov_core { cond = Insn.AL; to_core = false; rt = 0; sn = 1 };
      Insn.Vcvt { cond = Insn.AL; to_double = true; vd = 3; vm = 7 };
      Insn.Vcvt { cond = Insn.AL; to_double = false; vd = 6; vm = 2 };
      Insn.Vcvt_int { cond = Insn.AL; to_float = true; prec = Insn.F64; vd = 1; vm = 2 };
      Insn.Vcvt_int { cond = Insn.AL; to_float = false; prec = Insn.F32; vd = 4; vm = 5 } ]

let test_imm_encodable () =
  Alcotest.(check bool) "255" true (Encode.imm_encodable 255);
  Alcotest.(check bool) "0xFF000000" true (Encode.imm_encodable 0xFF000000);
  Alcotest.(check bool) "0x101" false (Encode.imm_encodable 0x101);
  Alcotest.check_raises "unencodable raises"
    (Encode.Encode_error "immediate 257 not encodable as rotated imm8")
    (fun () -> ignore (Encode.encode (Insn.mov 0 (Insn.Imm 257))))

(* random dp instruction generator for the roundtrip property *)
let dp_gen =
  let open QCheck.Gen in
  let reg = int_bound 15 in
  let op2 =
    oneof
      [ map (fun r -> Insn.Reg r) reg;
        map (fun b -> Insn.Imm (b land 0xFF)) (int_bound 255);
        map3 (fun r k n -> Insn.Reg_shift_imm (r, k, n)) reg
          (oneofl [ Insn.LSL; Insn.LSR; Insn.ASR; Insn.ROR ])
          (int_range 1 31) ]
  in
  let op =
    oneofl
      [ Insn.AND; Insn.EOR; Insn.SUB; Insn.RSB; Insn.ADD; Insn.ADC; Insn.SBC;
        Insn.RSC; Insn.ORR; Insn.BIC; Insn.MOV; Insn.MVN ]
  in
  map3
    (fun op (rd, rn) (op2, s) ->
      Insn.Dp { cond = Insn.AL; op; s; rd; rn = (if Insn.is_move_op op then 0 else rn); op2 })
    op (pair reg reg) (pair op2 bool)

let prop_dp_roundtrip =
  QCheck.Test.make ~name:"random data-processing roundtrip" ~count:500
    (QCheck.make dp_gen ~print:Insn.to_string)
    (fun i -> Decode.decode (Encode.encode i) = Some i)

(* ---- Thumb roundtrips ---- *)

let thumb_roundtrip i =
  match Thumb.encode i with
  | None -> Alcotest.failf "no thumb encoding for %s" (Insn.to_string i)
  | Some halves -> (
    match Thumb.decode (List.hd halves) (List.nth_opt halves 1) with
    | Some (i', size) ->
      Alcotest.check insn (Insn.to_string i) i i';
      Alcotest.(check int) "size" (2 * List.length halves) size
    | None -> Alcotest.failf "thumb decode failed for %s" (Insn.to_string i))

let test_thumb_roundtrip () =
  List.iter thumb_roundtrip
    [ Insn.movs 0 (Insn.Imm 42);
      Insn.adds 1 1 (Insn.Imm 200);
      Insn.subs 2 2 (Insn.Imm 3);
      Insn.adds 0 1 (Insn.Reg 2);
      Insn.subs 3 4 (Insn.Reg 5);
      Insn.Dp { cond = Insn.AL; op = Insn.MOV; s = true; rd = 2; rn = 0;
                op2 = Insn.Reg_shift_imm (1, Insn.LSL, 4) };
      Insn.Dp { cond = Insn.AL; op = Insn.CMP; s = true; rd = 0; rn = 3;
                op2 = Insn.Imm 9 };
      Insn.Dp { cond = Insn.AL; op = Insn.AND; s = true; rd = 1; rn = 1;
                op2 = Insn.Reg 2 };
      Insn.Dp { cond = Insn.AL; op = Insn.MVN; s = true; rd = 1; rn = 0;
                op2 = Insn.Reg 2 };
      Insn.ldr 1 2 16;
      Insn.strb 0 1 7;
      Insn.ldrh 3 4 12;
      Insn.push [ Insn.r4; Insn.lr ];
      Insn.pop [ Insn.r4; Insn.pc ];
      Insn.B { cond = Insn.AL; link = false; offset = -4 };
      Insn.B { cond = Insn.NE; link = false; offset = 8 };
      Insn.B { cond = Insn.AL; link = true; offset = 100 };
      Insn.bx_lr;
      Insn.svc 7 ]

let test_thumb_unsupported () =
  Alcotest.(check bool) "no shift-by-hi-reg encoding" false
    (Thumb.encodable (Insn.adds 9 9 (Insn.Reg 10)))

(* ---- executor semantics ---- *)

let run_program ?(fuel = 100_000) items check =
  let prog = Asm.assemble ~base:0x1000 items in
  let mem = Memory.create () in
  Asm.load prog mem;
  let cpu = Cpu.create () in
  Cpu.set_pc cpu 0x1000;
  Cpu.set_sp cpu 0x20000;
  Cpu.set_reg cpu 14 0xFFFF0000;
  let rec go n =
    if Cpu.pc cpu = 0xFFFF0000 then ()
    else if n > fuel then Alcotest.fail "program did not terminate"
    else begin
      ignore (Exec.step cpu mem);
      go (n + 1)
    end
  in
  go 0;
  check cpu mem

let test_exec_sum_loop () =
  run_program
    [ Asm.I (Insn.mov 0 (Insn.Imm 0));
      Asm.I (Insn.mov 1 (Insn.Imm 100));
      Asm.Label "loop";
      Asm.I (Insn.add 0 0 (Insn.Reg 1));
      Asm.I (Insn.subs 1 1 (Insn.Imm 1));
      Asm.Br (Insn.NE, "loop");
      Asm.I Insn.bx_lr ]
    (fun cpu _ -> Alcotest.(check int) "sum 1..100" 5050 (Cpu.reg cpu 0))

let test_exec_flags_carry () =
  run_program
    [ Asm.Li (0, 0xFFFFFFFF);
      Asm.I (Insn.adds 0 0 (Insn.Imm 1));
      Asm.I (Insn.adc 1 1 (Insn.Imm 0));
      Asm.I Insn.bx_lr ]
    (fun cpu _ ->
      Alcotest.(check int) "wrapped" 0 (Cpu.reg cpu 0);
      Alcotest.(check int) "carry propagated" 1 (Cpu.reg cpu 1))

let test_exec_signed_overflow () =
  run_program
    [ Asm.Li (0, 0x7FFFFFFF);
      Asm.I (Insn.adds 0 0 (Insn.Imm 1));
      (* 0x7FFFFFFF + 1: N=1 and V=1, so N=V — GE passes, LT fails *)
      Asm.I (Insn.Dp { cond = Insn.LT; op = Insn.MOV; s = false; rd = 1; rn = 0;
                       op2 = Insn.Imm 1 });
      Asm.I (Insn.Dp { cond = Insn.GE; op = Insn.MOV; s = false; rd = 2; rn = 0;
                       op2 = Insn.Imm 1 });
      Asm.I (Insn.Dp { cond = Insn.MI; op = Insn.MOV; s = false; rd = 3; rn = 0;
                       op2 = Insn.Imm 1 });
      Asm.I (Insn.Dp { cond = Insn.VS; op = Insn.MOV; s = false; rd = 4; rn = 0;
                       op2 = Insn.Imm 1 });
      Asm.I Insn.bx_lr ]
    (fun cpu _ ->
      Alcotest.(check int) "LT skipped" 0 (Cpu.reg cpu 1);
      Alcotest.(check int) "GE taken" 1 (Cpu.reg cpu 2);
      Alcotest.(check int) "MI taken (negative)" 1 (Cpu.reg cpu 3);
      Alcotest.(check int) "VS taken (overflow)" 1 (Cpu.reg cpu 4))

let test_exec_mem_and_push_pop () =
  run_program
    [ Asm.I (Insn.mov 0 (Insn.Imm 0xAB));
      Asm.I (Insn.strb 0 13 (-1));
      Asm.I (Insn.ldrb 1 13 (-1));
      Asm.Li (2, 0x12345678);
      Asm.I (Insn.push [ 2 ]);
      Asm.I (Insn.pop [ 3 ]);
      Asm.I Insn.bx_lr ]
    (fun cpu _ ->
      Alcotest.(check int) "byte roundtrip" 0xAB (Cpu.reg cpu 1);
      Alcotest.(check int) "push/pop" 0x12345678 (Cpu.reg cpu 3);
      Alcotest.(check int) "sp balanced" 0x20000 (Cpu.sp cpu))

let test_exec_mul_shift () =
  run_program
    [ Asm.I (Insn.mov 1 (Insn.Imm 7));
      Asm.I (Insn.mov 2 (Insn.Imm 6));
      Asm.I (Insn.mul 0 1 2);
      Asm.I (Insn.mla 3 1 2 1);
      Asm.I (Insn.mov 4 (Insn.Reg_shift_imm (0, Insn.LSL, 3)));
      Asm.I (Insn.mov 5 (Insn.Reg_shift_imm (0, Insn.LSR, 1)));
      Asm.I Insn.bx_lr ]
    (fun cpu _ ->
      Alcotest.(check int) "mul" 42 (Cpu.reg cpu 0);
      Alcotest.(check int) "mla" 49 (Cpu.reg cpu 3);
      Alcotest.(check int) "lsl" 336 (Cpu.reg cpu 4);
      Alcotest.(check int) "lsr" 21 (Cpu.reg cpu 5))

let test_exec_vfp () =
  run_program
    [ Asm.Li (1, 0x40000000) (* 2.0f *);
      Asm.I (Insn.Vmov_core { cond = Insn.AL; to_core = false; rt = 1; sn = 0 });
      Asm.Li (1, 0x40400000) (* 3.0f *);
      Asm.I (Insn.Vmov_core { cond = Insn.AL; to_core = false; rt = 1; sn = 1 });
      Asm.I (Insn.Vdp { cond = Insn.AL; op = Insn.VMUL; prec = Insn.F32; vd = 2;
                        vn = 0; vm = 1 });
      Asm.I (Insn.Vmov_core { cond = Insn.AL; to_core = true; rt = 0; sn = 2 });
      Asm.I Insn.bx_lr ]
    (fun cpu _ ->
      Alcotest.(check int) "2.0f * 3.0f = 6.0f" 0x40C00000 (Cpu.reg cpu 0))

let test_exec_thumb_interworking () =
  (* ARM code BX-calls a Thumb function and gets a result back *)
  let thumb =
    Asm.assemble ~mode:Cpu.Thumb ~base:0x3000
      [ Asm.Label "double_it";
        Asm.I (Insn.adds 0 0 (Insn.Reg 0));
        Asm.I Insn.bx_lr ]
  in
  let arm =
    Asm.assemble ~base:0x1000
      [ Asm.I (Insn.mov 0 (Insn.Imm 21));
        Asm.Li (4, Asm.fn_addr thumb "double_it");
        Asm.I (Insn.push [ Insn.lr ]);
        Asm.I (Insn.blx_reg 4);
        Asm.I (Insn.pop [ Insn.pc ]) ]
  in
  let mem = Memory.create () in
  Asm.load thumb mem;
  Asm.load arm mem;
  let cpu = Cpu.create () in
  Cpu.set_pc cpu 0x1000;
  Cpu.set_sp cpu 0x20000;
  Cpu.set_reg cpu 14 0xFFFF0000;
  let rec go n =
    if Cpu.pc cpu = 0xFFFF0000 then ()
    else if n > 1000 then Alcotest.fail "runaway"
    else begin
      ignore (Exec.step cpu mem);
      go (n + 1)
    end
  in
  go 0;
  Alcotest.(check int) "thumb doubled" 42 (Cpu.reg cpu 0);
  Alcotest.(check bool) "back in ARM mode" true (cpu.Cpu.mode = Cpu.Arm)

let test_memory_primitives () =
  let mem = Memory.create () in
  Memory.write_u32 mem 0x100 0xDEADBEEF;
  Alcotest.(check int) "u32" 0xDEADBEEF (Memory.read_u32 mem 0x100);
  Alcotest.(check int) "u16 lo" 0xBEEF (Memory.read_u16 mem 0x100);
  Alcotest.(check int) "u8" 0xAD (Memory.read_u8 mem 0x102);
  Memory.write_cstring mem 0x200 "hello";
  Alcotest.(check string) "cstring" "hello" (Memory.read_cstring mem 0x200);
  Memory.write_f64 mem 0x300 3.25;
  Alcotest.(check (float 0.0)) "f64" 3.25 (Memory.read_f64 mem 0x300);
  Memory.write_f32 mem 0x310 1.5;
  Alcotest.(check (float 0.0)) "f32" 1.5 (Memory.read_f32 mem 0x310)

let test_icache () =
  let c = Ndroid_arm.Icache.create () in
  Alcotest.(check bool) "miss" true (Ndroid_arm.Icache.find c 0x1000 Cpu.Arm = None);
  Ndroid_arm.Icache.store c 0x1000 Cpu.Arm (Insn.bx_lr, 4);
  Alcotest.(check bool) "hit" true (Ndroid_arm.Icache.find c 0x1000 Cpu.Arm <> None);
  Alcotest.(check int) "hits" 1 (Ndroid_arm.Icache.hits c);
  Alcotest.(check int) "misses" 1 (Ndroid_arm.Icache.misses c)

(* ---- decode-cache growth ---- *)

module Icache = Ndroid_arm.Icache

let arm_entry = (Insn.bx_lr, 4)
let thumb_entry = (Insn.mov 0 (Insn.Imm 1), 2)

let hit c addr mode = Icache.lookup c addr mode >= 0

(* What the trace loop does per fetch: look up, and decode and store on a
   miss. *)
let fetch c addr mode entry =
  if not (hit c addr mode) then Icache.store c addr mode entry

(* Sixteen instructions 128 bytes apart share one slot of the initial
   64-slot table.  A table that grew only once it filled would never
   fill, and miss on every fetch; growing on the evicting store costs no
   miss beyond the first fetch of each instruction. *)
let test_icache_colliding_loop () =
  let c = Icache.create () in
  let initial = Icache.slots c in
  let addrs = List.init 16 (fun i -> 0x8000 + (128 * i)) in
  let rounds = 100 in
  for _ = 1 to rounds do
    List.iter (fun a -> fetch c a Cpu.Arm arm_entry) addrs
  done;
  let distinct = List.length addrs in
  Alcotest.(check bool) "grew" true (Icache.slots c > initial);
  Alcotest.(check bool) "not past what separates them" true
    (Icache.slots c <= 1024);
  Alcotest.(check bool) "misses bounded by twice the distinct instructions"
    true
    (Icache.misses c <= 2 * distinct);
  Alcotest.(check int) "the full-size hit count" ((rounds - 1) * distinct)
    (Icache.hits c)

let test_icache_growth_keeps_invalidation () =
  let c = Icache.create () in
  let a = 0x8000 in
  Icache.store c a Cpu.Arm arm_entry;
  let before = Icache.slots c in
  (* evicting [a] grows the table and re-inserts it *)
  Icache.store c (a + (2 * before)) Cpu.Arm arm_entry;
  Alcotest.(check bool) "grew" true (Icache.slots c > before);
  Alcotest.(check bool) "re-inserted" true (hit c a Cpu.Arm);
  Icache.invalidate c (a + 2) 1;
  Alcotest.(check bool) "dropped by a write into its bytes" false
    (hit c a Cpu.Arm);
  Alcotest.(check bool) "its neighbour stays" true
    (hit c (a + (2 * before)) Cpu.Arm)

let test_icache_growth_keeps_modes () =
  let c = Icache.create () in
  let a = 0x8000 in
  (* an ARM word and a Thumb halfword over its upper two bytes *)
  Icache.store c a Cpu.Arm arm_entry;
  Icache.store c (a + 2) Cpu.Thumb thumb_entry;
  let before = Icache.slots c in
  Icache.store c (a + (2 * before)) Cpu.Arm arm_entry;
  Alcotest.(check bool) "grew" true (Icache.slots c > before);
  (* entries are told apart by their sizes: 4 for ARM, 2 for Thumb *)
  let size addr mode = Option.map snd (Icache.find c addr mode) in
  let check = Alcotest.(check (option int)) in
  check "ARM entry" (Some 4) (size a Cpu.Arm);
  check "Thumb entry" (Some 2) (size (a + 2) Cpu.Thumb);
  check "no Thumb entry at the ARM address" None (size a Cpu.Thumb);
  check "no ARM entry at the Thumb address" None (size (a + 2) Cpu.Arm);
  (* the same bytes in the other mode share a slot: a replacement, never
     a reason to grow *)
  let grown = Icache.slots c in
  Icache.store c a Cpu.Thumb thumb_entry;
  Alcotest.(check int) "same bytes, other mode: no growth" grown
    (Icache.slots c);
  check "Thumb replaced ARM" (Some 2) (size a Cpu.Thumb);
  check "ARM gone" None (size a Cpu.Arm)

let suite =
  [ Alcotest.test_case "dp roundtrip" `Quick test_dp_roundtrip;
    Alcotest.test_case "conditional roundtrip" `Quick test_conditional_roundtrip;
    Alcotest.test_case "mem roundtrip" `Quick test_mem_roundtrip;
    Alcotest.test_case "block/branch roundtrip" `Quick test_block_branch_roundtrip;
    Alcotest.test_case "vfp roundtrip" `Quick test_vfp_roundtrip;
    Alcotest.test_case "imm encodability" `Quick test_imm_encodable;
    Alcotest.test_case "thumb roundtrip" `Quick test_thumb_roundtrip;
    Alcotest.test_case "thumb unsupported" `Quick test_thumb_unsupported;
    Alcotest.test_case "exec: sum loop" `Quick test_exec_sum_loop;
    Alcotest.test_case "exec: carry chain" `Quick test_exec_flags_carry;
    Alcotest.test_case "exec: signed overflow" `Quick test_exec_signed_overflow;
    Alcotest.test_case "exec: memory + push/pop" `Quick test_exec_mem_and_push_pop;
    Alcotest.test_case "exec: mul + shifts" `Quick test_exec_mul_shift;
    Alcotest.test_case "exec: vfp" `Quick test_exec_vfp;
    Alcotest.test_case "exec: ARM/Thumb interworking" `Quick
      test_exec_thumb_interworking;
    Alcotest.test_case "memory primitives" `Quick test_memory_primitives;
    Alcotest.test_case "icache" `Quick test_icache;
    QCheck_alcotest.to_alcotest prop_dp_roundtrip;
    Alcotest.test_case "icache: a colliding loop grows to full-size hits"
      `Quick test_icache_colliding_loop;
    Alcotest.test_case "icache: growth keeps code-write invalidation" `Quick
      test_icache_growth_keeps_invalidation;
    Alcotest.test_case "icache: ARM and Thumb entries survive growth" `Quick
      test_icache_growth_keeps_modes ]
