(* The system-lib hook engine's taint summaries, function by function
   (Table VI / Listing 3), exercised through real guest calls on an
   NDroid-attached device. *)

module Device = Ndroid_runtime.Device
module Machine = Ndroid_emulator.Machine
module Memory = Ndroid_arm.Memory
module Taint = Ndroid_taint.Taint
module Ndroid = Ndroid_core.Ndroid
module Taint_engine = Ndroid_emulator.Taint_engine
module A = Ndroid_android

let check_taint = Alcotest.testable Taint.pp Taint.equal
let base = 0x30000000

type ctx = {
  device : Device.t;
  machine : Machine.t;
  mem : Memory.t;
  engine : Taint_engine.t;
  nd : Ndroid.t;
}

let fresh () =
  let device = Device.create () in
  let nd = Ndroid.attach device in
  let machine = Device.machine device in
  Machine.set_host_fn_work machine 0;
  { device; machine; mem = Machine.mem machine; engine = Ndroid.engine nd; nd }

let call c name args =
  fst (Machine.call_native c.machine ~addr:(Machine.host_fn_addr c.machine name) ~args ())

(* a tainted C string at [base] *)
let tainted_cstr c ?(tag = Taint.imei) s =
  Memory.write_cstring c.mem base s;
  Taint_engine.add_mem c.engine base (String.length s + 1) tag

let test_memcpy_summary () =
  let c = fresh () in
  tainted_cstr c "secret";
  ignore (call c "memcpy" [ base + 100; base; 7 ]);
  Alcotest.check check_taint "dst tainted" Taint.imei
    (Taint_engine.mem c.engine (base + 100) 7);
  (* byte granularity: beyond the copy stays clean *)
  Alcotest.check check_taint "past dst clean" Taint.clear
    (Taint_engine.mem c.engine (base + 107) 4)

let test_memset_clears_or_taints () =
  let c = fresh () in
  tainted_cstr c "secret";
  (* memset with an untainted fill overwrites the taint *)
  ignore (call c "memset" [ base; Char.code 'x'; 7 ]);
  Alcotest.check check_taint "memset clears" Taint.clear
    (Taint_engine.mem c.engine base 7)

let test_strcpy_strcat () =
  let c = fresh () in
  tainted_cstr c "AB";
  ignore (call c "strcpy" [ base + 50; base ]);
  Alcotest.check check_taint "strcpy" Taint.imei
    (Taint_engine.mem c.engine (base + 50) 3);
  Memory.write_cstring c.mem (base + 100) "xy";
  ignore (call c "strcat" [ base + 100; base ]);
  Alcotest.check check_taint "strcat appended region" Taint.imei
    (Taint_engine.mem c.engine (base + 102) 3);
  Alcotest.(check string) "strcat behaviour" "xyAB"
    (Memory.read_cstring c.mem (base + 100))

let test_strlen_strcmp_return_taint () =
  let c = fresh () in
  tainted_cstr c "hello";
  ignore (call c "strlen" [ base ]);
  Alcotest.check check_taint "strlen r0" Taint.imei (Taint_engine.reg c.engine 0);
  Memory.write_cstring c.mem (base + 50) "hello";
  ignore (call c "strcmp" [ base + 50; base ]);
  Alcotest.check check_taint "strcmp r0" Taint.imei (Taint_engine.reg c.engine 0)

let test_atoi_strtoul () =
  let c = fresh () in
  tainted_cstr c ~tag:Taint.sms "1234";
  let v = call c "atoi" [ base ] in
  Alcotest.(check int) "atoi value" 1234 v;
  Alcotest.check check_taint "atoi taint" Taint.sms (Taint_engine.reg c.engine 0);
  ignore (call c "strtoul" [ base; 0; 10 ]);
  Alcotest.check check_taint "strtoul taint" Taint.sms (Taint_engine.reg c.engine 0)

let test_strdup () =
  let c = fresh () in
  tainted_cstr c "dupme";
  let p = call c "strdup" [ base ] in
  Alcotest.(check string) "dup content" "dupme" (Memory.read_cstring c.mem p);
  Alcotest.check check_taint "dup taint" Taint.imei (Taint_engine.mem c.engine p 6)

let test_malloc_free_hygiene () =
  let c = fresh () in
  let p = call c "malloc" [ 32 ] in
  Taint_engine.add_mem c.engine p 32 Taint.imei;
  ignore (call c "free" [ p ]);
  Alcotest.check check_taint "freed block cleaned" Taint.clear
    (Taint_engine.mem c.engine p 32);
  let p2 = call c "malloc" [ 32 ] in
  Alcotest.(check int) "allocator reuses" p p2;
  Alcotest.check check_taint "fresh block clean" Taint.clear
    (Taint_engine.mem c.engine p2 32)

let test_realloc_moves_taint () =
  let c = fresh () in
  let p = call c "malloc" [ 16 ] in
  Memory.write_cstring c.mem p "0123456789";
  Taint_engine.add_mem c.engine p 11 Taint.contacts;
  let q = call c "realloc" [ p; 64 ] in
  Alcotest.(check bool) "moved" true (q <> p);
  Alcotest.(check string) "content copied" "0123456789" (Memory.read_cstring c.mem q);
  Alcotest.check check_taint "taint copied" Taint.contacts
    (Taint_engine.mem c.engine q 11);
  Alcotest.check check_taint "old site cleaned" Taint.clear
    (Taint_engine.mem c.engine p 11)

let test_sprintf_summary () =
  let c = fresh () in
  tainted_cstr c ~tag:Taint.contacts "Vincent";
  Memory.write_cstring c.mem (base + 50) "name=%s!";
  ignore (call c "sprintf" [ base + 100; base + 50; base ]);
  Alcotest.(check string) "rendered" "name=Vincent!"
    (Memory.read_cstring c.mem (base + 100));
  Alcotest.check check_taint "output tainted" Taint.contacts
    (Taint_engine.mem c.engine (base + 100) 13)

let test_snprintf_truncation () =
  let c = fresh () in
  Memory.write_cstring c.mem (base + 50) "%s";
  tainted_cstr c "abcdefgh";
  let n = call c "snprintf" [ base + 100; 4; base + 50; base ] in
  Alcotest.(check int) "returns full length" 8 n;
  Alcotest.(check string) "truncated output" "abc"
    (Memory.read_cstring c.mem (base + 100))

let test_sscanf_propagates () =
  let c = fresh () in
  tainted_cstr c ~tag:Taint.sms "42 abc";
  Memory.write_cstring c.mem (base + 50) "%d %s";
  let matched = call c "sscanf" [ base; base + 50; base + 100; base + 200 ] in
  Alcotest.(check int) "two conversions" 2 matched;
  Alcotest.(check int) "parsed int" 42 (Memory.read_u32 c.mem (base + 100));
  Alcotest.(check string) "parsed string" "abc" (Memory.read_cstring c.mem (base + 200));
  Alcotest.check check_taint "outputs tainted" Taint.sms
    (Taint_engine.mem c.engine (base + 100) 4)

let test_libm_summary () =
  let c = fresh () in
  (* double in r0:r1 with tainted registers *)
  let bits = Int64.bits_of_float 2.0 in
  let lo = Int64.to_int (Int64.logand bits 0xFFFFFFFFL)
  and hi = Int64.to_int (Int64.shift_right_logical bits 32) in
  let machine = c.machine in
  let addr = Machine.host_fn_addr machine "sqrt" in
  (* taint the argument registers right before the call by tainting via a
     wrapper: call_native resets nothing in the shadow engine, so set them *)
  Taint_engine.set_reg c.engine 0 Taint.location_gps;
  Taint_engine.set_reg c.engine 1 Taint.location_gps;
  ignore (Machine.call_native machine ~addr ~args:[ lo; hi ] ());
  Alcotest.check check_taint "sqrt result tainted" Taint.location_gps
    (Taint_engine.reg c.engine 0)

let test_memcmp_memchr () =
  let c = fresh () in
  tainted_cstr c "needle";
  Memory.write_cstring c.mem (base + 50) "needle";
  ignore (call c "memcmp" [ base; base + 50; 6 ]);
  Alcotest.check check_taint "memcmp result" Taint.imei (Taint_engine.reg c.engine 0);
  ignore (call c "memchr" [ base; Char.code 'd'; 6 ]);
  Alcotest.check check_taint "memchr result" Taint.imei (Taint_engine.reg c.engine 0)

let test_native_sink_fputs () =
  let c = fresh () in
  tainted_cstr c ~tag:Taint.contacts "payload";
  Memory.write_cstring c.mem (base + 50) "/sdcard/out";
  Memory.write_cstring c.mem (base + 70) "w";
  let file = call c "fopen" [ base + 50; base + 70 ] in
  ignore (call c "fputs" [ base; file ]);
  ignore (call c "fclose" [ file ]);
  Alcotest.(check int) "leak recorded" 1
    (A.Sink_monitor.leak_count (Device.monitor c.device));
  Alcotest.(check string) "file written" "payload"
    (A.Filesystem.contents (Device.fs c.device) "/sdcard/out")

let test_untainted_sink_silent () =
  let c = fresh () in
  Memory.write_cstring c.mem base "boring";
  let fd = call c "socket" [ 2; 1; 0 ] in
  Memory.write_cstring c.mem (base + 50) "host";
  ignore (call c "connect" [ fd; base + 50; 0 ]);
  ignore (call c "send" [ fd; base; 6; 0 ]);
  Alcotest.(check int) "no false positive" 0
    (A.Sink_monitor.leak_count (Device.monitor c.device));
  let s = Ndroid.stats c.nd in
  Alcotest.(check bool) "but the sink was checked" true
    (s.Ndroid.sink_checks >= 1)

let suite =
  [ Alcotest.test_case "memcpy (Listing 3)" `Quick test_memcpy_summary;
    Alcotest.test_case "memset" `Quick test_memset_clears_or_taints;
    Alcotest.test_case "strcpy/strcat" `Quick test_strcpy_strcat;
    Alcotest.test_case "strlen/strcmp return taint" `Quick
      test_strlen_strcmp_return_taint;
    Alcotest.test_case "atoi/strtoul" `Quick test_atoi_strtoul;
    Alcotest.test_case "strdup" `Quick test_strdup;
    Alcotest.test_case "malloc/free hygiene" `Quick test_malloc_free_hygiene;
    Alcotest.test_case "realloc moves taint" `Quick test_realloc_moves_taint;
    Alcotest.test_case "sprintf" `Quick test_sprintf_summary;
    Alcotest.test_case "snprintf truncation" `Quick test_snprintf_truncation;
    Alcotest.test_case "sscanf propagates" `Quick test_sscanf_propagates;
    Alcotest.test_case "libm summary" `Quick test_libm_summary;
    Alcotest.test_case "memcmp/memchr" `Quick test_memcmp_memchr;
    Alcotest.test_case "native sink fputs" `Quick test_native_sink_fputs;
    Alcotest.test_case "untainted sink silent" `Quick test_untainted_sink_silent ]
