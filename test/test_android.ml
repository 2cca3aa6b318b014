(* Android framework simulation: FS, network, native heap, sources, sinks,
   libc/libm models (exercised through a booted device's machine). *)

module A = Ndroid_android
module Device = Ndroid_runtime.Device
module Machine = Ndroid_emulator.Machine
module Cpu = Ndroid_arm.Cpu
module Memory = Ndroid_arm.Memory
module Vm = Ndroid_dalvik.Vm
module Dvalue = Ndroid_dalvik.Dvalue
module Heap = Ndroid_dalvik.Heap
module Indirect_ref = Ndroid_jni.Indirect_ref
module Interp = Ndroid_dalvik.Interp
module Taint = Ndroid_taint.Taint
module Budget = Ndroid_budget.Budget

let check_taint = Alcotest.testable Taint.pp Taint.equal

let test_filesystem () =
  let fs = A.Filesystem.create () in
  let fd = A.Filesystem.open_file fs "/sdcard/x" `Write in
  ignore (A.Filesystem.write fs fd "hello ");
  ignore (A.Filesystem.write fs fd "world");
  A.Filesystem.close fs fd;
  Alcotest.(check string) "contents" "hello world" (A.Filesystem.contents fs "/sdcard/x");
  Alcotest.(check int) "journal" 2 (List.length (A.Filesystem.writes fs));
  let fd = A.Filesystem.open_file fs "/sdcard/x" `Read in
  Alcotest.(check string) "read" "hello" (A.Filesystem.read fs fd 5);
  Alcotest.(check string) "read cont" " worl" (A.Filesystem.read fs fd 5);
  Alcotest.(check bool) "missing" true
    (match A.Filesystem.open_file fs "/nope" `Read with
     | exception Not_found -> true
     | _ -> false)

let test_network () =
  let net = A.Network.create () in
  let fd = A.Network.socket net in
  A.Network.connect net fd "evil.example";
  ignore (A.Network.send net fd "payload");
  ignore (A.Network.sendto net fd "dgram" "other.example");
  let ts = A.Network.transmissions net in
  Alcotest.(check int) "two sends" 2 (List.length ts);
  Alcotest.(check string) "dest" "evil.example" (List.hd ts).A.Network.dest;
  Alcotest.(check bool) "unconnected send fails" true
    (let fd2 = A.Network.socket net in
     match A.Network.send net fd2 "x" with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_native_heap () =
  let h = A.Native_heap.create () in
  let a = A.Native_heap.malloc h 100 in
  let b = A.Native_heap.malloc h 50 in
  Alcotest.(check bool) "disjoint" true (b >= a + 100);
  Alcotest.(check (option int)) "size" (Some 104) (A.Native_heap.block_size h a);
  A.Native_heap.free h a;
  Alcotest.(check (option int)) "freed" None (A.Native_heap.block_size h a);
  let c = A.Native_heap.malloc h 60 in
  Alcotest.(check int) "first-fit reuse" a c;
  Alcotest.(check int) "live" 2 (A.Native_heap.live_blocks h)

let test_sink_monitor () =
  let m = A.Sink_monitor.create () in
  A.Sink_monitor.inspect m ~sink:"send" ~context:A.Sink_monitor.Native_context
    ~taint:Taint.clear ~data:"x" ~detail:"d";
  Alcotest.(check int) "clear not recorded" 0 (A.Sink_monitor.leak_count m);
  A.Sink_monitor.inspect m ~sink:"send" ~context:A.Sink_monitor.Native_context
    ~taint:Taint.sms ~data:"x" ~detail:"d";
  Alcotest.(check int) "tainted recorded" 1 (A.Sink_monitor.leak_count m)

(* ---- sources/sinks through the VM ---- *)

let test_sources_taint () =
  let device = Device.create () in
  let vm = Device.vm device in
  let v, t =
    Interp.invoke_by_name vm "Landroid/telephony/TelephonyManager;" "getDeviceId" [||]
  in
  Alcotest.(check string) "imei value" "357242043237517" (Vm.string_of_value vm v);
  Alcotest.check check_taint "imei tag" Taint.imei t;
  let _, t =
    Interp.invoke_by_name vm "Landroid/provider/ContactsProvider;" "getContactName"
      [| (Dvalue.Int 0l, Taint.clear) |]
  in
  Alcotest.check check_taint "contacts tag" Taint.contacts t;
  let _, t =
    Interp.invoke_by_name vm "Landroid/provider/SmsProvider;" "getSmsBody"
      [| (Dvalue.Int 0l, Taint.clear) |]
  in
  Alcotest.check check_taint "sms tag" Taint.sms t

let test_source_catalog_covers_intrinsics () =
  let device = Device.create () in
  let vm = Device.vm device in
  List.iter
    (fun (cls, name, _) -> ignore (Vm.find_method vm cls name))
    A.Sources.source_catalog

let test_java_sink_records_leak () =
  let device = Device.create () in
  let vm = Device.vm device in
  let dest, _ = Vm.new_string vm "evil.example" in
  let data, t = Vm.new_string vm ~taint:Taint.imei "357242043237517" in
  ignore
    (Interp.invoke_by_name vm "Ljava/net/Socket;" "send"
       [| (dest, Taint.clear); (data, t) |]);
  Alcotest.(check int) "leak recorded" 1
    (A.Sink_monitor.leak_count (Device.monitor device));
  Alcotest.(check int) "transmission journaled" 1
    (List.length (A.Network.transmissions (Device.net device)))

(* ---- libc models, called through the machine ---- *)

let call device name args =
  let machine = Device.machine device in
  let addr = Machine.host_fn_addr machine name in
  fst (Machine.call_native machine ~addr ~args ())

let scratch = 0x30000000

let test_libc_string_functions () =
  let device = Device.create () in
  let mem = Machine.mem (Device.machine device) in
  Memory.write_cstring mem scratch "hello world";
  Alcotest.(check int) "strlen" 11 (call device "strlen" [ scratch ]);
  Memory.write_cstring mem (scratch + 100) "hello world";
  Alcotest.(check int) "strcmp equal" 0
    (call device "strcmp" [ scratch; scratch + 100 ]);
  ignore (call device "strcpy" [ scratch + 200; scratch ]);
  Alcotest.(check string) "strcpy" "hello world"
    (Memory.read_cstring mem (scratch + 200));
  let p = call device "strstr" [ scratch; scratch + 300 ] in
  Memory.write_cstring mem (scratch + 300) "world";
  let p2 = call device "strstr" [ scratch; scratch + 300 ] in
  ignore p;
  Alcotest.(check int) "strstr finds" (scratch + 6) p2;
  Memory.write_cstring mem (scratch + 400) "  -42xyz";
  Alcotest.(check int) "atoi" (-42 land 0xFFFFFFFF) (call device "atoi" [ scratch + 400 ])

let test_libc_memory_functions () =
  let device = Device.create () in
  let mem = Machine.mem (Device.machine device) in
  let p = call device "malloc" [ 32 ] in
  Alcotest.(check bool) "malloc in native heap" true
    (p >= A.Native_heap.region_base);
  ignore (call device "memset" [ p; 0xAB; 8 ]);
  Alcotest.(check int) "memset" 0xAB (Memory.read_u8 mem (p + 7));
  ignore (call device "memcpy" [ p + 16; p; 8 ]);
  Alcotest.(check int) "memcpy" 0xAB (Memory.read_u8 mem (p + 23));
  Alcotest.(check int) "memcmp eq" 0 (call device "memcmp" [ p; p + 16; 8 ]);
  ignore (call device "free" [ p ])

let test_libc_sprintf () =
  let device = Device.create () in
  let mem = Machine.mem (Device.machine device) in
  Memory.write_cstring mem scratch "%s=%d!";
  Memory.write_cstring mem (scratch + 50) "x";
  let n =
    call device "sprintf" [ scratch + 100; scratch; scratch + 50; 7 ]
  in
  Alcotest.(check int) "length" 4 n;
  Alcotest.(check string) "rendered" "x=7!" (Memory.read_cstring mem (scratch + 100))

let test_libc_stdio () =
  let device = Device.create () in
  let mem = Machine.mem (Device.machine device) in
  Memory.write_cstring mem scratch "/sdcard/test.txt";
  Memory.write_cstring mem (scratch + 50) "w";
  let file = call device "fopen" [ scratch; scratch + 50 ] in
  Alcotest.(check bool) "fopen" true (file <> 0);
  Memory.write_cstring mem (scratch + 100) "payload";
  ignore (call device "fputs" [ scratch + 100; file ]);
  ignore (call device "fwrite" [ scratch + 100; 1; 3; file ]);
  ignore (call device "fclose" [ file ]);
  Alcotest.(check string) "file contents" "payloadpay"
    (A.Filesystem.contents (Device.fs device) "/sdcard/test.txt")

let test_libc_sockets () =
  let device = Device.create () in
  let mem = Machine.mem (Device.machine device) in
  let fd = call device "socket" [ 2; 1; 0 ] in
  Memory.write_cstring mem scratch "c2.example";
  Alcotest.(check int) "connect" 0 (call device "connect" [ fd; scratch; 0 ]);
  Memory.write_cstring mem (scratch + 50) "DATA";
  Alcotest.(check int) "send" 4 (call device "send" [ fd; scratch + 50; 4; 0 ]);
  let ts = A.Network.transmissions (Device.net device) in
  Alcotest.(check int) "journaled" 1 (List.length ts);
  Alcotest.(check string) "payload" "DATA" (List.hd ts).A.Network.payload

let test_libm () =
  let device = Device.create () in
  (* sqrt(2.0): double arg in r0:r1, result in r0:r1 *)
  let bits = Int64.bits_of_float 2.0 in
  let lo = Int64.to_int (Int64.logand bits 0xFFFFFFFFL)
  and hi = Int64.to_int (Int64.shift_right_logical bits 32) in
  let machine = Device.machine device in
  let addr = Machine.host_fn_addr machine "sqrt" in
  let r0, r1 = Machine.call_native machine ~addr ~args:[ lo; hi ] () in
  let result =
    Int64.float_of_bits
      (Int64.logor (Int64.of_int r0) (Int64.shift_left (Int64.of_int r1) 32))
  in
  Alcotest.(check (float 1e-12)) "sqrt 2" (sqrt 2.0) result;
  (* sinf: single float in r0 *)
  let fbits = Int32.to_int (Int32.bits_of_float 1.0) land 0xFFFFFFFF in
  let addr = Machine.host_fn_addr machine "sinf" in
  let r0, _ = Machine.call_native machine ~addr ~args:[ fbits ] () in
  Alcotest.(check (float 1e-6)) "sinf 1" (sin 1.0)
    (Int32.float_of_bits (Int32.of_int r0))

let test_table_vi_vii_coverage () =
  (* every Table VI/VII function is actually mounted in guest libc/libm *)
  let device = Device.create () in
  let machine = Device.machine device in
  List.iter
    (fun name ->
      match Machine.host_fn_addr machine name with
      | _ -> ()
      | exception Not_found -> Alcotest.failf "libc model missing %s" name)
    (A.Syscalls.modeled_libc @ A.Syscalls.modeled_libm @ A.Syscalls.hooked)

let test_device_profile () =
  let p = A.Device_profile.default in
  Alcotest.(check string) "line1" "15555215554" p.A.Device_profile.line1_number;
  Alcotest.(check string) "operator" "310260" p.A.Device_profile.network_operator;
  let c = List.hd p.A.Device_profile.contacts in
  Alcotest.(check string) "fig8 record" "1 Vincent cx@gg.com"
    (A.Device_profile.contact_record c)

(* ---- host-call charges under hostile arguments ---- *)

(* Every modeled libc function, called with argument registers and stack
   words drawn from values a hostile guest would pass: zero, small sizes,
   the largest positive and unsigned words, a mapped buffer and a long C
   string.  A call may return or raise; what it may not do is work that
   its charge did not pay for.  Allocation is the witness: a call's
   allocated bytes stay within a fixed multiple of its device's budget. *)

let fuzz_budget = 100_000
let fuzz_bytes_per_unit = 32
let fuzz_buf = 0x30000000
let fuzz_long = 0x30010000
let fuzz_long_len = 60_000

let libc_names = List.map fst A.Libc_model.functions

(* Argument words that name objects of the device under test rather than
   numbers, resolved per device: a Java string and a Java int array of
   [fuzz_obj_len] elements, as indirect references. *)
let fuzz_string_ref = -1
let fuzz_array_ref = -2
let fuzz_obj_len = 4096

let fuzz_word =
  QCheck.Gen.(
    oneof
      [ return 0; int_range 1 64; return 0x7FFFFFFF; return 0xFFFFFFFF;
        return fuzz_buf; return fuzz_long ])

let jni_word =
  QCheck.Gen.(oneof [ fuzz_word; return fuzz_string_ref; return fuzz_array_ref ])

let fuzz_call names word =
  let print_word w =
    if w = fuzz_string_ref then "string-ref"
    else if w = fuzz_array_ref then "array-ref"
    else Printf.sprintf "0x%x" w
  in
  QCheck.make
    ~print:(fun (name, regs, stack) ->
      let words ws = String.concat "," (List.map print_word ws) in
      Printf.sprintf "%s(%s; stack %s)" name (words regs) (words stack))
    QCheck.Gen.(triple (oneofl names) (list_repeat 4 word) (list_repeat 4 word))

let host_call_charges ~name names word =
  QCheck.Test.make ~name ~count:600 (fuzz_call names word)
    (fun (fn, regs, stack) ->
      Budget.with_budget (Budget.create fuzz_budget) (fun () ->
          let device = Device.create () in
          let machine = Device.machine device in
          let mem = Machine.mem machine in
          Memory.write_cstring mem fuzz_buf "%s %d %x host %s";
          Memory.write_cstring mem fuzz_long (String.make fuzz_long_len 'a');
          (* the objects are made, and paid for, only when a word names
             them *)
          let vm = Device.vm device in
          let iref_of id = Indirect_ref.add (Device.irefs device) ~obj_id:id in
          let string_ref =
            lazy
              (match Vm.new_string vm (String.make fuzz_obj_len 'b') with
               | Dvalue.Obj id, _ -> iref_of id
               | _ -> assert false)
          in
          let array_ref =
            lazy (iref_of (Heap.alloc_array vm.Vm.heap "I" fuzz_obj_len).Heap.id)
          in
          let resolve w =
            if w = fuzz_string_ref then Lazy.force string_ref
            else if w = fuzz_array_ref then Lazy.force array_ref
            else w
          in
          let args = List.map resolve regs
          and stack_args = List.map resolve stack in
          let addr = Machine.host_fn_addr machine fn in
          let before = Gc.allocated_bytes () in
          (try ignore (Machine.call_native machine ~addr ~args ~stack_args ())
           with _ -> ());
          let spent = Gc.allocated_bytes () -. before in
          if spent > float_of_int (fuzz_bytes_per_unit * fuzz_budget) then
            QCheck.Test.fail_reportf "%s allocated %.0f bytes on a %d-unit budget"
              fn spent fuzz_budget;
          true))

let prop_host_call_charges =
  host_call_charges ~name:"libc: every host call pays for its work" libc_names
    fuzz_word

(* libdvm's JNI functions and internals, as the system image lists them *)
let jni_names =
  List.filter_map
    (fun hf ->
      if hf.Machine.hf_lib = "libdvm.so" then Some hf.Machine.hf_name else None)
    (Machine.image_fns Device.system_image)

let prop_jni_call_charges =
  host_call_charges ~name:"jni: every host call pays for its work" jni_names
    jni_word

let suite =
  [ Alcotest.test_case "filesystem" `Quick test_filesystem;
    Alcotest.test_case "network" `Quick test_network;
    Alcotest.test_case "native heap" `Quick test_native_heap;
    Alcotest.test_case "sink monitor" `Quick test_sink_monitor;
    Alcotest.test_case "sources carry tags" `Quick test_sources_taint;
    Alcotest.test_case "source catalog resolvable" `Quick
      test_source_catalog_covers_intrinsics;
    Alcotest.test_case "java sink records leak" `Quick test_java_sink_records_leak;
    Alcotest.test_case "libc strings" `Quick test_libc_string_functions;
    Alcotest.test_case "libc memory" `Quick test_libc_memory_functions;
    Alcotest.test_case "libc sprintf" `Quick test_libc_sprintf;
    Alcotest.test_case "libc stdio" `Quick test_libc_stdio;
    Alcotest.test_case "libc sockets" `Quick test_libc_sockets;
    Alcotest.test_case "libm" `Quick test_libm;
    Alcotest.test_case "Table VI/VII coverage" `Quick test_table_vi_vii_coverage;
    Alcotest.test_case "device profile" `Quick test_device_profile;
    QCheck_alcotest.to_alcotest prop_host_call_charges;
    QCheck_alcotest.to_alcotest prop_jni_call_charges ]
