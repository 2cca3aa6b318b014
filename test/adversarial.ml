(* Three apps that never finish on their own, or would spend hours and
   gigabytes in one library call, for the work-budget tests.
   They are not bundled: registering them here makes them analyzable by
   name through [Analysis.run], the pool and the daemon, and only in this
   test binary. *)

module H = Ndroid_apps.Harness
module J = Ndroid_dalvik.Jbuilder
module B = Ndroid_dalvik.Bytecode
module Asm = Ndroid_arm.Asm
module Insn = Ndroid_arm.Insn
module Layout = Ndroid_emulator.Layout

let cls = "Lcom/ndroid/test/Spin;"

let app ~name ~description ~methods ~build_libs =
  { H.app_name = name; app_case = "adversarial loop"; description;
    classes = [ J.class_ ~name:cls ~super:"Ljava/lang/Object;" methods ];
    build_libs; entry = (cls, "main"); expected_sink = "" }

(* main: a [goto] to itself *)
let dalvik_loop =
  app ~name:"test-dalvik-goto-self"
    ~description:"a Dalvik method whose only instruction jumps to itself"
    ~methods:[ J.method_ ~cls ~name:"main" ~shorty:"V" [ J.L "top"; J.Goto_l "top" ] ]
    ~build_libs:(fun _ -> [])

(* main calls the native [spin], which is a [b .] *)
let native_loop =
  app ~name:"test-native-branch-self"
    ~description:"a native method, reached through JNI, that branches to itself"
    ~methods:
      [ J.native_method ~cls ~name:"spin" ~shorty:"V" "spin";
        J.method_ ~cls ~name:"main" ~shorty:"V"
          [ J.I (B.Invoke (B.Static, { B.m_class = cls; m_name = "spin" }, []));
            J.I B.Return_void ] ]
    ~build_libs:(fun extern ->
      [ ("spin",
         Asm.assemble ~extern ~base:Layout.app_lib_base
           [ Asm.Label "spin"; Asm.Br (Insn.AL, "spin") ]) ])

(* main calls the native [wipe], which is memset(sp, 0, -1): one host
   call asking for 4 GiB of writes *)
let memset_all =
  app ~name:"test-native-memset-all"
    ~description:"a native method, reached through JNI, that memsets 4 GiB"
    ~methods:
      [ J.native_method ~cls ~name:"wipe" ~shorty:"V" "wipe";
        J.method_ ~cls ~name:"main" ~shorty:"V"
          [ J.I (B.Invoke (B.Static, { B.m_class = cls; m_name = "wipe" }, []));
            J.I B.Return_void ] ]
    ~build_libs:(fun extern ->
      [ ("wipe",
         Asm.assemble ~extern ~base:Layout.app_lib_base
           [ Asm.Label "wipe";
             Asm.I (Insn.push [ Insn.lr ]);
             Asm.I (Insn.add 0 13 (Insn.Imm 0));
             Asm.Li (1, 0);
             Asm.Li (2, 0xFFFFFFFF);
             Asm.Call "memset";
             Asm.I (Insn.pop [ Insn.pc ]) ]) ])

let () =
  List.iter Ndroid_apps.Registry.register [ dalvik_loop; native_loop; memset_all ]

(* the names to submit; referring to them links this module, and so
   registers the apps, before any test runs *)
let dalvik = dalvik_loop.H.app_name
let native = native_loop.H.app_name
let memset = memset_all.H.app_name
