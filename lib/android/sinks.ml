module Vm = Ndroid_dalvik.Vm
module Jbuilder = Ndroid_dalvik.Jbuilder
module Dvalue = Ndroid_dalvik.Dvalue
module Taint = Ndroid_taint.Taint

let socket_cls = "Ljava/net/Socket;"
let sms_cls = "Landroid/telephony/SmsManager;"
let fos_cls = "Ljava/io/FileOutputStream;"
let log_cls = "Landroid/util/Log;"

let sink_catalog =
  [ (socket_cls, "send");
    (sms_cls, "sendTextMessage");
    (fos_cls, "writeFile");
    (log_cls, "i") ]

let is_sink cls m = List.exists (fun (c, n) -> c = cls && n = m) sink_catalog

let install vm net fs monitor =
  let intr = Vm.register_intrinsic vm in
  Vm.define_class vm
    (Jbuilder.class_ ~name:socket_cls ~super:"Ljava/lang/Object;"
       [ Jbuilder.intrinsic_method ~cls:socket_cls ~name:"send" ~shorty:"VLL"
           "Socket.send" ]);
  intr "Socket.send" (fun vm args ->
      let dest = Framework.string_arg vm args 0
      and data = Framework.string_arg vm args 1 in
      (match
         Sink_monitor.decide monitor ~sink:"Socket.send"
           ~context:Sink_monitor.Java_context ~taint:(snd args.(1)) ~data
           ~detail:dest
       with
       | `Block -> ()
       | `Allow ->
         let fd = Network.socket net in
         Network.connect net fd dest;
         ignore (Network.send net fd data);
         Network.close net fd);
      (Dvalue.zero, Taint.clear));

  Vm.define_class vm
    (Jbuilder.class_ ~name:sms_cls ~super:"Ljava/lang/Object;"
       [ Jbuilder.intrinsic_method ~cls:sms_cls ~name:"sendTextMessage"
           ~shorty:"VLL" "SmsManager.sendTextMessage" ]);
  intr "SmsManager.sendTextMessage" (fun vm args ->
      let dest = Framework.string_arg vm args 0
      and data = Framework.string_arg vm args 1 in
      (match
         Sink_monitor.decide monitor ~sink:"SmsManager.sendTextMessage"
           ~context:Sink_monitor.Java_context ~taint:(snd args.(1)) ~data
           ~detail:dest
       with
       | `Block -> ()
       | `Allow ->
         ignore (Network.sendto net (Network.socket net) data ("sms:" ^ dest)));
      (Dvalue.zero, Taint.clear));

  Vm.define_class vm
    (Jbuilder.class_ ~name:fos_cls ~super:"Ljava/lang/Object;"
       [ Jbuilder.intrinsic_method ~cls:fos_cls ~name:"writeFile" ~shorty:"VLL"
           "FileOutputStream.writeFile" ]);
  intr "FileOutputStream.writeFile" (fun vm args ->
      let path = Framework.string_arg vm args 0
      and data = Framework.string_arg vm args 1 in
      (match
         Sink_monitor.decide monitor ~sink:"FileOutputStream.writeFile"
           ~context:Sink_monitor.Java_context ~taint:(snd args.(1)) ~data
           ~detail:path
       with
       | `Block -> ()
       | `Allow ->
         let fd = Filesystem.open_file fs path `Append in
         ignore (Filesystem.write fs fd data);
         Filesystem.close fs fd;
         (* TaintDroid persists the tag in the file's xattr *)
         Filesystem.add_xattr_taint fs path (snd args.(1)));
      (Dvalue.zero, Taint.clear));

  Vm.define_class vm
    (Jbuilder.class_ ~name:"Ljava/io/FileInputStream;" ~super:"Ljava/lang/Object;"
       [ Jbuilder.intrinsic_method ~cls:"Ljava/io/FileInputStream;"
           ~name:"readFile" ~shorty:"LL" "FileInputStream.readFile" ]);
  intr "FileInputStream.readFile" (fun vm args ->
      let path = Framework.string_arg vm args 0 in
      let data = try Filesystem.contents fs path with Not_found -> "" in
      (* the xattr tag comes back with the contents *)
      Vm.new_string vm ~taint:(Filesystem.xattr_taint fs path) data);

  Vm.define_class vm
    (Jbuilder.class_ ~name:log_cls ~super:"Ljava/lang/Object;"
       [ Jbuilder.intrinsic_method ~cls:log_cls ~name:"i" ~shorty:"VLL" "Log.i" ]);
  intr "Log.i" (fun vm args ->
      let tag = Framework.string_arg vm args 0
      and data = Framework.string_arg vm args 1 in
      Sink_monitor.inspect monitor ~sink:"Log.i"
        ~context:Sink_monitor.Java_context ~taint:(snd args.(1)) ~data ~detail:tag;
      (Dvalue.zero, Taint.clear))
