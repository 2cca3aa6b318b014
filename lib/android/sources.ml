module Vm = Ndroid_dalvik.Vm
module Dvalue = Ndroid_dalvik.Dvalue
module Jbuilder = Ndroid_dalvik.Jbuilder
module Taint = Ndroid_taint.Taint

let telephony = "Landroid/telephony/TelephonyManager;"
let contacts = "Landroid/provider/ContactsProvider;"
let sms = "Landroid/provider/SmsProvider;"
let location = "Landroid/location/LocationManager;"

let source_catalog =
  [ (telephony, "getDeviceId", Taint.imei);
    (telephony, "getSubscriberId", Taint.imsi);
    (telephony, "getSimSerialNumber", Taint.iccid);
    (telephony, "getLine1Number", Taint.phone_number);
    (telephony, "getNetworkOperator", Taint.imsi);
    (telephony, "getDeviceSerial", Taint.device_sn);
    (contacts, "getContactCount", Taint.contacts);
    (contacts, "getContactId", Taint.contacts);
    (contacts, "getContactName", Taint.contacts);
    (contacts, "getContactEmail", Taint.contacts);
    (contacts, "getContactPhone", Taint.contacts);
    (contacts, "queryAll", Taint.contacts);
    (sms, "getSmsCount", Taint.sms);
    (sms, "getSmsBody", Taint.sms);
    (sms, "getSmsFrom", Taint.sms);
    (location, "getLatitude", Taint.location_gps);
    (location, "getLongitude", Taint.location_gps) ]

let tag_of cls m =
  List.find_map
    (fun (c, n, tag) -> if c = cls && n = m then Some tag else None)
    source_catalog

let install vm profile =
  let intr = Vm.register_intrinsic vm in
  let str tag s = fun vm (_ : Vm.tval array) -> Vm.new_string vm ~taint:tag s in
  let contact_at args =
    let i = Framework.int_arg args 0 in
    match List.nth_opt profile.Device_profile.contacts i with
    | Some c -> c
    | None ->
      { Device_profile.contact_id = 0; name = ""; email = ""; phone = "" }
  in
  (* TelephonyManager *)
  Vm.define_class vm
    (Jbuilder.class_ ~name:telephony ~super:"Ljava/lang/Object;"
       [ Jbuilder.intrinsic_method ~cls:telephony ~name:"getDeviceId" ~shorty:"L"
           "Telephony.getDeviceId";
         Jbuilder.intrinsic_method ~cls:telephony ~name:"getSubscriberId"
           ~shorty:"L" "Telephony.getSubscriberId";
         Jbuilder.intrinsic_method ~cls:telephony ~name:"getSimSerialNumber"
           ~shorty:"L" "Telephony.getSimSerialNumber";
         Jbuilder.intrinsic_method ~cls:telephony ~name:"getLine1Number"
           ~shorty:"L" "Telephony.getLine1Number";
         Jbuilder.intrinsic_method ~cls:telephony ~name:"getNetworkOperator"
           ~shorty:"L" "Telephony.getNetworkOperator";
         Jbuilder.intrinsic_method ~cls:telephony ~name:"getDeviceSerial"
           ~shorty:"L" "Telephony.getDeviceSerial" ]);
  intr "Telephony.getDeviceId" (str Taint.imei profile.Device_profile.imei);
  intr "Telephony.getSubscriberId" (str Taint.imsi profile.Device_profile.imsi);
  intr "Telephony.getSimSerialNumber" (str Taint.iccid profile.Device_profile.iccid);
  intr "Telephony.getLine1Number"
    (str Taint.phone_number profile.Device_profile.line1_number);
  intr "Telephony.getNetworkOperator"
    (str Taint.imsi profile.Device_profile.network_operator);
  intr "Telephony.getDeviceSerial"
    (str Taint.device_sn profile.Device_profile.device_serial);

  (* ContactsProvider *)
  Vm.define_class vm
    (Jbuilder.class_ ~name:contacts ~super:"Ljava/lang/Object;"
       [ Jbuilder.intrinsic_method ~cls:contacts ~name:"getContactCount"
           ~shorty:"I" "Contacts.count";
         Jbuilder.intrinsic_method ~cls:contacts ~name:"getContactId" ~shorty:"LI"
           "Contacts.id";
         Jbuilder.intrinsic_method ~cls:contacts ~name:"getContactName"
           ~shorty:"LI" "Contacts.name";
         Jbuilder.intrinsic_method ~cls:contacts ~name:"getContactEmail"
           ~shorty:"LI" "Contacts.email";
         Jbuilder.intrinsic_method ~cls:contacts ~name:"getContactPhone"
           ~shorty:"LI" "Contacts.phone";
         Jbuilder.intrinsic_method ~cls:contacts ~name:"queryAll" ~shorty:"L"
           "Contacts.queryAll" ]);
  intr "Contacts.count" (fun _vm _args ->
      ( Dvalue.Int (Int32.of_int (List.length profile.Device_profile.contacts)),
        Taint.contacts ));
  intr "Contacts.id" (fun vm args ->
      let c = contact_at args in
      Vm.new_string vm ~taint:Taint.contacts
        (string_of_int c.Device_profile.contact_id));
  intr "Contacts.name" (fun vm args ->
      Vm.new_string vm ~taint:Taint.contacts (contact_at args).Device_profile.name);
  intr "Contacts.email" (fun vm args ->
      Vm.new_string vm ~taint:Taint.contacts (contact_at args).Device_profile.email);
  intr "Contacts.phone" (fun vm args ->
      Vm.new_string vm ~taint:Taint.contacts (contact_at args).Device_profile.phone);
  intr "Contacts.queryAll" (fun vm _args ->
      let all =
        String.concat "\n"
          (List.map Device_profile.contact_record profile.Device_profile.contacts)
      in
      Vm.new_string vm ~taint:Taint.contacts all);

  (* SmsProvider *)
  Vm.define_class vm
    (Jbuilder.class_ ~name:sms ~super:"Ljava/lang/Object;"
       [ Jbuilder.intrinsic_method ~cls:sms ~name:"getSmsCount" ~shorty:"I"
           "Sms.count";
         Jbuilder.intrinsic_method ~cls:sms ~name:"getSmsBody" ~shorty:"LI"
           "Sms.body";
         Jbuilder.intrinsic_method ~cls:sms ~name:"getSmsFrom" ~shorty:"LI"
           "Sms.from" ]);
  let sms_at args =
    let i = Framework.int_arg args 0 in
    match List.nth_opt profile.Device_profile.sms_inbox i with
    | Some s -> s
    | None -> { Device_profile.sms_from = ""; body = "" }
  in
  intr "Sms.count" (fun _vm _args ->
      ( Dvalue.Int (Int32.of_int (List.length profile.Device_profile.sms_inbox)),
        Taint.sms ));
  intr "Sms.body" (fun vm args ->
      Vm.new_string vm ~taint:Taint.sms (sms_at args).Device_profile.body);
  intr "Sms.from" (fun vm args ->
      Vm.new_string vm ~taint:Taint.sms (sms_at args).Device_profile.sms_from);

  (* LocationManager *)
  Vm.define_class vm
    (Jbuilder.class_ ~name:location ~super:"Ljava/lang/Object;"
       [ Jbuilder.intrinsic_method ~cls:location ~name:"getLatitude" ~shorty:"D"
           "Location.latitude";
         Jbuilder.intrinsic_method ~cls:location ~name:"getLongitude" ~shorty:"D"
           "Location.longitude" ]);
  intr "Location.latitude" (fun _vm _args ->
      (Dvalue.Double profile.Device_profile.latitude, Taint.location_gps));
  intr "Location.longitude" (fun _vm _args ->
      (Dvalue.Double profile.Device_profile.longitude, Taint.location_gps))
