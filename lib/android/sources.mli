(** Sensitive-information sources.

    "TaintDroid adds taints to the sources of sensitive information (GPS
    data, SMS messages, IMSI, IMEI, etc.)" (paper, Sec. II-B).  Each
    intrinsic returns device data from the {!Device_profile} already tagged
    with its TaintDroid category, so the tags seen downstream match the
    paper's logs (contacts = 0x2, contacts+SMS = 0x202, …). *)

val install : Ndroid_dalvik.Vm.t -> Device_profile.t -> unit
(** Define the source classes ([TelephonyManager], [ContactsProvider],
    [SmsProvider], [LocationManager]) and their intrinsics. *)

val source_catalog : (string * string * Ndroid_taint.Taint.t) list
(** Every source method as (class, method, tag) — the system's "taint
    source" configuration, used by documentation and tests. *)

val tag_of : string -> string -> Ndroid_taint.Taint.t option
(** The catalogued tag of class [cls]'s method [m], if it is a source. *)
