module Taint = Ndroid_taint.Taint

type tval = Dvalue.t * Taint.t

exception Dvm_error of string
exception Java_throw of tval

type counters = {
  mutable bytecodes : int;
  mutable invokes : int;
  mutable native_calls : int;
  mutable jni_env_calls : int;
}

type vtable = {
  vt_exact : (string * int, Linked.resolved) Hashtbl.t;
  vt_by_name : (string, Linked.resolved) Hashtbl.t;
  vt_missing_super : string option;
}

type layout = {
  lay_pairs : (string * int) list;
  lay_index : (string, int) Hashtbl.t;
  lay_size : int;
}

type frame = {
  mutable f_regs : Dvalue.t array;
  mutable f_taints : Taint.t array;
}

type t = {
  classes : (string, Classes.class_def) Hashtbl.t;
  statics : (string * string, tval ref) Hashtbl.t;
  heap : Heap.t;
  intrinsics : (string, t -> tval array -> tval) Hashtbl.t;
  mutable native_dispatch : (t -> Classes.method_def -> tval array -> tval) option;
  mutable track_taint : bool;
  mutable on_bytecode : (Classes.method_def -> Bytecode.t -> unit) option;
  mutable on_invoke : (Classes.method_def -> unit) option;
  mutable ret : tval;
  counters : counters;
  vtables : (string, vtable) Hashtbl.t;
  layouts : (string, layout) Hashtbl.t;
  mutable frames : frame array;
  mutable depth : int;
  mutable link_roots : (Classes.method_def * Linked.resolved) list;
  mutable obs : Ndroid_obs.Ring.t;
  budget : Ndroid_budget.Budget.t;
}

let err fmt = Format.kasprintf (fun s -> raise (Dvm_error s)) fmt

let create () =
  { classes = Hashtbl.create 64;
    statics = Hashtbl.create 64;
    heap = Heap.create ();
    intrinsics = Hashtbl.create 64;
    native_dispatch = None;
    track_taint = true;
    on_bytecode = None;
    on_invoke = None;
    ret = (Dvalue.zero, Taint.clear);
    counters = { bytecodes = 0; invokes = 0; native_calls = 0; jni_env_calls = 0 };
    vtables = Hashtbl.create 64;
    layouts = Hashtbl.create 64;
    frames = Array.init 16 (fun _ -> { f_regs = [||]; f_taints = [||] });
    depth = 0;
    link_roots = [];
    obs = Ndroid_obs.Ring.disabled;
    budget = Ndroid_budget.Budget.current () }

let define_class vm cls =
  if Hashtbl.mem vm.classes cls.Classes.c_name then
    err "class %s already defined" cls.Classes.c_name;
  Hashtbl.replace vm.classes cls.Classes.c_name cls;
  (* A new class can complete a previously-cut superclass chain (dynamic
     loading), so drop memoized resolution state and rebuild lazily.  Filled
     inline caches in already-linked code stay valid: classes can never be
     redefined, so a successful resolution holds forever. *)
  Hashtbl.reset vm.vtables;
  Hashtbl.reset vm.layouts

let find_class vm name =
  match Hashtbl.find_opt vm.classes name with
  | Some c -> c
  | None -> err "class %s not found" name

(* Merge one method into an existing class, or define the class fresh.
   Used by harnesses to graft framework stubs onto whatever skeleton the
   app's dex already declared; an existing (class, method, signature)
   entry is left alone. *)
let define_method vm ~cls (m : Classes.method_def) =
  match Hashtbl.find_opt vm.classes cls with
  | None ->
    define_class vm
      { Classes.c_name = cls; c_super = None; c_fields = []; c_methods = [ m ] }
  | Some c ->
    let exists =
      List.exists
        (fun (m' : Classes.method_def) ->
          m'.Classes.m_name = m.Classes.m_name
          && m'.Classes.m_shorty = m.Classes.m_shorty
          && m'.Classes.m_static = m.Classes.m_static)
        c.Classes.c_methods
    in
    if not exists then begin
      Hashtbl.replace vm.classes cls
        { c with Classes.c_methods = c.Classes.c_methods @ [ m ] };
      Hashtbl.reset vm.vtables;
      Hashtbl.reset vm.layouts
    end

(* Memoized per-class vtable, replacing the seed's per-invoke linear scan.
   Built by copying the superclass vtable and overriding with own methods
   (first occurrence wins among own methods, matching the seed's
   [List.find_opt] order).  Every bytecode method is linked here, once per
   VM — the resolve-once principle. *)
let rec vtable vm cls_name =
  match Hashtbl.find_opt vm.vtables cls_name with
  | Some v -> v
  | None ->
    let cls = find_class vm cls_name in
    let vt_exact, vt_by_name, vt_missing_super =
      match cls.Classes.c_super with
      | None -> (Hashtbl.create 16, Hashtbl.create 16, None)
      | Some s ->
        if Hashtbl.mem vm.classes s then begin
          let p = vtable vm s in
          (Hashtbl.copy p.vt_exact, Hashtbl.copy p.vt_by_name, p.vt_missing_super)
        end
        else
          (* The chain is cut: resolutions that would have to look past the
             cut report the missing class, like the seed's chain walk did. *)
          (Hashtbl.create 16, Hashtbl.create 16, Some s)
    in
    let own_exact = Hashtbl.create 8 and own_name = Hashtbl.create 8 in
    List.iter
      (fun m ->
        let r = Linked.resolve m in
        let key = (m.Classes.m_name, r.Linked.r_argc) in
        if not (Hashtbl.mem own_exact key) then begin
          Hashtbl.replace own_exact key ();
          Hashtbl.replace vt_exact key r
        end;
        if not (Hashtbl.mem own_name m.Classes.m_name) then begin
          Hashtbl.replace own_name m.Classes.m_name ();
          Hashtbl.replace vt_by_name m.Classes.m_name r
        end)
      cls.Classes.c_methods;
    let v = { vt_exact; vt_by_name; vt_missing_super } in
    Hashtbl.replace vm.vtables cls_name v;
    v

let rec root_name vm cls_name =
  match (find_class vm cls_name).Classes.c_super with
  | Some s when Hashtbl.mem vm.classes s -> root_name vm s
  | Some _ | None -> cls_name

let method_miss vm vt cls_name m_name =
  match vt.vt_missing_super with
  | Some s -> err "class %s not found" s
  | None -> err "method %s->%s not found" (root_name vm cls_name) m_name

let find_method vm cls_name m_name =
  let vt = vtable vm cls_name in
  match Hashtbl.find_opt vt.vt_by_name m_name with
  | Some r -> r.Linked.r_m
  | None -> method_miss vm vt cls_name m_name

let find_method_arity vm cls_name m_name argc =
  let vt = vtable vm cls_name in
  match Hashtbl.find_opt vt.vt_exact (m_name, argc) with
  | Some r -> r
  | None -> (
    (* No overload of that arity: fall back to the name hit so callers
       report a wrong-arity error instead of method-not-found. *)
    match Hashtbl.find_opt vt.vt_by_name m_name with
    | Some r -> r
    | None -> method_miss vm vt cls_name m_name)

(* Memoized flattened field layout, replacing the seed's per-access list
   rebuild. *)
let rec layout vm cls_name =
  match Hashtbl.find_opt vm.layouts cls_name with
  | Some l -> l
  | None ->
    let cls = find_class vm cls_name in
    let inherited =
      match cls.Classes.c_super with
      | Some s -> (layout vm s).lay_pairs
      | None -> []
    in
    let next = List.length inherited in
    let own =
      List.filteri (fun _ f -> not f.Classes.fd_static) cls.Classes.c_fields
    in
    let pairs =
      inherited @ List.mapi (fun i f -> (f.Classes.fd_name, next + i)) own
    in
    let index = Hashtbl.create (List.length pairs) in
    (* Insert back-to-front so the first binding of a name wins, matching
       [List.assoc_opt] on the pair list. *)
    List.iter (fun (n, i) -> Hashtbl.replace index n i) (List.rev pairs);
    let l = { lay_pairs = pairs; lay_index = index; lay_size = List.length pairs } in
    Hashtbl.replace vm.layouts cls_name l;
    l

let field_layout vm cls_name = (layout vm cls_name).lay_pairs

let field_index vm cls_name f_name =
  match Hashtbl.find_opt (layout vm cls_name).lay_index f_name with
  | Some i -> i
  | None -> err "field %s->%s not found" cls_name f_name

let instance_size vm cls_name = (layout vm cls_name).lay_size

let static_ref vm cls_name f_name =
  let key = (cls_name, f_name) in
  match Hashtbl.find_opt vm.statics key with
  | Some r -> r
  | None ->
    let r = ref (Dvalue.zero, Taint.clear) in
    Hashtbl.replace vm.statics key r;
    r

(* Frames for the allocation-free interpreter loop: one reusable
   register/taint pair per call depth, grown on demand and never freed. *)
let frame vm depth =
  if depth >= Array.length vm.frames then begin
    let old = vm.frames in
    let n = max (depth + 1) (2 * Array.length old) in
    vm.frames <-
      Array.init n (fun i ->
          if i < Array.length old then old.(i)
          else { f_regs = [||]; f_taints = [||] })
  end;
  vm.frames.(depth)

(* Linked code for a method invoked from the outside (not through a call
   site).  Prefer the vtable entry when it is this very method; otherwise
   memoize per method identity so repeated top-level invokes of ad-hoc
   methods don't relink every call. *)
let resolved_of_method vm m =
  let rec scan = function
    | [] -> None
    | (m', r) :: rest -> if m' == m then Some r else scan rest
  in
  match scan vm.link_roots with
  | Some r -> r
  | None ->
    let r =
      match
        if Hashtbl.mem vm.classes m.Classes.m_class then
          let vt = vtable vm m.Classes.m_class in
          Hashtbl.find_opt vt.vt_exact (m.Classes.m_name, Classes.ins_count m)
        else None
      with
      | Some r when r.Linked.r_m == m -> r
      | Some _ | None -> Linked.resolve m
    in
    let roots = (m, r) :: vm.link_roots in
    vm.link_roots <-
      (if List.length roots > 64 then List.filteri (fun i _ -> i < 32) roots
       else roots);
    r

let register_intrinsic vm key f = Hashtbl.replace vm.intrinsics key f

let new_string vm ?(taint = Taint.clear) s =
  let o = Heap.alloc_string vm.heap s in
  o.Heap.taint <- taint;
  (Dvalue.Obj o.Heap.id, taint)

let string_of_value vm = function
  | Dvalue.Obj id -> (
    try Heap.string_value vm.heap id
    with Invalid_argument _ | Not_found -> err "not a string object")
  | Dvalue.Null -> err "null string"
  | Dvalue.Int _ | Dvalue.Long _ | Dvalue.Float _ | Dvalue.Double _ ->
    err "not a string object"

let throw vm cls msg =
  (* A Java exception object: one slot for the detail message. *)
  let o = Heap.alloc_instance vm.heap cls 1 in
  let msg_v, msg_t = new_string vm msg in
  (match o.Heap.kind with
   | Heap.Instance { values; taints; _ } ->
     values.(0) <- msg_v;
     taints.(0) <- msg_t
   | Heap.String _ | Heap.Array _ -> assert false);
  raise (Java_throw (Dvalue.Obj o.Heap.id, Taint.clear))
