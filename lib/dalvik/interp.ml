module Taint = Ndroid_taint.Taint

exception Wrong_arity of string

let exec_binop op a b =
  let open Int32 in
  match op with
  | Bytecode.Add -> add a b
  | Bytecode.Sub -> sub a b
  | Bytecode.Mul -> mul a b
  | Bytecode.Div -> if b = 0l then raise Division_by_zero else div a b
  | Bytecode.Rem -> if b = 0l then raise Division_by_zero else rem a b
  | Bytecode.And -> logand a b
  | Bytecode.Or -> logor a b
  | Bytecode.Xor -> logxor a b
  | Bytecode.Shl -> shift_left a (to_int b land 31)
  | Bytecode.Shr -> shift_right a (to_int b land 31)
  | Bytecode.Ushr -> shift_right_logical a (to_int b land 31)

let exec_binop_wide op a b =
  let open Int64 in
  match op with
  | Bytecode.Add -> add a b
  | Bytecode.Sub -> sub a b
  | Bytecode.Mul -> mul a b
  | Bytecode.Div -> if b = 0L then raise Division_by_zero else div a b
  | Bytecode.Rem -> if b = 0L then raise Division_by_zero else rem a b
  | Bytecode.And -> logand a b
  | Bytecode.Or -> logor a b
  | Bytecode.Xor -> logxor a b
  | Bytecode.Shl -> shift_left a (to_int b land 63)
  | Bytecode.Shr -> shift_right a (to_int b land 63)
  | Bytecode.Ushr -> shift_right_logical a (to_int b land 63)

let exec_binop_float op a b =
  match op with
  | Bytecode.Add -> a +. b
  | Bytecode.Sub -> a -. b
  | Bytecode.Mul -> a *. b
  | Bytecode.Div -> a /. b
  | Bytecode.Rem -> Float.rem a b
  | Bytecode.And | Bytecode.Or | Bytecode.Xor | Bytecode.Shl | Bytecode.Shr
  | Bytecode.Ushr ->
    invalid_arg "bitwise operation on float"

let exec_unop op v =
  match (op, v) with
  | Bytecode.Neg, Dvalue.Int n -> Dvalue.Int (Int32.neg n)
  | Bytecode.Neg, Dvalue.Long n -> Dvalue.Long (Int64.neg n)
  | Bytecode.Neg, Dvalue.Float f -> Dvalue.Float (-.f)
  | Bytecode.Neg, Dvalue.Double f -> Dvalue.Double (-.f)
  | Bytecode.Not, v -> Dvalue.Int (Int32.lognot (Dvalue.as_int v))
  | Bytecode.Int_to_long, v -> Dvalue.Long (Dvalue.as_long v)
  | Bytecode.Int_to_float, v ->
    Dvalue.Float (Int32.float_of_bits (Int32.bits_of_float (Dvalue.as_float v)))
  | Bytecode.Int_to_double, v -> Dvalue.Double (Dvalue.as_double v)
  | Bytecode.Long_to_int, v -> Dvalue.Int (Dvalue.as_int v)
  | Bytecode.Float_to_int, v -> Dvalue.Int (Dvalue.as_int v)
  | Bytecode.Double_to_int, v -> Dvalue.Int (Dvalue.as_int v)
  | Bytecode.Float_to_double, v -> Dvalue.Double (Dvalue.as_double v)
  | Bytecode.Double_to_float, v ->
    Dvalue.Float (Int32.float_of_bits (Int32.bits_of_float (Dvalue.as_float v)))
  | Bytecode.Neg, (Dvalue.Null | Dvalue.Obj _) ->
    invalid_arg "neg on reference value"

let compare_values cmp a b =
  let c =
    match (a, b) with
    | Dvalue.Obj x, Dvalue.Obj y -> compare x y
    | Dvalue.Null, Dvalue.Null -> 0
    | Dvalue.Null, Dvalue.Obj _ -> -1
    | Dvalue.Obj _, Dvalue.Null -> 1
    | _ -> Int32.compare (Dvalue.as_int a) (Dvalue.as_int b)
  in
  match cmp with
  | Bytecode.Eq -> c = 0
  | Bytecode.Ne -> c <> 0
  | Bytecode.Lt -> c < 0
  | Bytecode.Ge -> c >= 0
  | Bytecode.Gt -> c > 0
  | Bytecode.Le -> c <= 0

let wrong_arity m expected got =
  raise
    (Wrong_arity
       (Printf.sprintf "%s expects %d args, got %d" (Classes.qualified_name m)
          expected got))

let zero_ret = (Dvalue.zero, Taint.clear)

(* Size/clear a pooled frame for [nregs] registers with [nlocals] low
   (local) registers; the caller writes the argument registers above. *)
let prep_frame (f : Vm.frame) nregs nlocals track =
  if Array.length f.Vm.f_regs < nregs then begin
    let n = max nregs 16 in
    f.Vm.f_regs <- Array.make n Dvalue.zero;
    f.Vm.f_taints <- Array.make n Taint.clear
  end
  else begin
    Array.fill f.Vm.f_regs 0 nlocals Dvalue.zero;
    if track then Array.fill f.Vm.f_taints 0 nlocals Taint.clear
  end

(* ------------------------------------------------------------------ *)
(* Fast path: pre-linked code, inline caches, pooled frames.           *)
(* ------------------------------------------------------------------ *)

let call_non_bytecode vm (m : Classes.method_def) args =
  match m.Classes.m_body with
  | Classes.Intrinsic key -> (
    match Hashtbl.find_opt vm.Vm.intrinsics key with
    | Some f ->
      let r = f vm args in
      vm.Vm.ret <- r;
      r
    | None ->
      raise (Vm.Dvm_error (Printf.sprintf "intrinsic %s not registered" key)))
  | Classes.Native _ -> (
    vm.Vm.counters.Vm.native_calls <- vm.Vm.counters.Vm.native_calls + 1;
    match vm.Vm.native_dispatch with
    | Some dispatch ->
      let r = dispatch vm m args in
      vm.Vm.ret <- r;
      r
    | None ->
      raise
        (Vm.Dvm_error
           (Printf.sprintf "no native dispatch installed for %s"
              (Classes.qualified_name m))))
  | Classes.Bytecode _ -> assert false

let rec invoke vm (m : Classes.method_def) args =
  vm.Vm.counters.Vm.invokes <- vm.Vm.counters.Vm.invokes + 1;
  let expected = Classes.ins_count m in
  if Array.length args <> expected then
    wrong_arity m expected (Array.length args);
  match m.Classes.m_body with
  | Classes.Intrinsic _ | Classes.Native _ -> call_non_bytecode vm m args
  | Classes.Bytecode _ -> (
    match (Vm.resolved_of_method vm m).Linked.r_body with
    | Linked.Not_bytecode -> assert false
    | Linked.Code lk ->
      (match vm.Vm.on_invoke with Some f -> f m | None -> ());
      let argc = Array.length args in
      let nregs = max m.Classes.m_registers argc in
      let track = vm.Vm.track_taint in
      let d = vm.Vm.depth in
      let f = Vm.frame vm d in
      vm.Vm.depth <- d + 1;
      prep_frame f nregs (nregs - argc) track;
      let first_in = nregs - argc in
      Array.iteri
        (fun i (v, t) ->
          f.Vm.f_regs.(first_in + i) <- v;
          if track then f.Vm.f_taints.(first_in + i) <- t)
        args;
      (match exec vm m lk f with
       | r ->
         vm.Vm.depth <- d;
         r
       | exception e ->
         vm.Vm.depth <- d;
         raise e))

(* Resolve an invoke site, consulting its monomorphic inline cache first:
   static/direct sites resolve exactly once; virtual sites skip the vtable
   hash lookup while the receiver class repeats. *)
and resolve_invoke vm (site : Linked.invoke_site) regs =
  match site.Linked.iv_kind with
  | Bytecode.Static | Bytecode.Direct -> (
    match site.Linked.iv_cache with
    | Some r -> r
    | None ->
      let r =
        Vm.find_method_arity vm site.Linked.iv_ref.Bytecode.m_class
          site.Linked.iv_ref.Bytecode.m_name site.Linked.iv_argc
      in
      site.Linked.iv_cache <- Some r;
      r)
  | Bytecode.Virtual ->
    if site.Linked.iv_argc = 0 then
      raise (Vm.Dvm_error "virtual invoke without receiver");
    (* dynamic dispatch on the receiver's class *)
    let dispatch_cls =
      match regs.(site.Linked.iv_args.(0)) with
      | Dvalue.Obj id -> (
        match (Heap.get vm.Vm.heap id).Heap.kind with
        | Heap.Instance { cls; _ } -> cls
        | Heap.String _ | Heap.Array _ -> site.Linked.iv_ref.Bytecode.m_class)
      | Dvalue.Null ->
        Vm.throw vm "Ljava/lang/NullPointerException;"
          (site.Linked.iv_ref.Bytecode.m_class ^ "->"
          ^ site.Linked.iv_ref.Bytecode.m_name)
      | Dvalue.Int _ | Dvalue.Long _ | Dvalue.Float _ | Dvalue.Double _ ->
        site.Linked.iv_ref.Bytecode.m_class
    in
    (match site.Linked.iv_cache with
     | Some r when String.equal site.Linked.iv_cls dispatch_cls -> r
     | Some _ | None ->
       let r =
         Vm.find_method_arity vm dispatch_cls
           site.Linked.iv_ref.Bytecode.m_name site.Linked.iv_argc
       in
       site.Linked.iv_cls <- dispatch_cls;
       site.Linked.iv_cache <- Some r;
       r)

and exec vm (m : Classes.method_def) (lk : Linked.t) (f : Vm.frame) =
  (* TaintDroid stack layout (Fig. 1): parameters land in the highest
     registers; locals occupy the low ones.  Taints sit next to values in
     the frame's flat arrays. *)
  let regs = f.Vm.f_regs in
  let taints = f.Vm.f_taints in
  let code = lk.Linked.l_code in
  let src = lk.Linked.l_src in
  let handlers = lk.Linked.l_handlers in
  let ncode = Array.length code in
  let counters = vm.Vm.counters in
  let track = vm.Vm.track_taint in
  let pending_exception = ref (Dvalue.Null, Taint.clear) in
  let get r = regs.(r) in
  let taint_of r = if track then taints.(r) else Taint.clear in
  let set r v t =
    regs.(r) <- v;
    if track then taints.(r) <- t
  in
  let heap_obj v =
    match v with
    | Dvalue.Obj id -> (
      try Heap.get vm.Vm.heap id
      with Not_found -> Vm.throw vm "Ljava/lang/RuntimeException;" "dangling ref")
    | Dvalue.Null ->
      Vm.throw vm "Ljava/lang/NullPointerException;" "null dereference"
    | Dvalue.Int _ | Dvalue.Long _ | Dvalue.Float _ | Dvalue.Double _ ->
      Vm.throw vm "Ljava/lang/RuntimeException;" "not a reference"
  in
  let cur_pc = ref 0 in
  let rec step pc =
    if pc < 0 || pc >= ncode then
      raise
        (Vm.Dvm_error
           (Printf.sprintf "pc %d out of range in %s" pc
              (Classes.qualified_name m)));
    cur_pc := pc;
    counters.Vm.bytecodes <- counters.Vm.bytecodes + 1;
    (match vm.Vm.on_bytecode with Some hook -> hook m src.(pc) | None -> ());
    match code.(pc) with
    | Linked.Nop -> step (pc + 1)
    | Linked.Const (r, v) ->
      set r v Taint.clear;
      step (pc + 1)
    | Linked.Const_string (r, s) ->
      let v, t = Vm.new_string vm s in
      set r v t;
      step (pc + 1)
    | Linked.Move (d, s) ->
      set d (get s) (taint_of s);
      step (pc + 1)
    | Linked.Move_result r ->
      let v, t = vm.Vm.ret in
      set r v (if track then t else Taint.clear);
      step (pc + 1)
    | Linked.Move_exception r ->
      let v, t = !pending_exception in
      set r v (if track then t else Taint.clear);
      step (pc + 1)
    | Linked.Return_void ->
      vm.Vm.ret <- zero_ret;
      vm.Vm.ret
    | Linked.Return r ->
      vm.Vm.ret <- (get r, taint_of r);
      vm.Vm.ret
    | Linked.Binop (op, d, a, b) ->
      set d
        (Dvalue.Int (exec_binop op (Dvalue.as_int (get a)) (Dvalue.as_int (get b))))
        (Taint.union (taint_of a) (taint_of b));
      step (pc + 1)
    | Linked.Binop_wide (op, d, a, b) ->
      set d
        (Dvalue.Long
           (exec_binop_wide op (Dvalue.as_long (get a)) (Dvalue.as_long (get b))))
        (Taint.union (taint_of a) (taint_of b));
      step (pc + 1)
    | Linked.Binop_float (op, d, a, b) ->
      let r = exec_binop_float op (Dvalue.as_float (get a)) (Dvalue.as_float (get b)) in
      set d
        (Dvalue.Float (Int32.float_of_bits (Int32.bits_of_float r)))
        (Taint.union (taint_of a) (taint_of b));
      step (pc + 1)
    | Linked.Binop_double (op, d, a, b) ->
      set d
        (Dvalue.Double
           (exec_binop_float op (Dvalue.as_double (get a)) (Dvalue.as_double (get b))))
        (Taint.union (taint_of a) (taint_of b));
      step (pc + 1)
    | Linked.Binop_lit (op, d, a, lit) ->
      set d
        (Dvalue.Int (exec_binop op (Dvalue.as_int (get a)) lit))
        (taint_of a);
      step (pc + 1)
    | Linked.Unop (op, d, s) ->
      set d (exec_unop op (get s)) (taint_of s);
      step (pc + 1)
    | Linked.Cmp_long (d, a, b) ->
      let c = Int64.compare (Dvalue.as_long (get a)) (Dvalue.as_long (get b)) in
      set d (Dvalue.Int (Int32.of_int c)) (Taint.union (taint_of a) (taint_of b));
      step (pc + 1)
    | Linked.If (c, a, b, target) ->
      if compare_values c (get a) (get b) then step target else step (pc + 1)
    | Linked.Ifz (c, a, target) ->
      let test =
        match c with
        | Bytecode.Eq -> not (Dvalue.truthy (get a))
        | Bytecode.Ne -> Dvalue.truthy (get a)
        | Bytecode.Lt | Bytecode.Ge | Bytecode.Gt | Bytecode.Le ->
          compare_values c (get a) (Dvalue.Int 0l)
      in
      if test then step target else step (pc + 1)
    | Linked.Goto target -> step target
    | Linked.New_instance (r, site) ->
      let size =
        if site.Linked.ns_size >= 0 then site.Linked.ns_size
        else begin
          let s = Vm.instance_size vm site.Linked.ns_cls in
          site.Linked.ns_size <- s;
          s
        end
      in
      let o = Heap.alloc_instance vm.Vm.heap site.Linked.ns_cls size in
      set r (Dvalue.Obj o.Heap.id) Taint.clear;
      step (pc + 1)
    | Linked.New_array (d, n, elem_type) ->
      let size = Int32.to_int (Dvalue.as_int (get n)) in
      if size < 0 then
        Vm.throw vm "Ljava/lang/NegativeArraySizeException;" (string_of_int size);
      let o = Heap.alloc_array vm.Vm.heap elem_type size in
      set d (Dvalue.Obj o.Heap.id) Taint.clear;
      step (pc + 1)
    | Linked.Array_length (d, a) ->
      let o = heap_obj (get a) in
      let len =
        match o.Heap.kind with
        | Heap.Array { elems; _ } -> Array.length elems
        | Heap.String s -> String.length s
        | Heap.Instance _ ->
          Vm.throw vm "Ljava/lang/RuntimeException;" "array-length on non-array"
      in
      (* TaintDroid: array length carries the array object's taint. *)
      set d (Dvalue.Int (Int32.of_int len)) (if track then o.Heap.taint else Taint.clear);
      step (pc + 1)
    | Linked.Aget (v, a, i) ->
      let o = heap_obj (get a) in
      let idx = Int32.to_int (Dvalue.as_int (get i)) in
      (match o.Heap.kind with
       | Heap.Array { elems; _ } ->
         if idx < 0 || idx >= Array.length elems then
           Vm.throw vm "Ljava/lang/ArrayIndexOutOfBoundsException;"
             (string_of_int idx);
         (* TaintDroid: one taint per array — the whole array's tag flows. *)
         set v elems.(idx)
           (if track then Taint.union o.Heap.taint (taint_of i) else Taint.clear)
       | Heap.String _ | Heap.Instance _ ->
         Vm.throw vm "Ljava/lang/RuntimeException;" "aget on non-array");
      step (pc + 1)
    | Linked.Aput (v, a, i) ->
      let o = heap_obj (get a) in
      let idx = Int32.to_int (Dvalue.as_int (get i)) in
      (match o.Heap.kind with
       | Heap.Array { elems; _ } ->
         if idx < 0 || idx >= Array.length elems then
           Vm.throw vm "Ljava/lang/ArrayIndexOutOfBoundsException;"
             (string_of_int idx);
         elems.(idx) <- get v;
         if track then o.Heap.taint <- Taint.union o.Heap.taint (taint_of v)
       | Heap.String _ | Heap.Instance _ ->
         Vm.throw vm "Ljava/lang/RuntimeException;" "aput on non-array");
      step (pc + 1)
    | Linked.Iget (v, ob, site) ->
      let o = heap_obj (get ob) in
      (match o.Heap.kind with
       | Heap.Instance { cls; values; taints = ftaints } ->
         let idx =
           if String.equal site.Linked.fs_cls cls then site.Linked.fs_idx
           else begin
             let i = Vm.field_index vm cls site.Linked.fs_ref.Bytecode.f_name in
             site.Linked.fs_cls <- cls;
             site.Linked.fs_idx <- i;
             i
           end
         in
         set v values.(idx) (if track then ftaints.(idx) else Taint.clear)
       | Heap.String _ | Heap.Array _ ->
         Vm.throw vm "Ljava/lang/RuntimeException;" "iget on non-instance");
      step (pc + 1)
    | Linked.Iput (v, ob, site) ->
      let o = heap_obj (get ob) in
      (match o.Heap.kind with
       | Heap.Instance { cls; values; taints = ftaints } ->
         let idx =
           if String.equal site.Linked.fs_cls cls then site.Linked.fs_idx
           else begin
             let i = Vm.field_index vm cls site.Linked.fs_ref.Bytecode.f_name in
             site.Linked.fs_cls <- cls;
             site.Linked.fs_idx <- i;
             i
           end
         in
         values.(idx) <- get v;
         if track then ftaints.(idx) <- taint_of v
       | Heap.String _ | Heap.Array _ ->
         Vm.throw vm "Ljava/lang/RuntimeException;" "iput on non-instance");
      step (pc + 1)
    | Linked.Sget (v, site) ->
      let cell =
        match site.Linked.ss_cell with
        | Some c -> c
        | None ->
          let c =
            Vm.static_ref vm site.Linked.ss_ref.Bytecode.f_class
              site.Linked.ss_ref.Bytecode.f_name
          in
          site.Linked.ss_cell <- Some c;
          c
      in
      let value, t = !cell in
      set v value (if track then t else Taint.clear);
      step (pc + 1)
    | Linked.Sput (v, site) ->
      let cell =
        match site.Linked.ss_cell with
        | Some c -> c
        | None ->
          let c =
            Vm.static_ref vm site.Linked.ss_ref.Bytecode.f_class
              site.Linked.ss_ref.Bytecode.f_name
          in
          site.Linked.ss_cell <- Some c;
          c
      in
      cell := (get v, taint_of v);
      step (pc + 1)
    | Linked.Invoke site ->
      let entry = resolve_invoke vm site regs in
      counters.Vm.invokes <- counters.Vm.invokes + 1;
      let argc = site.Linked.iv_argc in
      if entry.Linked.r_argc <> argc then
        wrong_arity entry.Linked.r_m entry.Linked.r_argc argc;
      (match entry.Linked.r_body with
       | Linked.Code clk ->
         let callee = entry.Linked.r_m in
         (match vm.Vm.on_invoke with Some hook -> hook callee | None -> ());
         (* Method spans are torrential, so like instruction events they
            ride the [tracing] gate, not just [on] — the name string below
            allocates and must stay off the metrics-only path. *)
         let obs = vm.Vm.obs in
         let traced = Ndroid_obs.Ring.tracing obs in
         if traced then
           Ndroid_obs.Ring.emit_invoke obs (Classes.qualified_name callee);
         let cn = max callee.Classes.m_registers argc in
         let d = vm.Vm.depth in
         let cf = Vm.frame vm d in
         vm.Vm.depth <- d + 1;
         prep_frame cf cn (cn - argc) track;
         let first_in = cn - argc in
         let cregs = cf.Vm.f_regs in
         let ctaints = cf.Vm.f_taints in
         let srcs = site.Linked.iv_args in
         for i = 0 to argc - 1 do
           let r = Array.unsafe_get srcs i in
           cregs.(first_in + i) <- regs.(r);
           if track then ctaints.(first_in + i) <- taints.(r)
         done;
         (match exec vm callee clk cf with
          | _ ->
            vm.Vm.depth <- d;
            if traced then
              Ndroid_obs.Ring.emit_return obs (Classes.qualified_name callee)
          | exception e ->
            vm.Vm.depth <- d;
            (* close the span on the unwind path too, so exported traces
               stay balanced without synthesis *)
            if traced then
              Ndroid_obs.Ring.emit_return obs (Classes.qualified_name callee);
            raise e)
       | Linked.Not_bytecode ->
         let srcs = site.Linked.iv_args in
         let args =
           Array.init argc (fun i ->
               let r = srcs.(i) in
               (regs.(r), if track then taints.(r) else Taint.clear))
         in
         ignore (call_non_bytecode vm entry.Linked.r_m args));
      step (pc + 1)
    | Linked.Packed_switch (r, first_key, targets) ->
      let v = Int32.to_int (Int32.sub (Dvalue.as_int (get r)) first_key) in
      if v >= 0 && v < Array.length targets then step targets.(v)
      else step (pc + 1)
    | Linked.Sparse_switch (r, entries) ->
      let v = Dvalue.as_int (get r) in
      (match Array.find_opt (fun (k, _) -> k = v) entries with
       | Some (_, target) -> step target
       | None -> step (pc + 1))
    | Linked.Throw r -> raise (Vm.Java_throw (get r, taint_of r))
    | Linked.Check_cast (_, _) -> step (pc + 1)
    | Linked.Instance_of (d, r, cls) ->
      let is =
        match get r with
        | Dvalue.Obj id -> (
          match (Heap.get vm.Vm.heap id).Heap.kind with
          | Heap.Instance { cls = c; _ } -> c = cls
          | Heap.String _ -> cls = "Ljava/lang/String;"
          | Heap.Array _ -> false)
        | Dvalue.Null | Dvalue.Int _ | Dvalue.Long _ | Dvalue.Float _
        | Dvalue.Double _ ->
          false
      in
      set d (Dvalue.Int (if is then 1l else 0l)) (taint_of r);
      step (pc + 1)
  in
  let find_handler pc =
    List.find_opt
      (fun h -> pc >= h.Classes.try_start && pc < h.Classes.try_end)
      handlers
  in
  let rec run pc =
    let outcome =
      try `Done (step pc) with
      | Vm.Java_throw (v, t) -> `Thrown (v, t)
      | Division_by_zero -> `Div_zero
      | Invalid_argument msg ->
        (* type-confused bytecode (e.g. arithmetic on a reference): a real
           VM's verifier rejects it; at runtime it is a VM error, never a
           crash of the VM process itself *)
        `Vm_error msg
    in
    match outcome with
    | `Done r -> r
    | `Thrown (v, t) -> (
      match find_handler !cur_pc with
      | Some h ->
        pending_exception := (v, t);
        run h.Classes.handler_pc
      | None -> raise (Vm.Java_throw (v, t)))
    | `Div_zero -> (
      match find_handler !cur_pc with
      | Some h ->
        let v, t = Vm.new_string vm "divide by zero" in
        pending_exception := (v, t);
        run h.Classes.handler_pc
      | None -> Vm.throw vm "Ljava/lang/ArithmeticException;" "divide by zero")
    | `Vm_error msg -> Vm.throw vm "Ljava/lang/VirtualMachineError;" msg
  in
  run 0

let invoke_by_name vm cls_name m_name args =
  invoke vm (Vm.find_method vm cls_name m_name) args

(* ------------------------------------------------------------------ *)
(* Reference path: the seed interpreter, kept verbatim as a semantic   *)
(* oracle for the differential tests and as the honest benchmark       *)
(* baseline.  Resolution uses the seed's uncached linear scans, not    *)
(* the memoized vtables/layouts above.                                 *)
(* ------------------------------------------------------------------ *)

let ref_err fmt = Format.kasprintf (fun s -> raise (Vm.Dvm_error s)) fmt

let rec ref_find_method vm cls_name m_name =
  let cls = Vm.find_class vm cls_name in
  match
    List.find_opt (fun m -> m.Classes.m_name = m_name) cls.Classes.c_methods
  with
  | Some m -> m
  | None -> (
    match cls.Classes.c_super with
    | Some super -> ref_find_method vm super m_name
    | None -> ref_err "method %s->%s not found" cls_name m_name)

let rec ref_field_layout vm cls_name =
  let cls = Vm.find_class vm cls_name in
  let inherited =
    match cls.Classes.c_super with Some s -> ref_field_layout vm s | None -> []
  in
  let next = List.length inherited in
  let own =
    List.filteri (fun _ f -> not f.Classes.fd_static) cls.Classes.c_fields
  in
  inherited @ List.mapi (fun i f -> (f.Classes.fd_name, next + i)) own

let ref_field_index vm cls_name f_name =
  match List.assoc_opt f_name (ref_field_layout vm cls_name) with
  | Some i -> i
  | None -> ref_err "field %s->%s not found" cls_name f_name

let ref_instance_size vm cls_name = List.length (ref_field_layout vm cls_name)

let rec invoke_reference vm (m : Classes.method_def) args =
  vm.Vm.counters.Vm.invokes <- vm.Vm.counters.Vm.invokes + 1;
  let expected = Classes.ins_count m in
  if Array.length args <> expected then
    wrong_arity m expected (Array.length args);
  match m.Classes.m_body with
  | Classes.Intrinsic _ | Classes.Native _ -> call_non_bytecode vm m args
  | Classes.Bytecode (code, handlers) ->
    (match vm.Vm.on_invoke with Some f -> f m | None -> ());
    run_bytecode_reference vm m args code handlers

and run_bytecode_reference vm m args code handlers =
  (* TaintDroid stack layout (Fig. 1): parameters land in the highest
     registers; locals occupy the low ones.  Taints sit next to values. *)
  let nregs = max m.Classes.m_registers (Array.length args) in
  let regs = Array.make nregs Dvalue.zero in
  let taints = Array.make nregs Taint.clear in
  let first_in = nregs - Array.length args in
  Array.iteri
    (fun i (v, t) ->
      regs.(first_in + i) <- v;
      taints.(first_in + i) <- t)
    args;
  let track = vm.Vm.track_taint in
  let pending_exception = ref (Dvalue.Null, Taint.clear) in
  let get r = regs.(r) in
  let taint_of r = if track then taints.(r) else Taint.clear in
  let set r v t =
    regs.(r) <- v;
    if track then taints.(r) <- t
  in
  let heap_obj v =
    match v with
    | Dvalue.Obj id -> (
      try Heap.get vm.Vm.heap id
      with Not_found -> Vm.throw vm "Ljava/lang/RuntimeException;" "dangling ref")
    | Dvalue.Null ->
      Vm.throw vm "Ljava/lang/NullPointerException;" "null dereference"
    | Dvalue.Int _ | Dvalue.Long _ | Dvalue.Float _ | Dvalue.Double _ ->
      Vm.throw vm "Ljava/lang/RuntimeException;" "not a reference"
  in
  let cur_pc = ref 0 in
  let rec step pc =
    if pc < 0 || pc >= Array.length code then
      raise (Vm.Dvm_error (Printf.sprintf "pc %d out of range in %s" pc
                             (Classes.qualified_name m)));
    cur_pc := pc;
    vm.Vm.counters.Vm.bytecodes <- vm.Vm.counters.Vm.bytecodes + 1;
    (match vm.Vm.on_bytecode with Some f -> f m code.(pc) | None -> ());
    match code.(pc) with
    | Bytecode.Nop -> step (pc + 1)
    | Bytecode.Const (r, v) ->
      set r v Taint.clear;
      step (pc + 1)
    | Bytecode.Const_string (r, s) ->
      let v, t = Vm.new_string vm s in
      set r v t;
      step (pc + 1)
    | Bytecode.Move (d, s) ->
      set d (get s) (taint_of s);
      step (pc + 1)
    | Bytecode.Move_result r ->
      let v, t = vm.Vm.ret in
      set r v (if track then t else Taint.clear);
      step (pc + 1)
    | Bytecode.Move_exception r ->
      let v, t = !pending_exception in
      set r v (if track then t else Taint.clear);
      step (pc + 1)
    | Bytecode.Return_void ->
      vm.Vm.ret <- (Dvalue.zero, Taint.clear);
      vm.Vm.ret
    | Bytecode.Return r ->
      vm.Vm.ret <- (get r, taint_of r);
      vm.Vm.ret
    | Bytecode.Binop (op, d, a, b) ->
      set d
        (Dvalue.Int (exec_binop op (Dvalue.as_int (get a)) (Dvalue.as_int (get b))))
        (Taint.union (taint_of a) (taint_of b));
      step (pc + 1)
    | Bytecode.Binop_wide (op, d, a, b) ->
      set d
        (Dvalue.Long
           (exec_binop_wide op (Dvalue.as_long (get a)) (Dvalue.as_long (get b))))
        (Taint.union (taint_of a) (taint_of b));
      step (pc + 1)
    | Bytecode.Binop_float (op, d, a, b) ->
      let r = exec_binop_float op (Dvalue.as_float (get a)) (Dvalue.as_float (get b)) in
      set d
        (Dvalue.Float (Int32.float_of_bits (Int32.bits_of_float r)))
        (Taint.union (taint_of a) (taint_of b));
      step (pc + 1)
    | Bytecode.Binop_double (op, d, a, b) ->
      set d
        (Dvalue.Double
           (exec_binop_float op (Dvalue.as_double (get a)) (Dvalue.as_double (get b))))
        (Taint.union (taint_of a) (taint_of b));
      step (pc + 1)
    | Bytecode.Binop_lit (op, d, a, lit) ->
      set d
        (Dvalue.Int (exec_binop op (Dvalue.as_int (get a)) lit))
        (taint_of a);
      step (pc + 1)
    | Bytecode.Unop (op, d, s) ->
      set d (exec_unop op (get s)) (taint_of s);
      step (pc + 1)
    | Bytecode.Cmp_long (d, a, b) ->
      let c = Int64.compare (Dvalue.as_long (get a)) (Dvalue.as_long (get b)) in
      set d (Dvalue.Int (Int32.of_int c)) (Taint.union (taint_of a) (taint_of b));
      step (pc + 1)
    | Bytecode.If (c, a, b, target) ->
      if compare_values c (get a) (get b) then step target else step (pc + 1)
    | Bytecode.Ifz (c, a, target) ->
      let test =
        match c with
        | Bytecode.Eq -> not (Dvalue.truthy (get a))
        | Bytecode.Ne -> Dvalue.truthy (get a)
        | Bytecode.Lt | Bytecode.Ge | Bytecode.Gt | Bytecode.Le ->
          compare_values c (get a) (Dvalue.Int 0l)
      in
      if test then step target else step (pc + 1)
    | Bytecode.Goto target -> step target
    | Bytecode.New_instance (r, cls) ->
      let o = Heap.alloc_instance vm.Vm.heap cls (ref_instance_size vm cls) in
      set r (Dvalue.Obj o.Heap.id) Taint.clear;
      step (pc + 1)
    | Bytecode.New_array (d, n, elem_type) ->
      let size = Int32.to_int (Dvalue.as_int (get n)) in
      if size < 0 then
        Vm.throw vm "Ljava/lang/NegativeArraySizeException;" (string_of_int size);
      let o = Heap.alloc_array vm.Vm.heap elem_type size in
      set d (Dvalue.Obj o.Heap.id) Taint.clear;
      step (pc + 1)
    | Bytecode.Array_length (d, a) ->
      let o = heap_obj (get a) in
      let len =
        match o.Heap.kind with
        | Heap.Array { elems; _ } -> Array.length elems
        | Heap.String s -> String.length s
        | Heap.Instance _ ->
          Vm.throw vm "Ljava/lang/RuntimeException;" "array-length on non-array"
      in
      (* TaintDroid: array length carries the array object's taint. *)
      set d (Dvalue.Int (Int32.of_int len)) (if track then o.Heap.taint else Taint.clear);
      step (pc + 1)
    | Bytecode.Aget (v, a, i) ->
      let o = heap_obj (get a) in
      let idx = Int32.to_int (Dvalue.as_int (get i)) in
      (match o.Heap.kind with
       | Heap.Array { elems; _ } ->
         if idx < 0 || idx >= Array.length elems then
           Vm.throw vm "Ljava/lang/ArrayIndexOutOfBoundsException;"
             (string_of_int idx);
         (* TaintDroid: one taint per array — the whole array's tag flows. *)
         set v elems.(idx)
           (if track then Taint.union o.Heap.taint (taint_of i) else Taint.clear)
       | Heap.String _ | Heap.Instance _ ->
         Vm.throw vm "Ljava/lang/RuntimeException;" "aget on non-array");
      step (pc + 1)
    | Bytecode.Aput (v, a, i) ->
      let o = heap_obj (get a) in
      let idx = Int32.to_int (Dvalue.as_int (get i)) in
      (match o.Heap.kind with
       | Heap.Array { elems; _ } ->
         if idx < 0 || idx >= Array.length elems then
           Vm.throw vm "Ljava/lang/ArrayIndexOutOfBoundsException;"
             (string_of_int idx);
         elems.(idx) <- get v;
         if track then o.Heap.taint <- Taint.union o.Heap.taint (taint_of v)
       | Heap.String _ | Heap.Instance _ ->
         Vm.throw vm "Ljava/lang/RuntimeException;" "aput on non-array");
      step (pc + 1)
    | Bytecode.Iget (v, ob, fref) ->
      let o = heap_obj (get ob) in
      (match o.Heap.kind with
       | Heap.Instance { cls; values; taints = ftaints } ->
         let idx = ref_field_index vm cls fref.Bytecode.f_name in
         set v values.(idx) (if track then ftaints.(idx) else Taint.clear)
       | Heap.String _ | Heap.Array _ ->
         Vm.throw vm "Ljava/lang/RuntimeException;" "iget on non-instance");
      step (pc + 1)
    | Bytecode.Iput (v, ob, fref) ->
      let o = heap_obj (get ob) in
      (match o.Heap.kind with
       | Heap.Instance { cls; values; taints = ftaints } ->
         let idx = ref_field_index vm cls fref.Bytecode.f_name in
         values.(idx) <- get v;
         if track then ftaints.(idx) <- taint_of v
       | Heap.String _ | Heap.Array _ ->
         Vm.throw vm "Ljava/lang/RuntimeException;" "iput on non-instance");
      step (pc + 1)
    | Bytecode.Sget (v, fref) ->
      let cell = Vm.static_ref vm fref.Bytecode.f_class fref.Bytecode.f_name in
      let value, t = !cell in
      set v value (if track then t else Taint.clear);
      step (pc + 1)
    | Bytecode.Sput (v, fref) ->
      let cell = Vm.static_ref vm fref.Bytecode.f_class fref.Bytecode.f_name in
      cell := (get v, taint_of v);
      step (pc + 1)
    | Bytecode.Invoke (kind, mref, arg_regs) ->
      let callee =
        match kind with
        | Bytecode.Static | Bytecode.Direct ->
          ref_find_method vm mref.Bytecode.m_class mref.Bytecode.m_name
        | Bytecode.Virtual -> (
          (* dynamic dispatch on the receiver's class *)
          match arg_regs with
          | this_reg :: _ -> (
            match get this_reg with
            | Dvalue.Obj id -> (
              let o = Heap.get vm.Vm.heap id in
              match o.Heap.kind with
              | Heap.Instance { cls; _ } ->
                ref_find_method vm cls mref.Bytecode.m_name
              | Heap.String _ | Heap.Array _ ->
                ref_find_method vm mref.Bytecode.m_class mref.Bytecode.m_name)
            | Dvalue.Null ->
              Vm.throw vm "Ljava/lang/NullPointerException;"
                (mref.Bytecode.m_class ^ "->" ^ mref.Bytecode.m_name)
            | Dvalue.Int _ | Dvalue.Long _ | Dvalue.Float _ | Dvalue.Double _ ->
              ref_find_method vm mref.Bytecode.m_class mref.Bytecode.m_name)
          | [] -> raise (Vm.Dvm_error "virtual invoke without receiver"))
      in
      let args =
        Array.of_list (List.map (fun r -> (get r, taint_of r)) arg_regs)
      in
      ignore (invoke_reference vm callee args);
      step (pc + 1)
    | Bytecode.Packed_switch (r, first_key, targets) ->
      let v = Int32.to_int (Int32.sub (Dvalue.as_int (get r)) first_key) in
      if v >= 0 && v < Array.length targets then step targets.(v)
      else step (pc + 1)
    | Bytecode.Sparse_switch (r, entries) ->
      let v = Dvalue.as_int (get r) in
      (match Array.find_opt (fun (k, _) -> k = v) entries with
       | Some (_, target) -> step target
       | None -> step (pc + 1))
    | Bytecode.Throw r -> raise (Vm.Java_throw (get r, taint_of r))
    | Bytecode.Check_cast (_, _) -> step (pc + 1)
    | Bytecode.Instance_of (d, r, cls) ->
      let is =
        match get r with
        | Dvalue.Obj id -> (
          match (Heap.get vm.Vm.heap id).Heap.kind with
          | Heap.Instance { cls = c; _ } -> c = cls
          | Heap.String _ -> cls = "Ljava/lang/String;"
          | Heap.Array _ -> false)
        | Dvalue.Null | Dvalue.Int _ | Dvalue.Long _ | Dvalue.Float _
        | Dvalue.Double _ ->
          false
      in
      set d (Dvalue.Int (if is then 1l else 0l)) (taint_of r);
      step (pc + 1)
  in
  let find_handler pc =
    List.find_opt
      (fun h -> pc >= h.Classes.try_start && pc < h.Classes.try_end)
      handlers
  in
  let rec run pc =
    let outcome =
      try `Done (step pc) with
      | Vm.Java_throw (v, t) -> `Thrown (v, t)
      | Division_by_zero -> `Div_zero
      | Invalid_argument msg ->
        (* type-confused bytecode (e.g. arithmetic on a reference): a real
           VM's verifier rejects it; at runtime it is a VM error, never a
           crash of the VM process itself *)
        `Vm_error msg
    in
    match outcome with
    | `Done r -> r
    | `Thrown (v, t) -> (
      match find_handler !cur_pc with
      | Some h ->
        pending_exception := (v, t);
        run h.Classes.handler_pc
      | None -> raise (Vm.Java_throw (v, t)))
    | `Div_zero -> (
      match find_handler !cur_pc with
      | Some h ->
        let v, t = Vm.new_string vm "divide by zero" in
        pending_exception := (v, t);
        run h.Classes.handler_pc
      | None -> Vm.throw vm "Ljava/lang/ArithmeticException;" "divide by zero")
    | `Vm_error msg -> Vm.throw vm "Ljava/lang/VirtualMachineError;" msg
  in
  run 0
