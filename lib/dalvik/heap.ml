module Taint = Ndroid_taint.Taint
module Budget = Ndroid_budget.Budget

type kind =
  | String of string
  | Array of { elem_type : string; elems : Dvalue.t array }
  | Instance of { cls : string; values : Dvalue.t array; taints : Taint.t array }

type obj = {
  id : int;
  mutable addr : int;
  mutable kind : kind;
  mutable taint : Taint.t;
}

type t = {
  objects : (int, obj) Hashtbl.t;
  by_addr : (int, int) Hashtbl.t;  (* direct pointer -> id *)
  mutable next_id : int;
  mutable bump : int;
  base : int;
  mutable epoch : int;
  mutable allocations : int;
  budget : Budget.t;
}

let create ?(base = 0x41000000) () =
  { objects = Hashtbl.create 256;
    by_addr = Hashtbl.create 256;
    next_id = 1;
    bump = base;
    base;
    epoch = 0;
    allocations = 0;
    budget = Budget.current () }

(* Object "sizes" for address spacing: enough that direct pointers look like
   real, distinct allocations in the logs. *)
let obj_size kind =
  let payload =
    match kind with
    | String s -> String.length s * 2
    | Array { elems; _ } -> Array.length elems * 4
    | Instance { values; _ } -> Array.length values * 8
  in
  (16 + payload + 7) land lnot 7

let alloc h kind =
  let id = h.next_id in
  h.next_id <- id + 1;
  let addr = h.bump in
  h.bump <- h.bump + obj_size kind;
  let o = { id; addr; kind; taint = Taint.clear } in
  Hashtbl.replace h.objects id o;
  Hashtbl.replace h.by_addr addr id;
  h.allocations <- h.allocations + 1;
  o

(* Strings and arrays pay one budget unit per char or element, before
   they exist: the app chooses their sizes, and one bytecode or host call
   must not buy unbounded memory. *)
let alloc_string h s =
  Budget.charge h.budget (String.length s);
  alloc h (String s)

let alloc_array h elem_type n =
  Budget.charge h.budget n;
  alloc h (Array { elem_type; elems = Array.make n Dvalue.zero })

let alloc_instance h cls nfields =
  alloc h
    (Instance
       { cls;
         values = Array.make nfields Dvalue.zero;
         taints = Array.make nfields Taint.clear })

let get h id = Hashtbl.find h.objects id

let find_by_addr h addr =
  match Hashtbl.find_opt h.by_addr addr with
  | Some id -> Hashtbl.find_opt h.objects id
  | None -> None

let string_value h id =
  match (get h id).kind with
  | String s -> s
  | Array _ | Instance _ -> invalid_arg "Heap.string_value: not a string"

let set_string_value h id s =
  let o = get h id in
  match o.kind with
  | String _ ->
    Budget.charge h.budget (String.length s);
    o.kind <- String s
  | Array _ | Instance _ -> invalid_arg "Heap.set_string_value: not a string"

let compact h =
  (* Two semispaces: alternate the bump base so every address changes. *)
  h.epoch <- h.epoch + 1;
  let semispace = if h.epoch land 1 = 1 then h.base + 0x00400000 else h.base in
  Hashtbl.reset h.by_addr;
  let bump = ref semispace in
  (* Move objects in ascending id order for determinism. *)
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) h.objects [] in
  List.iter
    (fun id ->
      let o = Hashtbl.find h.objects id in
      o.addr <- !bump;
      bump := !bump + obj_size o.kind;
      Hashtbl.replace h.by_addr o.addr o.id)
    (List.sort compare ids);
  h.bump <- !bump

let epoch h = h.epoch
let live_objects h = Hashtbl.length h.objects
let allocations h = h.allocations
let iter h f = Hashtbl.iter (fun _ o -> f o) h.objects
