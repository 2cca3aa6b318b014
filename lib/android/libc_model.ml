module Cpu = Ndroid_arm.Cpu
module Memory = Ndroid_arm.Memory
module Budget = Ndroid_budget.Budget

type ctx = {
  fs : Filesystem.t;
  net : Network.t;
  heap : Native_heap.t;
  files : (int, int) Hashtbl.t;  (* FILE* -> fd *)
  mutable file_bump : int;
  mutable dl_open : (string -> int) option;
      (* the runtime's dynamic loader: library name -> handle (0 on error) *)
  mutable dl_sym : (int -> string -> int) option;
      (* handle -> symbol -> address (0 when absent) *)
}

let create_ctx fs net heap =
  (* FILE structures live in libc's data segment; the first stream lands at
     the address visible in the paper's Fig. 8 log. *)
  { fs; net; heap; files = Hashtbl.create 8; file_bump = 0x4006fd44;
    dl_open = None; dl_sym = None }

let mask32 = 0xFFFFFFFF

let arg cpu mem i =
  if i < 4 then Cpu.reg cpu i else Memory.read_u32 mem (Cpu.sp cpu + (4 * (i - 4)))

let ret cpu v = Cpu.set_reg cpu 0 (v land mask32)

let signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

type vararg = Str of { addr : int; value : string } | Num of int

let format_args mem cpu ~fmt ~first =
  let fmt_s = Memory.read_cstring mem fmt in
  let buf = Buffer.create (String.length fmt_s + 16) in
  let consumed = ref [] in
  let argi = ref first in
  let next_arg () =
    let v = arg cpu mem !argi in
    incr argi;
    v
  in
  let n = String.length fmt_s in
  let rec go i =
    if i >= n then ()
    else if fmt_s.[i] = '%' && i + 1 < n then begin
      (match fmt_s.[i + 1] with
       | 's' ->
         let addr = next_arg () in
         let value = Memory.read_cstring mem addr in
         consumed := Str { addr; value } :: !consumed;
         Buffer.add_string buf value
       | 'd' ->
         let v = next_arg () in
         consumed := Num v :: !consumed;
         Buffer.add_string buf (string_of_int (signed v))
       | 'u' ->
         let v = next_arg () in
         consumed := Num v :: !consumed;
         Buffer.add_string buf (string_of_int v)
       | 'x' ->
         let v = next_arg () in
         consumed := Num v :: !consumed;
         Buffer.add_string buf (Printf.sprintf "%x" v)
       | 'c' ->
         let v = next_arg () in
         consumed := Num v :: !consumed;
         Buffer.add_char buf (Char.chr (v land 0xFF))
       | '%' -> Buffer.add_char buf '%'
       | c ->
         Buffer.add_char buf '%';
         Buffer.add_char buf c);
      go (i + 2)
    end
    else begin
      Buffer.add_char buf fmt_s.[i];
      go (i + 1)
    end
  in
  go 0;
  (Buffer.contents buf, List.rev !consumed)

let file_fd ctx file_ptr = Hashtbl.find_opt ctx.files file_ptr

let set_dl ctx ~dl_open ~dl_sym =
  ctx.dl_open <- Some dl_open;
  ctx.dl_sym <- Some dl_sym

let new_file ctx fd =
  let ptr = ctx.file_bump in
  ctx.file_bump <- ctx.file_bump + 0x54;
  Hashtbl.replace ctx.files ptr fd;
  ptr

let copy_bytes mem ~src ~dst ~len =
  (* snapshot first: memmove semantics for overlapping ranges *)
  let snap = Memory.read_bytes mem src len in
  Memory.write_bytes mem dst snap

let lower s = String.lowercase_ascii s

(* --- individual functions --- *)

let fn_memcpy _ctx cpu mem =
  let dst = arg cpu mem 0 and src = arg cpu mem 1 and n = arg cpu mem 2 in
  copy_bytes mem ~src ~dst ~len:n;
  ret cpu dst

let fn_memset _ctx cpu mem =
  let dst = arg cpu mem 0 and c = arg cpu mem 1 and n = arg cpu mem 2 in
  for i = 0 to n - 1 do
    Memory.write_u8 mem (dst + i) c
  done;
  ret cpu dst

let fn_memcmp _ctx cpu mem =
  let a = arg cpu mem 0 and b = arg cpu mem 1 and n = arg cpu mem 2 in
  let rec loop i =
    if i >= n then 0
    else
      let d = Memory.read_u8 mem (a + i) - Memory.read_u8 mem (b + i) in
      if d <> 0 then d else loop (i + 1)
  in
  ret cpu (loop 0)

let fn_memchr _ctx cpu mem =
  let s = arg cpu mem 0 and c = arg cpu mem 1 land 0xFF and n = arg cpu mem 2 in
  let rec loop i =
    if i >= n then 0
    else if Memory.read_u8 mem (s + i) = c then s + i
    else loop (i + 1)
  in
  ret cpu (loop 0)

let fn_strlen _ctx cpu mem =
  ret cpu (String.length (Memory.read_cstring mem (arg cpu mem 0)))

let str_compare ~ci ~limit cpu mem =
  let a = Memory.read_cstring mem (arg cpu mem 0)
  and b = Memory.read_cstring mem (arg cpu mem 1) in
  let a, b = if ci then (lower a, lower b) else (a, b) in
  let a, b =
    match limit with
    | Some n ->
      let cut s = if String.length s > n then String.sub s 0 n else s in
      (cut a, cut b)
    | None -> (a, b)
  in
  ret cpu (compare a b)

let fn_strcmp _ctx cpu mem = str_compare ~ci:false ~limit:None cpu mem

let fn_strncmp _ctx cpu mem =
  str_compare ~ci:false ~limit:(Some (arg cpu mem 2)) cpu mem

let fn_strcasecmp _ctx cpu mem = str_compare ~ci:true ~limit:None cpu mem

let fn_strncasecmp _ctx cpu mem =
  str_compare ~ci:true ~limit:(Some (arg cpu mem 2)) cpu mem

let fn_strcpy _ctx cpu mem =
  let dst = arg cpu mem 0 and src = arg cpu mem 1 in
  let s = Memory.read_cstring mem src in
  Memory.write_cstring mem dst s;
  ret cpu dst

let fn_strncpy _ctx cpu mem =
  let dst = arg cpu mem 0 and src = arg cpu mem 1 and n = arg cpu mem 2 in
  let s = Memory.read_cstring mem src in
  let len = min (String.length s) n in
  Memory.write_string mem dst (String.sub s 0 len);
  for i = len to n - 1 do
    Memory.write_u8 mem (dst + i) 0
  done;
  ret cpu dst

let fn_strcat _ctx cpu mem =
  let dst = arg cpu mem 0 and src = arg cpu mem 1 in
  let d = Memory.read_cstring mem dst and s = Memory.read_cstring mem src in
  Memory.write_cstring mem (dst + String.length d) s;
  ignore s;
  ret cpu dst

let find_char mem s c ~from_end =
  let str = Memory.read_cstring mem s in
  let pos =
    if from_end then String.rindex_opt str (Char.chr (c land 0xFF))
    else String.index_opt str (Char.chr (c land 0xFF))
  in
  match pos with Some i -> s + i | None -> 0

let fn_strchr _ctx cpu mem =
  ret cpu (find_char mem (arg cpu mem 0) (arg cpu mem 1) ~from_end:false)

let fn_strrchr _ctx cpu mem =
  ret cpu (find_char mem (arg cpu mem 0) (arg cpu mem 1) ~from_end:true)

let fn_strstr _ctx cpu mem =
  let hay_addr = arg cpu mem 0 in
  let hay = Memory.read_cstring mem hay_addr
  and needle = Memory.read_cstring mem (arg cpu mem 1) in
  if needle = "" then ret cpu hay_addr
  else begin
    let nl = String.length needle and hl = String.length hay in
    let rec loop i =
      if i + nl > hl then 0
      else if String.sub hay i nl = needle then hay_addr + i
      else loop (i + 1)
    in
    ret cpu (loop 0)
  end

let parse_int s =
  let s = String.trim s in
  let rec digits i = if i < String.length s && (s.[i] >= '0' && s.[i] <= '9') then digits (i+1) else i in
  let start = if String.length s > 0 && (s.[0] = '-' || s.[0] = '+') then 1 else 0 in
  let stop = digits start in
  if stop = start then 0 else int_of_string (String.sub s 0 stop)

let fn_atoi _ctx cpu mem = ret cpu (parse_int (Memory.read_cstring mem (arg cpu mem 0)))
let fn_atol = fn_atoi

let fn_strtoul _ctx cpu mem =
  let s = Memory.read_cstring mem (arg cpu mem 0) in
  let endp = arg cpu mem 1 in
  let v = parse_int s in
  if endp <> 0 then Memory.write_u32 mem endp (arg cpu mem 0 + String.length s);
  ret cpu v

let fn_malloc ctx cpu mem =
  ignore mem;
  ret cpu (Native_heap.malloc ctx.heap (arg cpu mem 0))

let fn_calloc ctx cpu mem =
  let n = arg cpu mem 0 * arg cpu mem 1 in
  let p = Native_heap.malloc ctx.heap n in
  for i = 0 to n - 1 do
    Memory.write_u8 mem (p + i) 0
  done;
  ret cpu p

let fn_free ctx cpu mem =
  ignore mem;
  Native_heap.free ctx.heap (arg cpu mem 0);
  ret cpu 0

let fn_realloc ctx cpu mem =
  let old = arg cpu mem 0 and n = arg cpu mem 1 in
  let fresh, old_size = Native_heap.realloc ctx.heap old n in
  if old <> 0 && old_size > 0 then
    copy_bytes mem ~src:old ~dst:fresh ~len:(min old_size n);
  ret cpu fresh

let fn_strdup ctx cpu mem =
  let s = Memory.read_cstring mem (arg cpu mem 0) in
  let p = Native_heap.malloc ctx.heap (String.length s + 1) in
  Memory.write_cstring mem p s;
  ret cpu p

let fn_sprintf _ctx cpu mem =
  let buf = arg cpu mem 0 in
  let rendered, _ = format_args mem cpu ~fmt:(arg cpu mem 1) ~first:2 in
  Memory.write_cstring mem buf rendered;
  ret cpu (String.length rendered)

let fn_snprintf _ctx cpu mem =
  let buf = arg cpu mem 0 and n = arg cpu mem 1 in
  let rendered, _ = format_args mem cpu ~fmt:(arg cpu mem 2) ~first:3 in
  let cut = if String.length rendered >= n then String.sub rendered 0 (max 0 (n - 1)) else rendered in
  Memory.write_cstring mem buf cut;
  ret cpu (String.length rendered)

let fn_sscanf _ctx cpu mem =
  (* minimal %d / %s support *)
  let input = Memory.read_cstring mem (arg cpu mem 0) in
  let fmt = Memory.read_cstring mem (arg cpu mem 1) in
  let tokens =
    String.split_on_char ' ' input |> List.filter (fun s -> s <> "")
  in
  let specs =
    let rec collect i acc =
      if i + 1 >= String.length fmt then List.rev acc
      else if fmt.[i] = '%' then collect (i + 2) (fmt.[i + 1] :: acc)
      else collect (i + 1) acc
    in
    collect 0 []
  in
  let rec fill i specs tokens matched =
    match (specs, tokens) with
    | [], _ | _, [] -> matched
    | spec :: specs', tok :: tokens' ->
      let dst = arg cpu mem (2 + i) in
      (match spec with
       | 'd' -> Memory.write_u32 mem dst (parse_int tok land mask32)
       | 's' -> Memory.write_cstring mem dst tok
       | _ -> ());
      fill (i + 1) specs' tokens' (matched + 1)
  in
  ret cpu (fill 0 specs tokens 0)

let fn_sysconf _ctx cpu mem =
  ignore mem;
  (* _SC_PAGESIZE and friends: one plausible constant. *)
  ret cpu 4096

(* --- stdio --- *)

let fn_fopen ctx cpu mem =
  let path = Memory.read_cstring mem (arg cpu mem 0) in
  let mode = Memory.read_cstring mem (arg cpu mem 1) in
  let open_mode =
    if String.length mode > 0 && mode.[0] = 'r' then `Read
    else if String.length mode > 0 && mode.[0] = 'a' then `Append
    else `Write
  in
  match Filesystem.open_file ctx.fs path open_mode with
  | fd -> ret cpu (new_file ctx fd)
  | exception Not_found -> ret cpu 0

let fn_fclose ctx cpu mem =
  let ptr = arg cpu mem 0 in
  (match file_fd ctx ptr with
   | Some fd ->
     Filesystem.close ctx.fs fd;
     Hashtbl.remove ctx.files ptr
   | None -> ());
  ignore mem;
  ret cpu 0

let with_file ctx cpu mem ~file_arg f =
  match file_fd ctx (arg cpu mem file_arg) with
  | Some fd -> f fd
  | None -> ret cpu 0

let fn_fwrite ctx cpu mem =
  with_file ctx cpu mem ~file_arg:3 (fun fd ->
      let ptr = arg cpu mem 0 and size = arg cpu mem 1 and n = arg cpu mem 2 in
      let data = Bytes.to_string (Memory.read_bytes mem ptr (size * n)) in
      ignore (Filesystem.write ctx.fs fd data);
      ret cpu n)

let fn_fread ctx cpu mem =
  with_file ctx cpu mem ~file_arg:3 (fun fd ->
      let ptr = arg cpu mem 0 and size = arg cpu mem 1 and n = arg cpu mem 2 in
      let data = Filesystem.read ctx.fs fd (size * n) in
      Memory.write_string mem ptr data;
      ret cpu (String.length data / max 1 size))

let fn_fputs ctx cpu mem =
  with_file ctx cpu mem ~file_arg:1 (fun fd ->
      let s = Memory.read_cstring mem (arg cpu mem 0) in
      ignore (Filesystem.write ctx.fs fd s);
      ret cpu (String.length s))

let fn_fputc ctx cpu mem =
  with_file ctx cpu mem ~file_arg:1 (fun fd ->
      let c = arg cpu mem 0 land 0xFF in
      ignore (Filesystem.write ctx.fs fd (String.make 1 (Char.chr c)));
      ret cpu c)

let fn_fgets ctx cpu mem =
  with_file ctx cpu mem ~file_arg:2 (fun fd ->
      let buf = arg cpu mem 0 and n = arg cpu mem 1 in
      let data = Filesystem.read ctx.fs fd (max 0 (n - 1)) in
      if data = "" then ret cpu 0
      else begin
        Memory.write_cstring mem buf data;
        ret cpu buf
      end)

let fn_getc ctx cpu mem =
  with_file ctx cpu mem ~file_arg:0 (fun fd ->
      let data = Filesystem.read ctx.fs fd 1 in
      ret cpu (if data = "" then -1 else Char.code data.[0]))

let fn_fprintf ctx cpu mem =
  with_file ctx cpu mem ~file_arg:0 (fun fd ->
      let rendered, _ = format_args mem cpu ~fmt:(arg cpu mem 1) ~first:2 in
      ignore (Filesystem.write ctx.fs fd rendered);
      ret cpu (String.length rendered))

let fn_fdopen ctx cpu mem =
  ignore mem;
  ret cpu (new_file ctx (arg cpu mem 0))

(* --- file descriptors --- *)

let fn_open ctx cpu mem =
  let path = Memory.read_cstring mem (arg cpu mem 0) in
  let flags = arg cpu mem 1 in
  let mode = if flags land 1 <> 0 || flags land 0x40 <> 0 then `Append else `Read in
  (match Filesystem.open_file ctx.fs path mode with
   | fd -> ret cpu fd
   | exception Not_found ->
     (* O_CREAT *)
     if flags land 0x40 <> 0 then begin
       Filesystem.set_contents ctx.fs path "";
       ret cpu (Filesystem.open_file ctx.fs path `Append)
     end
     else ret cpu (-1 land mask32))

let fn_close ctx cpu mem =
  ignore mem;
  Filesystem.close ctx.fs (arg cpu mem 0);
  Network.close ctx.net (arg cpu mem 0);
  ret cpu 0

let fn_write ctx cpu mem =
  let fd = arg cpu mem 0 and buf = arg cpu mem 1 and n = arg cpu mem 2 in
  let data = Bytes.to_string (Memory.read_bytes mem buf n) in
  (match Filesystem.path_of_fd ctx.fs fd with
   | Some _ -> ignore (Filesystem.write ctx.fs fd data)
   | None -> (
     (* maybe a socket *)
     try ignore (Network.send ctx.net fd data) with Invalid_argument _ -> ()));
  ret cpu n

let fn_read ctx cpu mem =
  let fd = arg cpu mem 0 and buf = arg cpu mem 1 and n = arg cpu mem 2 in
  match Filesystem.path_of_fd ctx.fs fd with
  | Some _ ->
    let data = Filesystem.read ctx.fs fd n in
    Memory.write_string mem buf data;
    ret cpu (String.length data)
  | None -> ret cpu 0

let fn_mkdir _ctx cpu mem =
  ignore mem;
  ret cpu 0

let fn_stat _ctx cpu mem =
  ignore mem;
  ret cpu 0

let fn_mmap ctx cpu mem =
  ignore mem;
  ret cpu (Native_heap.malloc ctx.heap (arg cpu mem 1))

let fn_munmap ctx cpu mem =
  ignore mem;
  Native_heap.free ctx.heap (arg cpu mem 0);
  ret cpu 0

let fn_ret0 _ctx cpu mem =
  ignore mem;
  ret cpu 0

(* --- sockets --- *)

let fn_socket ctx cpu mem =
  ignore mem;
  ret cpu (Network.socket ctx.net)

let fn_connect ctx cpu mem =
  (* The simulated sockaddr is simply a C string naming the destination. *)
  let fd = arg cpu mem 0 in
  let dest = Memory.read_cstring mem (arg cpu mem 1) in
  (try
     Network.connect ctx.net fd dest;
     ret cpu 0
   with Invalid_argument _ -> ret cpu (-1 land mask32))

let fn_send ctx cpu mem =
  let fd = arg cpu mem 0 and buf = arg cpu mem 1 and n = arg cpu mem 2 in
  let data = Bytes.to_string (Memory.read_bytes mem buf n) in
  (try ret cpu (Network.send ctx.net fd data)
   with Invalid_argument _ -> ret cpu (-1 land mask32))

let fn_sendto ctx cpu mem =
  let fd = arg cpu mem 0 and buf = arg cpu mem 1 and n = arg cpu mem 2 in
  let dest = Memory.read_cstring mem (arg cpu mem 4) in
  let data = Bytes.to_string (Memory.read_bytes mem buf n) in
  (try ret cpu (Network.sendto ctx.net fd data dest)
   with Invalid_argument _ -> ret cpu (-1 land mask32))

let fn_recv ctx cpu mem =
  let fd = arg cpu mem 0 and buf = arg cpu mem 1 and n = arg cpu mem 2 in
  (try
     let data = Network.recv ctx.net fd in
     let data = if String.length data > n then String.sub data 0 n else data in
     Memory.write_string mem buf data;
     ret cpu (String.length data)
   with Invalid_argument _ -> ret cpu (-1 land mask32))

(* --- work charges --- *)

(* A host call costs the machine one budget unit, whatever it does.  A
   function whose work grows with a size its arguments choose also pays
   one unit per byte, before it runs, so that no argument buys unbounded
   work for one unit: memset(p, 0, -1) runs the budget out instead of
   writing 4 GiB.  C strings count up to [Memory.read_cstring]'s 64 KiB
   cap, scanned without copying. *)

let cstr_cap = 65536

(* a top-level loop: a local one would allocate its closure per call *)
let rec cstr_scan mem addr i =
  if i >= cstr_cap || Memory.read_u8 mem (addr + i) = 0 then i
  else cstr_scan mem addr (i + 1)

let cstr_len mem addr = cstr_scan mem addr 0

(* a product of two 32-bit arguments, which can exceed [max_int] *)
let times a b = if a <> 0 && b > max_int / a then max_int else a * b

let charge_strings args b cpu mem =
  List.iter (fun i -> Budget.charge b (cstr_len mem (arg cpu mem i))) args

(* the format string and each [%s] argument, paid one string at a time:
   the total can far exceed the budget *)
let charge_format ~fmt ~first b cpu mem =
  let fmt_addr = arg cpu mem fmt in
  let n = cstr_len mem fmt_addr in
  Budget.charge b n;
  let argi = ref first in
  let i = ref 0 in
  while !i + 1 < n do
    if Memory.read_u8 mem (fmt_addr + !i) = Char.code '%' then begin
      (match Char.chr (Memory.read_u8 mem (fmt_addr + !i + 1)) with
       | 's' ->
         Budget.charge b (cstr_len mem (arg cpu mem !argi));
         incr argi
       | 'd' | 'u' | 'x' | 'c' -> incr argi
       | _ -> ());
      i := !i + 2
    end
    else incr i
  done

let charge name =
  let sized f = Some (fun b cpu mem -> Budget.charge b (f (arg cpu mem))) in
  match name with
  | "memcpy" | "memmove" | "memset" | "memcmp" | "memchr" | "write" | "send" ->
    sized (fun a -> a 2)
  | "calloc" -> sized (fun a -> times (a 0) (a 1))
  | "realloc" -> sized (fun a -> a 1)
  | "fwrite" -> sized (fun a -> times (a 1) (a 2))
  | "strncpy" ->
    Some (fun b cpu mem ->
        Budget.charge b (arg cpu mem 2);
        charge_strings [ 1 ] b cpu mem)
  | "sendto" ->
    Some (fun b cpu mem ->
        Budget.charge b (arg cpu mem 2);
        charge_strings [ 4 ] b cpu mem)
  | "strstr" ->
    (* the naive search compares the needle at every haystack offset *)
    Some (fun b cpu mem ->
        Budget.charge b
          (times (cstr_len mem (arg cpu mem 0)) (cstr_len mem (arg cpu mem 1))))
  | "strlen" | "strchr" | "strrchr" | "strdup" | "atoi" | "atol" | "strtoul"
  | "fputs" | "open" | "dlopen" ->
    Some (charge_strings [ 0 ])
  | "strcpy" | "connect" | "dlsym" -> Some (charge_strings [ 1 ])
  | "strcmp" | "strncmp" | "strcasecmp" | "strncasecmp" | "strcat" | "fopen"
  | "sscanf" ->
    Some (charge_strings [ 0; 1 ])
  | "sprintf" | "vsprintf" -> Some (charge_format ~fmt:1 ~first:2)
  | "snprintf" | "vsnprintf" -> Some (charge_format ~fmt:2 ~first:3)
  | "fprintf" | "vfprintf" -> Some (charge_format ~fmt:1 ~first:2)
  | _ -> None

let functions =
  [ ("memcpy", fn_memcpy);
    ("memmove", fn_memcpy);
    ("memset", fn_memset);
    ("memcmp", fn_memcmp);
    ("memchr", fn_memchr);
    ("strlen", fn_strlen);
    ("strcmp", fn_strcmp);
    ("strncmp", fn_strncmp);
    ("strcasecmp", fn_strcasecmp);
    ("strncasecmp", fn_strncasecmp);
    ("strcpy", fn_strcpy);
    ("strncpy", fn_strncpy);
    ("strcat", fn_strcat);
    ("strchr", fn_strchr);
    ("strrchr", fn_strrchr);
    ("strstr", fn_strstr);
    ("atoi", fn_atoi);
    ("atol", fn_atol);
    ("strtoul", fn_strtoul);
    ("malloc", fn_malloc);
    ("calloc", fn_calloc);
    ("free", fn_free);
    ("realloc", fn_realloc);
    ("strdup", fn_strdup);
    ("sprintf", fn_sprintf);
    ("vsprintf", fn_sprintf);
    ("snprintf", fn_snprintf);
    ("vsnprintf", fn_snprintf);
    ("sscanf", fn_sscanf);
    ("sysconf", fn_sysconf);
    ("fopen", fn_fopen);
    ("fclose", fn_fclose);
    ("fwrite", fn_fwrite);
    ("fread", fn_fread);
    ("fputs", fn_fputs);
    ("fputc", fn_fputc);
    ("fgets", fn_fgets);
    ("getc", fn_getc);
    ("fprintf", fn_fprintf);
    ("vfprintf", fn_fprintf);
    ("fdopen", fn_fdopen);
    ("open", fn_open);
    ("close", fn_close);
    ("write", fn_write);
    ("read", fn_read);
    ("mkdir", fn_mkdir);
    ("stat", fn_stat);
    ("fstat", fn_stat);
    ("fcntl", fn_ret0);
    ("ioctl", fn_ret0);
    ("mmap", fn_mmap);
    ("munmap", fn_munmap);
    ("mprotect", fn_ret0);
    ("rename", fn_ret0);
    ("remove", fn_ret0);
    ("kill", fn_ret0);
    ("fork", fn_ret0);
    ("execve", fn_ret0);
    ("chown", fn_ret0);
    ("ptrace", fn_ret0);
    ("select", fn_ret0);
    ("listen", fn_ret0);
    ("accept", fn_ret0);
    ("bind", fn_ret0);
    ( "dlopen",
      fun ctx cpu mem ->
        let name = Memory.read_cstring mem (arg cpu mem 0) in
        let handle =
          match ctx.dl_open with Some dl -> dl name | None -> 0
        in
        ret cpu handle);
    ( "dlsym",
      fun ctx cpu mem ->
        let handle = arg cpu mem 0 in
        let sym = Memory.read_cstring mem (arg cpu mem 1) in
        let addr =
          match ctx.dl_sym with Some dl -> dl handle sym | None -> 0
        in
        ret cpu addr);
    ("dlclose", fn_ret0);
    ("socket", fn_socket);
    ("connect", fn_connect);
    ("send", fn_send);
    ("sendto", fn_sendto);
    ("recv", fn_recv);
    ("recvfrom", fn_recv) ]
