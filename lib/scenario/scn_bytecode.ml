(* Compact flat bytecode for compiled scenarios.

   One instruction is 16 bytes: opcode, three register operands, an
   arity, a string-pool id, and a 64-bit immediate. All names (log
   strings, env symbols, payload/hypercall/guest/state names) live in
   a shared string pool so the instruction stream stays fixed-width and
   a fuzzer can mutate it without re-laying-out the program. The
   on-disk form ([.scnc]) is the pool plus the header plus the two
   sections behind a versioned magic; the decoder is fully
   bounds-checked and never raises on hostile bytes. *)

type instr = {
  op : int;  (* u8 *)
  a : int;  (* u8, register or small operand *)
  b : int;  (* u8 *)
  c : int;  (* u8 *)
  n : int;  (* u8, call arity / operand count *)
  sid : int;  (* u16 string-pool index *)
  imm : int64;
}

let nop = { op = 0; a = 0; b = 0; c = 0; n = 0; sid = 0; imm = 0L }

(* Opcode assignments — stable; the disassembler and VM switch on them. *)
let op_halt = 0
let op_loadi = 1 (* a <- imm *)
let op_add = 2 (* a <- b + imm *)
let op_env = 3 (* a <- env str[sid] (imm) *)
let op_pte = 4 (* a <- pte(mfn = b, flags = imm bitmask over flag table) *)
let op_emaddr = 5 (* a <- entry_maddr(table = b, index = c) *)
let op_elin = 6 (* a <- entry_linear(table = b, index = c) *)
let op_log = 7 (* log str[sid] *)
let op_logf1 = 8 (* log fmt[sid] % a *)
let op_logf2 = 9 (* log fmt[sid] % (a, b) *)
let op_logerr = 10 (* log fmt[sid] % errno string *)
let op_inject = 11 (* port write: addr = a, value = b, action = imm *)
let op_injectr = 12 (* a <- port read: addr = b, action = imm *)
let op_hostw = 13 (* host 64-bit write: addr = a, value = b *)
let op_hc = 14 (* a <- hypercall str[sid] (args a.. per n from b, c) *)
let op_guest = 15 (* guest op str[sid] (args per n from a, b, c) *)
let op_payload = 16 (* payload str[sid] (args per n from a, b, c) *)
let op_state = 17 (* declare state str[sid] (args per n from a, b, c) *)
let op_tick = 18
let op_jmp = 19 (* pc <- imm *)
let op_jerr = 20 (* pc <- imm when the error flag is set *)
let op_jneg = 21 (* pc <- imm when reg a < 0 *)
let op_rcerr = 22 (* rc <- Some (rc of last errno) *)
let op_rcres = 23 (* rc <- Some (0 | rc of last errno) *)
let op_rcreg = 24 (* rc <- Some (reg a) *)
let op_rcnone = 25
let num_opcodes = 26

let op_name op =
  [|
    "halt"; "loadi"; "add"; "env"; "pte"; "entry-maddr"; "entry-linear"; "log"; "logf1";
    "logf2"; "log-errno"; "inject"; "inject-read"; "host-w64"; "hypercall"; "guest";
    "payload"; "state"; "tick-all"; "jmp"; "jmp-err"; "jmp-neg"; "rc-errno"; "rc-result";
    "rc-reg"; "rc-none";
  |].(op)

type backend_tag = Any | Xen_only | Kvm_only

let backend_tag_to_string = function Any -> "any" | Xen_only -> "xen" | Kvm_only -> "kvm"

let backend_tag_of_string = function
  | "any" -> Some Any
  | "xen" -> Some Xen_only
  | "kvm" -> Some Kvm_only
  | _ -> None

(* The compiled header mirrors {!Scn_ast.model} with every name interned. *)
type header = {
  h_name : int;
  h_xsa : int;
  h_description : int;
  h_backend : backend_tag;
  h_model_name : int;
  h_source : int;  (* index into Scn_ast.sources *)
  h_iface_kind : int;  (* 0 hypercall, 1 device-emulation, 2 instruction-interception *)
  h_iface_str : int;  (* sid; interns "" for instruction-interception *)
  h_target : int;  (* index into Scn_ast.targets *)
  h_functionality : int;  (* index into Abusive_functionality.all *)
  h_represents : int list;
  h_summary : int;
  h_expect : int list;  (* indices into Scn_ast.violation_classes *)
}

type program = { strings : string array; header : header; exploit : instr array; inject : instr array }

let magic = "IISCNC1\n"

let str p sid = if sid >= 0 && sid < Array.length p.strings then p.strings.(sid) else ""

(* --- log format mini-language ------------------------------------------- *)

(* The directives the corpus transcripts print with. [%s] is
   reserved for [log-errno] (exactly one, no other conversions). *)
let fmt_directives = [ "%016Lx"; "%Lx"; "%d"; "%x"; "%%" ]

let fmt_arity fmt =
  let n = String.length fmt in
  let rec go i arity =
    if i >= n then Ok arity
    else if fmt.[i] <> '%' then go (i + 1) arity
    else
      match
        List.find_opt
          (fun d -> i + String.length d <= n && String.sub fmt i (String.length d) = d)
          fmt_directives
      with
      | Some "%%" -> go (i + 2) arity
      | Some d -> go (i + String.length d) (arity + 1)
      | None -> Error (Printf.sprintf "unsupported format directive at offset %d of %S" i fmt)
  in
  go 0 0

let errno_fmt_ok fmt =
  (* exactly one %s and nothing else *)
  let n = String.length fmt in
  let rec go i seen =
    if i >= n then if seen then Ok () else Error (Printf.sprintf "log-errno format %S needs a %%s" fmt)
    else if fmt.[i] <> '%' then go (i + 1) seen
    else if i + 1 < n && fmt.[i + 1] = 's' && not seen then go (i + 2) true
    else if i + 1 < n && fmt.[i + 1] = '%' then go (i + 2) seen
    else Error (Printf.sprintf "log-errno format %S may only use a single %%s" fmt)
  in
  go 0 false

let render fmt args =
  let buf = Buffer.create (String.length fmt + 16) in
  let n = String.length fmt in
  let rec go i k =
    if i >= n then ()
    else if fmt.[i] <> '%' then (
      Buffer.add_char buf fmt.[i];
      go (i + 1) k)
    else
      match
        List.find_opt
          (fun d -> i + String.length d <= n && String.sub fmt i (String.length d) = d)
          fmt_directives
      with
      | Some "%%" ->
          Buffer.add_char buf '%';
          go (i + 2) k
      | Some d ->
          let v = if k < Array.length args then args.(k) else 0L in
          (match d with
          | "%016Lx" -> Buffer.add_string buf (Printf.sprintf "%016Lx" v)
          | "%Lx" | "%x" -> Buffer.add_string buf (Printf.sprintf "%Lx" v)
          | _ -> Buffer.add_string buf (Int64.to_string v));
          go (i + String.length d) (k + 1)
      | None ->
          Buffer.add_char buf '%';
          go (i + 1) k
  in
  go 0 0;
  Buffer.contents buf

let render_errno fmt s =
  let buf = Buffer.create (String.length fmt + String.length s) in
  let n = String.length fmt in
  let rec go i =
    if i >= n then ()
    else if fmt.[i] = '%' && i + 1 < n && fmt.[i + 1] = 's' then (
      Buffer.add_string buf s;
      go (i + 2))
    else if fmt.[i] = '%' && i + 1 < n && fmt.[i + 1] = '%' then (
      Buffer.add_char buf '%';
      go (i + 2))
    else (
      Buffer.add_char buf fmt.[i];
      go (i + 1))
  in
  go 0;
  Buffer.contents buf

(* --- binary codec -------------------------------------------------------- *)

let encode_instr buf i =
  Buffer.add_uint8 buf (i.op land 0xff);
  Buffer.add_uint8 buf (i.a land 0xff);
  Buffer.add_uint8 buf (i.b land 0xff);
  Buffer.add_uint8 buf (i.c land 0xff);
  Buffer.add_uint8 buf (i.n land 0xff);
  Buffer.add_uint8 buf 0;
  Buffer.add_uint16_le buf (i.sid land 0xffff);
  Buffer.add_int64_le buf i.imm

let encode p =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_int32_le buf (Int32.of_int (Array.length p.strings));
  Array.iter
    (fun s ->
      Buffer.add_int32_le buf (Int32.of_int (String.length s));
      Buffer.add_string buf s)
    p.strings;
  let h = p.header in
  let u16 v = Buffer.add_uint16_le buf (v land 0xffff) in
  let u8 v = Buffer.add_uint8 buf (v land 0xff) in
  u16 h.h_name;
  u16 h.h_xsa;
  u16 h.h_description;
  u8 (match h.h_backend with Any -> 0 | Xen_only -> 1 | Kvm_only -> 2);
  u16 h.h_model_name;
  u8 h.h_source;
  u8 h.h_iface_kind;
  u16 h.h_iface_str;
  u8 h.h_target;
  u8 h.h_functionality;
  u16 (List.length h.h_represents);
  List.iter u16 h.h_represents;
  u16 h.h_summary;
  u8 (List.length h.h_expect);
  List.iter u8 h.h_expect;
  let section a =
    Buffer.add_int32_le buf (Int32.of_int (Array.length a));
    Array.iter (encode_instr buf) a
  in
  section p.exploit;
  section p.inject;
  Buffer.contents buf

(* Bounds-checked little-endian reader over an immutable string. *)
type rd = { data : string; mutable pos : int }

let need r n what =
  if r.pos + n <= String.length r.data then Ok ()
  else Error (Printf.sprintf "truncated bytecode: %s at offset %d" what r.pos)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let ru8 r what =
  let* () = need r 1 what in
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  Ok v

let ru16 r what =
  let* () = need r 2 what in
  let v = Char.code r.data.[r.pos] lor (Char.code r.data.[r.pos + 1] lsl 8) in
  r.pos <- r.pos + 2;
  Ok v

let ru32 r what =
  let* () = need r 4 what in
  let v =
    Char.code r.data.[r.pos]
    lor (Char.code r.data.[r.pos + 1] lsl 8)
    lor (Char.code r.data.[r.pos + 2] lsl 16)
    lor (Char.code r.data.[r.pos + 3] lsl 24)
  in
  r.pos <- r.pos + 4;
  Ok v

let ri64 r what =
  let* () = need r 8 what in
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code r.data.[r.pos + i]))
  done;
  r.pos <- r.pos + 8;
  Ok !v

let rstr r len what =
  if len < 0 || len > String.length r.data - r.pos then
    Error (Printf.sprintf "truncated bytecode: %s at offset %d" what r.pos)
  else (
    let s = String.sub r.data r.pos len in
    r.pos <- r.pos + len;
    Ok s)

let decode_instr r =
  let* op = ru8 r "instruction opcode" in
  let* a = ru8 r "instruction operand a" in
  let* b = ru8 r "instruction operand b" in
  let* c = ru8 r "instruction operand c" in
  let* n = ru8 r "instruction arity" in
  let* _pad = ru8 r "instruction padding" in
  let* sid = ru16 r "instruction string id" in
  let* imm = ri64 r "instruction immediate" in
  if op >= num_opcodes then Error (Printf.sprintf "unknown opcode %d" op)
  else Ok { op; a; b; c; n; sid; imm }

let decode data : (program, string) result =
  let r = { data; pos = 0 } in
  let* m = rstr r (String.length magic) "magic" in
  if m <> magic then Error (Printf.sprintf "bad magic (expected %S)" magic)
  else
    let* nstr = ru32 r "string count" in
    if nstr > 0xffff then Error (Printf.sprintf "string pool too large (%d)" nstr)
    else
      let strings = Array.make nstr "" in
      let rec load i =
        if i >= nstr then Ok ()
        else
          let* len = ru32 r "string length" in
          let* s = rstr r len "string bytes" in
          strings.(i) <- s;
          load (i + 1)
      in
      let* () = load 0 in
      let sid what v = if v < nstr then Ok v else Error (Printf.sprintf "%s string id %d out of range" what v) in
      let* h_name = ru16 r "name sid" in
      let* h_name = sid "name" h_name in
      let* h_xsa = ru16 r "xsa sid" in
      let* h_xsa = sid "xsa" h_xsa in
      let* h_description = ru16 r "description sid" in
      let* h_description = sid "description" h_description in
      let* bk = ru8 r "backend tag" in
      let* h_backend =
        match bk with
        | 0 -> Ok Any
        | 1 -> Ok Xen_only
        | 2 -> Ok Kvm_only
        | n -> Error (Printf.sprintf "unknown backend tag %d" n)
      in
      let* h_model_name = ru16 r "model name sid" in
      let* h_model_name = sid "model name" h_model_name in
      let* h_source = ru8 r "source tag" in
      let* h_source =
        if h_source < List.length Scn_ast.sources then Ok h_source
        else Error (Printf.sprintf "unknown trigger-source tag %d" h_source)
      in
      let* h_iface_kind = ru8 r "interface tag" in
      let* h_iface_kind =
        if h_iface_kind < 3 then Ok h_iface_kind
        else Error (Printf.sprintf "unknown interface tag %d" h_iface_kind)
      in
      let* h_iface_str = ru16 r "interface string sid" in
      let* h_iface_str = sid "interface" h_iface_str in
      let* h_target = ru8 r "target tag" in
      let* h_target =
        if h_target < List.length Scn_ast.targets then Ok h_target
        else Error (Printf.sprintf "unknown target tag %d" h_target)
      in
      let* h_functionality = ru8 r "functionality tag" in
      let* h_functionality =
        if h_functionality < List.length Abusive_functionality.all then Ok h_functionality
        else Error (Printf.sprintf "unknown functionality tag %d" h_functionality)
      in
      let* nrep = ru16 r "represents count" in
      let rec reps i acc =
        if i >= nrep then Ok (List.rev acc)
        else
          let* v = ru16 r "represents sid" in
          let* v = sid "represents" v in
          reps (i + 1) (v :: acc)
      in
      let* h_represents = reps 0 [] in
      let* h_summary = ru16 r "summary sid" in
      let* h_summary = sid "summary" h_summary in
      let* nexp = ru8 r "expect count" in
      let rec exps i acc =
        if i >= nexp then Ok (List.rev acc)
        else
          let* v = ru8 r "expect tag" in
          if v >= List.length Scn_ast.violation_classes then
            Error (Printf.sprintf "unknown violation-class tag %d" v)
          else exps (i + 1) (v :: acc)
      in
      let* h_expect = exps 0 [] in
      let section what =
        let* count = ru32 r (what ^ " instruction count") in
        if count > 0x10000 then Error (Printf.sprintf "%s section too large (%d)" what count)
        else
          let rec instrs i acc =
            if i >= count then Ok (Array.of_list (List.rev acc))
            else
              let* ins = decode_instr r in
              let* _ = sid "instruction" ins.sid in
              instrs (i + 1) (ins :: acc)
          in
          instrs 0 []
      in
      let* exploit = section "exploit" in
      let* inject = section "inject" in
      if r.pos <> String.length data then
        Error (Printf.sprintf "trailing garbage after bytecode at offset %d" r.pos)
      else
        Ok
          {
            strings;
            header =
              {
                h_name;
                h_xsa;
                h_description;
                h_backend;
                h_model_name;
                h_source;
                h_iface_kind;
                h_iface_str;
                h_target;
                h_functionality;
                h_represents;
                h_summary;
                h_expect;
              };
            exploit;
            inject;
          }

(* --- header accessors ---------------------------------------------------- *)

let name p = str p p.header.h_name
let xsa p = str p p.header.h_xsa
let description p = str p p.header.h_description
let backend p = p.header.h_backend

let model p : Scn_ast.model =
  let h = p.header in
  {
    m_name = str p h.h_model_name;
    m_source = snd (List.nth Scn_ast.sources h.h_source);
    m_interface =
      (match h.h_iface_kind with
      | 0 -> Intrusion_model.Hypercall_interface (str p h.h_iface_str)
      | 1 -> Intrusion_model.Device_emulation (str p h.h_iface_str)
      | _ -> Intrusion_model.Instruction_interception);
    m_target = snd (List.nth Scn_ast.targets h.h_target);
    m_functionality = List.nth Abusive_functionality.all h.h_functionality;
    m_represents = List.map (str p) h.h_represents;
    m_summary = str p h.h_summary;
  }

let intrusion_model p = Scn_ast.intrusion_model (model p)
let expected_violations p = List.map (List.nth Scn_ast.violation_classes) p.header.h_expect

(* Pte flag bitmask: bit i of [imm] = membership of the i-th entry of
   {!Scn_ast.pte_flags} — an index mask, not the architectural bits, so
   the disassembler recovers the surface flag names exactly. *)
let pte_mask flags =
  List.fold_left
    (fun m f ->
      let rec idx i = function
        | [] -> m
        | (_, g) :: tl -> if g = f then Int64.logor m (Int64.shift_left 1L i) else idx (i + 1) tl
      in
      idx 0 Scn_ast.pte_flags)
    0L flags

let pte_unmask imm =
  List.filteri (fun i _ -> Int64.logand (Int64.shift_right_logical imm i) 1L = 1L) Scn_ast.pte_flags
  |> List.map snd
