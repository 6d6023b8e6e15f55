type ring = Hyp | Kernel | User

type t = {
  mem : Phys_mem.t;
  hardened : bool;
  mutable idt : Addr.mfn option;
  handlers : (Addr.vaddr, string) Hashtbl.t;
  tlb : Paging.Tlb.t;
}

type 'a access_result = ('a, Paging.fault) result

let create ?tracer mem ~hardened =
  let tlb = Paging.Tlb.create () in
  (match tracer with Some tr -> Paging.Tlb.set_tracer tlb tr | None -> ());
  { mem; hardened; idt = None; handlers = Hashtbl.create 31; tlb }

let mem t = t.mem
let hardened t = t.hardened
let set_idt t mfn = t.idt <- Some mfn
let idt_mfn t = t.idt
let tlb t = t.tlb
let tlb_flush_all t = Paging.Tlb.flush_all t.tlb
let tlb_invlpg t ~cr3 va = Paging.Tlb.invlpg t.tlb ~cr3 va
let tlb_stats t = Paging.Tlb.stats t.tlb

let sidt t =
  match t.idt with
  | Some mfn -> Layout.directmap_of_maddr (Addr.maddr_of_mfn mfn)
  | None -> failwith "Cpu.sidt: no IDT installed"

let register_handler t va label = Hashtbl.replace t.handlers va label
let handler_name t va = Hashtbl.find_opt t.handlers va
let handlers_dump t = Hashtbl.fold (fun va label acc -> (va, label) :: acc) t.handlers []

let handlers_restore t dump =
  Hashtbl.reset t.handlers;
  List.iter (fun (va, label) -> Hashtbl.replace t.handlers va label) dump

let layout_permits access kind =
  match (access, kind) with
  | Layout.Read_write, _ -> true
  | Layout.Read_only, (Paging.Read | Paging.Exec) -> true
  | Layout.Read_only, Paging.Write -> false
  | Layout.No_access, _ -> false

(* [Addr.canonical] without the fresh box when [va] already is one *)
let canonical va =
  let hi = Int64.shift_right va 47 in
  if hi = 0L || hi = -1L then va else Addr.canonical va

(* The fault code for [Layout_denied]; every other negative code is a
   {!Paging.Code} fault. *)
let code_layout_denied = min_int

(* Translate a canonical [va] to a machine address (an int >= 0), or a
   negative fault code. Allocates nothing for guest rings. *)
let translate t ~ring ~cr3 ~kind va =
  match ring with
  | Hyp -> (
      match Layout.maddr_of_directmap va with
      | Some ma when Phys_mem.is_valid_mfn t.mem (Addr.mfn_of_maddr ma) -> Int64.to_int ma
      | Some _ | None -> -1 (* Not_present 4 *))
  | Kernel | User ->
      if not (layout_permits (Layout.guest_access ~hardened:t.hardened va) kind) then
        code_layout_denied
      else Paging.resolve_cached t.tlb t.mem ~cr3 ~kind ~user:(ring = User) va

(* The fault path is the only one that builds a fault record. *)
let fault va kind code =
  let reason =
    if code = code_layout_denied then Paging.Layout_denied (Layout.region_of_vaddr va)
    else Paging.Code.fault_reason code
  in
  Error { Paging.fault_vaddr = va; fault_kind = kind; reason }

let resolve t ~ring ~cr3 ~kind va =
  let va = canonical va in
  let ma = translate t ~ring ~cr3 ~kind va in
  if ma >= 0 then Ok (Int64.of_int ma) else fault va kind ma

(* Every architectural memory access costs one [Guest_mem_op] on the
   machine's virtual clock (page-walk and TLB costs accrue separately
   inside the TLB lookup). Charged here, at the CPU, so the record
   path (guest kernel accessors) and the replay path (direct CPU reads
   for probe events) price identically. *)
let charge_mem t =
  match Paging.Tlb.tracer t.tlb with
  | None -> ()
  | Some tr -> Trace.charge tr Vclock.Guest_mem_op

let next_page va chunk = canonical (Int64.add va (Int64.of_int chunk))

(* An 8-byte access whose last byte lies on the next page translates
   both pages first (one TLB lookup each, in address order) and then
   moves the bytes: a fault on either page leaves memory untouched. *)
let straddle t ~ring ~cr3 ~kind va f =
  let first = Addr.page_size - Addr.page_offset va in
  let ma = translate t ~ring ~cr3 ~kind va in
  if ma < 0 then fault va kind ma
  else
    let va2 = next_page va first in
    let ma2 = translate t ~ring ~cr3 ~kind va2 in
    if ma2 < 0 then fault va2 kind ma2 else Ok (f ma first ma2)

let read_u64 t ~ring ~cr3 va =
  charge_mem t;
  let va = canonical va in
  if Addr.page_offset va <= Addr.page_size - 8 then
    let ma = translate t ~ring ~cr3 ~kind:Paging.Read va in
    if ma >= 0 then Ok (Phys_mem.read_u64_at t.mem ma) else fault va Paging.Read ma
  else
    straddle t ~ring ~cr3 ~kind:Paging.Read va (fun ma first ma2 ->
        let buf = Bytes.create 8 in
        Phys_mem.read_into_at t.mem ma buf 0 first;
        Phys_mem.read_into_at t.mem ma2 buf first (8 - first);
        Bytes.get_int64_le buf 0)

let write_u64 t ~ring ~cr3 va v =
  charge_mem t;
  let va = canonical va in
  if Addr.page_offset va <= Addr.page_size - 8 then
    let ma = translate t ~ring ~cr3 ~kind:Paging.Write va in
    if ma >= 0 then (
      Phys_mem.write_u64_at t.mem ma v;
      Ok ())
    else fault va Paging.Write ma
  else
    straddle t ~ring ~cr3 ~kind:Paging.Write va (fun ma first ma2 ->
        let buf = Bytes.create 8 in
        Bytes.set_int64_le buf 0 v;
        Phys_mem.write_from_at t.mem ma buf 0 first;
        Phys_mem.write_from_at t.mem ma2 buf first (8 - first))

(* Byte-range transfers translate page by page, so a range crossing a
   page boundary succeeds only when every page translates; the pages
   before a faulting one have already been copied. *)
let rec read_pages t ~ring ~cr3 va buf pos len =
  let chunk = min len (Addr.page_size - Addr.page_offset va) in
  let ma = translate t ~ring ~cr3 ~kind:Paging.Read va in
  if ma < 0 then fault va Paging.Read ma
  else begin
    Phys_mem.read_into_at t.mem ma buf pos chunk;
    if chunk = len then Ok buf
    else read_pages t ~ring ~cr3 (next_page va chunk) buf (pos + chunk) (len - chunk)
  end

let rec write_pages t ~ring ~cr3 va data pos len =
  let chunk = min len (Addr.page_size - Addr.page_offset va) in
  let ma = translate t ~ring ~cr3 ~kind:Paging.Write va in
  if ma < 0 then fault va Paging.Write ma
  else begin
    Phys_mem.write_from_at t.mem ma data pos chunk;
    if chunk = len then Ok ()
    else write_pages t ~ring ~cr3 (next_page va chunk) data (pos + chunk) (len - chunk)
  end

let read_bytes t ~ring ~cr3 va len =
  charge_mem t;
  let buf = Bytes.create len in
  if len <= 0 then Ok buf else read_pages t ~ring ~cr3 (canonical va) buf 0 len

let write_bytes t ~ring ~cr3 va data =
  charge_mem t;
  let len = Bytes.length data in
  if len = 0 then Ok () else write_pages t ~ring ~cr3 (canonical va) data 0 len

type exception_outcome =
  | Handled of { vector : int; handler : Addr.vaddr; handler_label : string }
  | Double_fault_panic of { first_vector : int; bad_handler : int64 }
  | Triple_fault

let gate_valid t gate =
  gate.Idt.gate_present && Hashtbl.mem t.handlers gate.Idt.handler

let deliver_exception t ~vector =
  match t.idt with
  | None -> Triple_fault
  | Some idt_mfn ->
      let gate = Idt.read_gate t.mem idt_mfn vector in
      if gate_valid t gate then
        Handled
          {
            vector;
            handler = gate.Idt.handler;
            handler_label = Option.value ~default:"?" (handler_name t gate.Idt.handler);
          }
      else
        let df = Idt.read_gate t.mem idt_mfn Idt.vector_double_fault in
        if gate_valid t df then
          Double_fault_panic { first_vector = vector; bad_handler = gate.Idt.handler }
        else Triple_fault
