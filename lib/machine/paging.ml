type access_kind = Read | Write | Exec

type fault_reason =
  | Not_present of int
  | Write_to_readonly
  | User_access_to_supervisor
  | Nx_violation
  | Non_canonical
  | Layout_denied of Layout.region
  | Bad_physical of Addr.mfn

type fault = { fault_vaddr : Addr.vaddr; fault_kind : access_kind; reason : fault_reason }
type step = { level : int; table_mfn : Addr.mfn; index : int; entry : Pte.t }

type translation = {
  t_maddr : Addr.maddr;
  writable : bool;
  user : bool;
  executable : bool;
  superpage : bool;
  path : step list;
}

let index_at level va =
  match level with
  | 4 -> Addr.l4_index va
  | 3 -> Addr.l3_index va
  | 2 -> Addr.l2_index va
  | 1 -> Addr.l1_index va
  | _ -> invalid_arg "Paging.index_at"

let read_entry mem table_mfn index =
  if Phys_mem.is_valid_mfn mem table_mfn then begin
    Phys_mem.observe mem ~consumer:Provenance.Pt_walk ~mfn:table_mfn ~off:(8 * index) ~len:8;
    Frame.get_entry (Phys_mem.frame_ro mem table_mfn) index
  end
  else Pte.none

(* Superpage base frame: hardware ignores/requires-zero the low 9 MFN bits
   of a PSE L2 entry; we round down, so an exploit forging a PSE mapping
   over its page-table pages covers the whole 2 MiB-aligned group. *)
let superpage_base_mfn entry = Pte.mfn entry land lnot 0x1ff

let walk_general mem ~cr3 va =
  let va = Addr.canonical va in
  let rec go level table_mfn acc ~rw ~us ~nx =
    let index = index_at level va in
    let entry = read_entry mem table_mfn index in
    let acc = { level; table_mfn; index; entry } :: acc in
    if not (Pte.is_present entry) then (List.rev acc, Error (Not_present level))
    else
      let rw = rw && Pte.test Pte.Rw entry in
      let us = us && Pte.test Pte.User entry in
      let nx = nx || Pte.test Pte.Nx entry in
      if level = 1 then
        (* a forged leaf can point anywhere; outside installed RAM the
           bus access aborts, so surface a fault, not an exception *)
        if not (Phys_mem.is_valid_mfn mem (Pte.mfn entry)) then
          (List.rev acc, Error (Bad_physical (Pte.mfn entry)))
        else
        let maddr =
          Int64.add (Addr.maddr_of_mfn (Pte.mfn entry)) (Int64.of_int (Addr.page_offset va))
        in
        ( List.rev acc,
          Ok
            {
              t_maddr = maddr;
              writable = rw;
              user = us;
              executable = not nx;
              superpage = false;
              path = List.rev acc;
            } )
      else if level = 2 && Pte.test Pte.Pse entry then
        let base = Addr.maddr_of_mfn (superpage_base_mfn entry) in
        let offset = Int64.logand va (Int64.of_int (Addr.superpage_size - 1)) in
        let maddr = Int64.add base offset in
        if not (Phys_mem.is_valid_mfn mem (Addr.mfn_of_maddr maddr)) then
          (List.rev acc, Error (Bad_physical (Addr.mfn_of_maddr maddr)))
        else
        ( List.rev acc,
          Ok
            {
              t_maddr = maddr;
              writable = rw;
              user = us;
              executable = not nx;
              superpage = true;
              path = List.rev acc;
            } )
      else go (level - 1) (Pte.mfn entry) acc ~rw ~us ~nx
  in
  go 4 cr3 [] ~rw:true ~us:true ~nx:false

let walk mem ~cr3 va =
  let _, result = walk_general mem ~cr3 va in
  result

let walk_path mem ~cr3 va =
  let path, _ = walk_general mem ~cr3 va in
  path

let check_perms ~kind ~user va tr =
  let fault reason = Error { fault_vaddr = va; fault_kind = kind; reason } in
  if user && not tr.user then fault User_access_to_supervisor
  else if kind = Write && not tr.writable then fault Write_to_readonly
  else if kind = Exec && not tr.executable then fault Nx_violation
  else Ok tr

let translate mem ~cr3 ~kind ~user va =
  let fault reason = Error { fault_vaddr = va; fault_kind = kind; reason } in
  if not (Addr.is_canonical va) then fault Non_canonical
  else
    match walk mem ~cr3 va with
    | Error reason -> fault reason
    | Ok tr -> check_perms ~kind ~user va tr

(* --- the allocation-free walker ------------------------------------------

   [walk_general] is the reference: it conses a step per level and boxes
   every entry. The MMU hot paths (TLB fills, EPT walks) need only the
   final frame and four permission bits, so [walk_level] computes
   exactly those from immediate ints, reading the same entries and
   observing the same bytes in the same order.

   Its outcome is one immediate int (a "walk code"):
   - success (>= 0): the machine address of the translated 4 KiB page
     (for a superpage, the 4 KiB page inside it) OR'd with the [perm_*]
     bits; the address is page aligned, so the bits fit below it;
   - fault (< 0): [-n]. For n in 1..4 the walk stopped at a non-present
     entry after reading n levels: [Not_present (5 - n)]. For n >= 8 a
     present leaf named a frame outside RAM: [Bad_physical ((n lsr 3) - 1)]
     after reading [n land 7] levels. n in 5..7 are the permission faults
     {!resolve_cached} adds on top. *)

let perm_rw = 1
let perm_us = 2
let perm_x = 4
let perm_pse = 8
let perm_bits = 15
let mfn_field = (1 lsl 40) - 1 (* Pte.mfn: entry bits 12..51 *)
let code_write_to_readonly = -5
let code_user_access = -6
let code_nx = -7

module Code = struct
  let is_ok c = c >= 0
  let page c = c land lnot perm_bits
  let writable c = c land perm_rw <> 0
  let user c = c land perm_us <> 0
  let executable c = c land perm_x <> 0
  let superpage c = c land perm_pse <> 0

  let steps c =
    if c >= 0 then if c land perm_pse <> 0 then 3 else 4 else -c land 7

  let fault_reason c =
    let n = -c in
    if n >= 8 then Bad_physical ((n lsr 3) - 1)
    else
      match n with
      | 1 | 2 | 3 | 4 -> Not_present (5 - n)
      | 5 -> Write_to_readonly
      | 6 -> User_access_to_supervisor
      | 7 -> Nx_violation
      | _ -> invalid_arg "Paging.Code.fault_reason: not a fault code"
end

external bswap64 : int64 -> int64 = "%bswap_int64"

(* [v] is the virtual address as an int (bits 0..47 are all a walk
   reads). When [path] is non-empty, the entry read at [level] lands in
   [path.(4 - level)] as its low 63 bits, and its NX bit in bit [level]
   of [path.(4)] (cleared by the caller) — what a TLB fill needs to
   rebuild the walk path later. A top-level function, not a local
   closure, so a walk allocates nothing. *)
let rec walk_level mem v path level table_mfn perms =
  if not (Phys_mem.is_valid_mfn mem table_mfn) then -(5 - level)
  else begin
    let index = (v lsr (Addr.page_shift + (9 * (level - 1)))) land 0x1ff in
    Phys_mem.observe mem ~consumer:Provenance.Pt_walk ~mfn:table_mfn ~off:(8 * index) ~len:8;
    let entry = Frame.unsafe_get_64 (Phys_mem.frame_ro mem table_mfn) (8 * index) in
    let entry = if Sys.big_endian then bswap64 entry else entry in
    let e = Int64.to_int entry (* bits 0..62 *) and nx = entry < 0L in
    if Array.length path > 0 then begin
      path.(4 - level) <- e;
      if nx then path.(4) <- path.(4) lor (1 lsl level)
    end;
    if e land 1 = 0 then -(5 - level)
    else
      let perms = if e land 2 = 0 then perms land lnot perm_rw else perms in
      let perms = if e land 4 = 0 then perms land lnot perm_us else perms in
      let perms = if nx then perms land lnot perm_x else perms in
      let mfn = (e lsr Addr.page_shift) land mfn_field in
      if level = 1 then
        if Phys_mem.is_valid_mfn mem mfn then (mfn lsl Addr.page_shift) lor perms
        else -(((mfn + 1) lsl 3) lor 4)
      else if level = 2 && e land 0x80 <> 0 then
        (* same base rounding as [superpage_base_mfn] *)
        let mfn = (mfn land lnot 0x1ff) + ((v lsr Addr.page_shift) land 0x1ff) in
        if Phys_mem.is_valid_mfn mem mfn then (mfn lsl Addr.page_shift) lor perms lor perm_pse
        else -(((mfn + 1) lsl 3) lor 3)
      else walk_level mem v path (level - 1) mfn perms
  end

let no_path = [||]
let all_perms = perm_rw lor perm_us lor perm_x
let walk_code mem ~cr3 va = walk_level mem (Int64.to_int va) no_path 4 cr3 all_perms

(* --- software TLB ----------------------------------------------------- *)

module Tlb = struct
  (* What the hardware TLB caches per (address space, page): the page's
     machine address and the accumulated permission bits — plus the
     entries the filling walk read, so [walk_cached] can return the
     (possibly stale) path bit for bit.

     The table is open addressing with linear probing over one int
     array, [stride] ints per slot:
       [key; page lor perm bits; generation; L4; L3; L2; L1 entries; NX bits]
     The key packs cr3 above the 36-bit virtual page number (bits 12..47
     of the canonical address), so a lookup hashes an int and compares
     ints: no tuple, no polymorphic hash, no boxed entry. [paths] holds,
     per slot, the step list [walk_cached] built from those entries on
     its first hit ([[]] until then); the CPU's path never builds one. *)
  let stride = 8
  let s_page = 1
  let s_gen = 2
  let s_entries = 3
  let s_nx = 7
  let empty = -1
  let vpn_bits = 36
  let cr3_bits = 62 - vpn_bits (* keys stay non-negative *)
  let initial_slots = 16

  type stats = { hits : int; misses : int; flushes : int; invlpgs : int }

  type t = {
    mutable slots : int array;  (* [||] until the first fill *)
    mutable paths : step list array;  (* one per slot *)
    mutable shift : int;  (* 63 - log2 (slot count) *)
    mutable count : int;
    scratch : int array;  (* the entries of the walk in progress *)
    capacity : int;
    mutable hits : int;
    mutable misses : int;
    mutable flushes : int;
    mutable invlpgs : int;
    mutable tracer : Trace.t option;
  }

  let create ?(capacity = 4096) () =
    if capacity <= 0 then invalid_arg "Paging.Tlb.create: capacity must be positive";
    {
      slots = [||];
      paths = [||];
      shift = 63;
      count = 0;
      scratch = Array.make 5 0;
      capacity;
      hits = 0;
      misses = 0;
      flushes = 0;
      invlpgs = 0;
      tracer = None;
    }

  let set_tracer t tr = t.tracer <- Some tr
  let tracer t = t.tracer
  let cr3_fits cr3 = cr3 lsr cr3_bits = 0
  let key ~cr3 v = (cr3 lsl vpn_bits) lor ((v lsr Addr.page_shift) land ((1 lsl vpn_bits) - 1))
  let nslots t = Array.length t.slots / stride
  let mask t = nslots t - 1

  (* Fibonacci hashing over the key with cr3 folded onto the page bits *)
  let home t key = ((key lxor (key lsr vpn_bits)) * 0x1E3779B97F4A7C15) lsr t.shift

  let rec probe slots mask key i =
    let k = slots.(i * stride) in
    if k = key then i else if k = empty then -1 else probe slots mask key ((i + 1) land mask)

  (* slot index holding [key], or -1; a cr3 that cannot be packed was
     never filled *)
  let find t ~cr3 v =
    if t.count = 0 || not (cr3_fits cr3) then -1
    else
      let key = key ~cr3 v in
      probe t.slots (mask t) key (home t key)

  let rec free_slot slots mask i =
    if slots.(i * stride) = empty then i else free_slot slots mask ((i + 1) land mask)

  let move t ~src ~dst =
    for k = 0 to stride - 1 do
      t.slots.((dst * stride) + k) <- t.slots.((src * stride) + k)
    done;
    t.paths.(dst) <- t.paths.(src)

  (* backward-shift deletion: pull later members of the probe run into
     the hole whenever the hole lies on their path from home *)
  let rec close_hole t mask hole j =
    let j = (j + 1) land mask in
    let k = t.slots.(j * stride) in
    if k = empty then begin
      t.slots.(hole * stride) <- empty;
      t.paths.(hole) <- []
    end
    else
      let h = home t k in
      if (hole - h) land mask < (j - h) land mask then begin
        move t ~src:j ~dst:hole;
        close_hole t mask j j
      end
      else close_hole t mask hole j

  let alloc_slots t n =
    t.slots <- Array.make (n * stride) empty;
    t.paths <- Array.make n [];
    let rec lg n = if n = 1 then 0 else 1 + lg (n lsr 1) in
    t.shift <- 63 - lg n

  let grow t =
    let old = t.slots and old_paths = t.paths and old_n = nslots t in
    alloc_slots t (max initial_slots (2 * old_n));
    let mask = mask t in
    for i = 0 to old_n - 1 do
      let k = old.(i * stride) in
      if k <> empty then begin
        let j = free_slot t.slots mask (home t k) in
        Array.blit old (i * stride) t.slots (j * stride) stride;
        t.paths.(j) <- old_paths.(i)
      end
    done

  let flush_all t =
    if t.count > 0 then begin
      (* like [Hashtbl.reset]: back to a small table *)
      if nslots t > initial_slots then begin
        t.slots <- [||];
        t.paths <- [||]
      end
      else begin
        for i = 0 to nslots t - 1 do
          t.slots.(i * stride) <- empty
        done;
        Array.fill t.paths 0 (nslots t) []
      end;
      t.count <- 0
    end;
    t.flushes <- t.flushes + 1;
    match t.tracer with
    | None -> ()
    | Some tr ->
        Trace.note_flush tr;
        if Trace.recording tr then Trace.emit tr Trace.Tlb_flush_all

  let invlpg t ~cr3 va =
    let i = find t ~cr3 (Int64.to_int va) in
    if i >= 0 then begin
      close_hole t (mask t) i i;
      t.count <- t.count - 1
    end;
    t.invlpgs <- t.invlpgs + 1;
    match t.tracer with
    | None -> ()
    | Some tr ->
        Trace.note_invlpg tr;
        if Trace.recording tr then Trace.emit tr (Trace.Tlb_invlpg { va })

  (* Cache a successful walk (code [c], entries in [scratch]); [i] is
     the slot already holding the key under a stale generation, or -1.
     A full cache is flushed before inserting, as before. *)
  let fill t ~cr3 v gen c i =
    if not (cr3_fits cr3) then
      invalid_arg (Printf.sprintf "Paging.Tlb: cr3 %#x does not fit the TLB key" cr3);
    let i = if t.count >= t.capacity then (flush_all t; -1) else i in
    let i =
      if i >= 0 then i
      else begin
        if 2 * (t.count + 1) > nslots t then grow t;
        t.count <- t.count + 1;
        free_slot t.slots (mask t) (home t (key ~cr3 v))
      end
    in
    let b = i * stride in
    let slots = t.slots in
    slots.(b) <- key ~cr3 v;
    slots.(b + s_page) <- c;
    slots.(b + s_gen) <- gen;
    Array.blit t.scratch 0 slots (b + s_entries) 5;
    t.paths.(i) <- [];
    b

  (* The one lookup behind [walk_cached] and [resolve_cached]: the base
     index of [v]'s slot (>= 0), filled by a walk on a miss, or the
     walk's negative fault code. Charges what the reference charged:
     [Tlb_hit], or [Tlb_miss] then one [Page_walk_step] per level read. *)
  let lookup t mem ~cr3 v =
    let gen = Phys_mem.generation mem in
    let i = find t ~cr3 v in
    if i >= 0 && t.slots.((i * stride) + s_gen) = gen then begin
      t.hits <- t.hits + 1;
      (match t.tracer with None -> () | Some tr -> Trace.charge tr Vclock.Tlb_hit);
      i * stride
    end
    else begin
      t.misses <- t.misses + 1;
      (match t.tracer with None -> () | Some tr -> Trace.charge tr Vclock.Tlb_miss);
      t.scratch.(4) <- 0;
      let c = walk_level mem v t.scratch 4 cr3 all_perms in
      (match t.tracer with
      | None -> ()
      | Some tr -> Trace.charge_n tr Vclock.Page_walk_step (Code.steps c));
      (* faults are never cached, like real hardware *)
      if c < 0 then c else fill t ~cr3 v gen c i
    end

  let stats t = { hits = t.hits; misses = t.misses; flushes = t.flushes; invlpgs = t.invlpgs }
  let size t = t.count
end

let entry_of_slot slots b level =
  let lo = slots.(b + Tlb.s_entries + 4 - level) in
  let e = Int64.logand (Int64.of_int lo) Int64.max_int in
  if slots.(b + Tlb.s_nx) land (1 lsl level) <> 0 then Int64.logor e Int64.min_int else e

(* The steps the filling walk read, rebuilt from the slot's entries:
   table frames follow from cr3 and each entry, indices from [va]. *)
let path_of_slot slots b ~cr3 va =
  let last = if Code.superpage slots.(b + Tlb.s_page) then 2 else 1 in
  let rec path level table_mfn =
    let entry = entry_of_slot slots b level in
    let step = { level; table_mfn; index = index_at level va; entry } in
    if level = last then [ step ] else step :: path (level - 1) (Pte.mfn entry)
  in
  path 4 cr3

let walk_cached tlb mem ~cr3 va =
  let b = Tlb.lookup tlb mem ~cr3 (Int64.to_int va) in
  if b < 0 then Error (Code.fault_reason b)
  else
    let slots = tlb.Tlb.slots and i = b / Tlb.stride in
    let path =
      match tlb.Tlb.paths.(i) with
      | [] ->
          let p = path_of_slot slots b ~cr3 va in
          tlb.Tlb.paths.(i) <- p;
          p
      | p -> p
    in
    let c = slots.(b + Tlb.s_page) in
    Ok
      {
        t_maddr = Int64.of_int (Code.page c + Addr.page_offset va);
        writable = Code.writable c;
        user = Code.user c;
        executable = Code.executable c;
        superpage = Code.superpage c;
        path;
      }

let resolve_cached tlb mem ~cr3 ~kind ~user va =
  let v = Int64.to_int va in
  let b = Tlb.lookup tlb mem ~cr3 v in
  if b < 0 then b
  else
    let c = tlb.Tlb.slots.(b + Tlb.s_page) in
    if user && c land perm_us = 0 then code_user_access
    else if kind = Write && c land perm_rw = 0 then code_write_to_readonly
    else if kind = Exec && c land perm_x = 0 then code_nx
    else Code.page c lor (v land (Addr.page_size - 1))

let translate_cached tlb mem ~cr3 ~kind ~user va =
  if not (Addr.is_canonical va) then
    Error { fault_vaddr = va; fault_kind = kind; reason = Non_canonical }
  else
    match walk_cached tlb mem ~cr3 va with
    | Error reason -> Error { fault_vaddr = va; fault_kind = kind; reason }
    | Ok tr -> check_perms ~kind ~user va tr

let pp_fault_reason ppf = function
  | Not_present level -> Format.fprintf ppf "not-present at L%d" level
  | Write_to_readonly -> Format.fprintf ppf "write to read-only mapping"
  | User_access_to_supervisor -> Format.fprintf ppf "user access to supervisor mapping"
  | Nx_violation -> Format.fprintf ppf "NX violation"
  | Non_canonical -> Format.fprintf ppf "non-canonical address"
  | Layout_denied region ->
      Format.fprintf ppf "access denied by address-space layout (%s)" (Layout.region_name region)
  | Bad_physical mfn -> Format.fprintf ppf "leaf frame %#x outside installed RAM" mfn

let pp_fault ppf { fault_vaddr; fault_kind; reason } =
  let kind = match fault_kind with Read -> "read" | Write -> "write" | Exec -> "exec" in
  Format.fprintf ppf "#PF %s at %a: %a" kind Addr.pp_vaddr fault_vaddr pp_fault_reason reason
