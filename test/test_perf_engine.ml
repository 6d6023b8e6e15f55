(* Tests for the campaign throughput engine: the software TLB must be
   invisible under the architectural invalidation discipline (and
   faithfully stale outside it), O(dirty) testbed reset must be
   observably identical to a fresh boot, the cross-trial monitor scan
   cache must never change a snapshot, and sharded campaigns must be
   byte-identical to sequential ones. *)

open Ii_xen
open Ii_guest
open Ii_core
open Ii_scenario
open Ii_vmi
open Ii_trace
module Uc = Ii_exploits.Use_cases
module Registry = Ii_exploits.Registry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let attacker_cr3 tb = (Kernel.dom tb.Testbed.attacker).Domain.l4_mfn

(* Locate the L1 entry backing a kernel vaddr so tests can rewrite raw
   PTE bytes the way an exploit would — beneath every software layer. *)
let l1_slot mem ~cr3 va =
  match List.find_opt (fun s -> s.Paging.level = 1) (Paging.walk_path mem ~cr3 va) with
  | Some s -> (s.Paging.table_mfn, s.Paging.index)
  | None -> Alcotest.fail "no L1 entry on the walk path"

(* --- Software TLB --------------------------------------------------------- *)

(* Under the architectural contract — every PTE rewrite followed by
   invlpg, plus arbitrary interleaved flushes — a cached walk must be
   indistinguishable from a fresh one, for any operation sequence. *)
let prop_tlb_transparent_under_invalidation =
  QCheck.Test.make ~name:"tlb: cached walk = fresh walk under invlpg discipline" ~count:20
    QCheck.(list_of_size (Gen.int_range 1 25) (pair (int_bound 89) (int_bound 2)))
    (fun ops ->
      let tb = Testbed.create Version.V4_8 in
      let mem = tb.Testbed.hv.Hv.mem in
      let cr3 = attacker_cr3 tb in
      let tlb = Paging.Tlb.create () in
      List.for_all
        (fun (pfn, op) ->
          let va = Domain.kernel_vaddr_of_pfn pfn in
          (match op with
          | 0 -> () (* plain lookup below *)
          | 1 ->
              (* rewrite the PTE (toggle RW) and invalidate, as a
                 well-behaved kernel would *)
              let table_mfn, index = l1_slot mem ~cr3 va in
              let frame = Phys_mem.frame mem table_mfn in
              let e = Frame.get_entry frame index in
              let e' = if Pte.test Pte.Rw e then Pte.clear Pte.Rw e else Pte.set Pte.Rw e in
              Frame.set_entry frame index e';
              Paging.Tlb.invlpg tlb ~cr3 va
          | _ -> Paging.Tlb.flush_all tlb);
          Paging.walk_cached tlb mem ~cr3 va = Paging.walk mem ~cr3 va
          && Paging.translate_cached tlb mem ~cr3 ~kind:Paging.Write ~user:false va
             = Paging.translate mem ~cr3 ~kind:Paging.Write ~user:false va)
        ops)

(* The other half of faithfulness: a raw PTE rewrite *without* invlpg
   must keep serving the stale translation — the window real XSA
   exploits race — until an explicit flush. *)
let test_stale_tlb_without_invlpg () =
  let tb = Testbed.create Version.V4_8 in
  let mem = tb.Testbed.hv.Hv.mem in
  let cr3 = attacker_cr3 tb in
  let va = Domain.kernel_vaddr_of_pfn 5 in
  let tlb = Paging.Tlb.create () in
  let cached_before = Paging.walk_cached tlb mem ~cr3 va in
  let table_mfn, index = l1_slot mem ~cr3 va in
  let frame = Phys_mem.frame mem table_mfn in
  let old = Frame.get_entry frame index in
  let mfn6 =
    match Domain.mfn_of_pfn (Kernel.dom tb.Testbed.attacker) 6 with
    | Some m -> m
    | None -> Alcotest.fail "pfn 6 unpopulated"
  in
  Frame.set_entry frame index (Pte.make ~mfn:mfn6 ~flags:(Pte.flags old));
  let fresh = Paging.walk mem ~cr3 va in
  check_bool "fresh walk sees the rewrite" true (fresh <> cached_before);
  check_bool "cached walk is stale" true (Paging.walk_cached tlb mem ~cr3 va = cached_before);
  Paging.Tlb.flush_all tlb;
  check_bool "flush restores agreement" true (Paging.walk_cached tlb mem ~cr3 va = fresh)

(* Testbed.reset recycles frames (generation bump), so even a TLB that
   saw pre-reset state must agree with fresh walks afterwards with no
   explicit flush. *)
let test_tlb_survives_reset () =
  let tb = Testbed.create Version.V4_8 in
  let mem = tb.Testbed.hv.Hv.mem in
  let cr3 = attacker_cr3 tb in
  let tlb = Paging.Tlb.create () in
  let vas = List.init 8 (fun i -> Domain.kernel_vaddr_of_pfn (3 * i)) in
  List.iter (fun va -> ignore (Paging.walk_cached tlb mem ~cr3 va)) vas;
  Testbed.reset tb;
  let cr3' = attacker_cr3 tb in
  List.iter
    (fun va ->
      check_bool "post-reset agreement" true
        (Paging.walk_cached tlb mem ~cr3:cr3' va = Paging.walk mem ~cr3:cr3' va))
    vas

(* --- The allocation-free walker and the int-keyed TLB ----------------------- *)

(* Random page-table entries over a small memory: present or not, every
   RW/US/NX/PSE mix, noise in the ignored bits 52..62, and frames inside
   RAM, just past it, and in a far 512-group (a PSE base past RAM). *)
let small_frames = 24

let entry_gen =
  let open QCheck.Gen in
  let* present = frequency [ (5, return true); (1, return false) ] in
  let* rw = bool and* us = bool in
  let* nx = frequency [ (1, return true); (3, return false) ] in
  let* pse = frequency [ (1, return true); (3, return false) ] in
  let* mfn =
    frequency
      [
        (8, int_bound (small_frames - 1));
        (1, int_range small_frames (small_frames + 3));
        (1, int_range 500 1100);
      ]
  in
  let* noise = int_bound 0x7ff in
  let flags =
    List.concat
      [
        (if present then [ Pte.Present ] else []);
        (if rw then [ Pte.Rw ] else []);
        (if us then [ Pte.User ] else []);
        (if nx then [ Pte.Nx ] else []);
        (if pse then [ Pte.Pse ] else []);
      ]
  in
  return (Int64.logor (Pte.make ~mfn ~flags) (Int64.shift_left (Int64.of_int noise) 52))

(* addresses built from the few indices the tables populate, in both
   halves, sometimes with non-canonical top bits *)
let va_gen =
  let open QCheck.Gen in
  let* l4 = oneofl [ 0; 1; 272; 511 ] in
  let* l3 = oneofl [ 0; 1; 2 ] and* l2 = oneofl [ 0; 1; 2 ] in
  let* l1 = oneofl [ 0; 1; 2; 3; 30 ] and* off = int_bound 511 in
  let* junk = frequency [ (4, return 0); (1, int_range 1 0xffff) ] in
  let va = Addr.of_indices ~l4 ~l3 ~l2 ~l1 ~offset:(8 * off) in
  return (Int64.logxor va (Int64.shift_left (Int64.of_int junk) 48))

let table_write_gen =
  QCheck.Gen.(triple (int_bound (small_frames - 1)) (oneofl [ 0; 1; 2; 3; 30; 272; 511 ]) entry_gen)

let write_entry mem (mfn, index, e) = Frame.set_entry (Phys_mem.frame mem mfn) index e

(* Lay a chain of four random entries along [va]'s walk from [cr3],
   each stored where the previous one points (when that frame exists),
   so random tables still translate often enough to matter. *)
let write_chain mem ~cr3 va entries =
  ignore
    (List.fold_left
       (fun (level, table) e ->
         if Phys_mem.is_valid_mfn mem table then
           write_entry mem (table, [| 0; Addr.l1_index va; Addr.l2_index va; Addr.l3_index va; Addr.l4_index va |].(level), e);
         (level - 1, Pte.mfn e))
       (4, cr3) entries)

(* the walker against the reference walk: frame, permission bits, fault
   reason and the number of levels read *)
let walker_agrees mem ~cr3 va =
  let c = Paging.walk_code mem ~cr3 va in
  Paging.Code.steps c = List.length (Paging.walk_path mem ~cr3 va)
  &&
  match Paging.walk mem ~cr3 va with
  | Ok tr ->
      Paging.Code.is_ok c
      && Int64.of_int (Paging.Code.page c + Addr.page_offset va) = tr.Paging.t_maddr
      && Paging.Code.writable c = tr.Paging.writable
      && Paging.Code.user c = tr.Paging.user
      && Paging.Code.executable c = tr.Paging.executable
      && Paging.Code.superpage c = tr.Paging.superpage
  | Error reason -> (not (Paging.Code.is_ok c)) && Paging.Code.fault_reason c = reason

let prop_walker_matches_reference =
  QCheck.Test.make ~name:"tlb: allocation-free walker = reference walk" ~count:300
    QCheck.(
      make
        Gen.(
          triple (int_bound (small_frames + 1))
            (list_size (int_range 1 8) (pair va_gen (list_repeat 4 entry_gen)))
            (list_size (int_range 0 20) table_write_gen)))
    (fun (cr3, chains, writes) ->
      let mem = Phys_mem.create ~frames:small_frames in
      List.iter (fun (va, entries) -> write_chain mem ~cr3 va entries) chains;
      List.iter (write_entry mem) writes;
      List.for_all (fun (va, _) -> walker_agrees mem ~cr3 va) chains)

(* A test-local copy of the previous TLB: a polymorphic [Hashtbl] keyed
   by the [(cr3, vpn)] tuple, the reference walk on a miss, the same
   capacity flush, counters, charges and ring records. The int-keyed
   TLB must be indistinguishable from it. *)
module Ref_tlb = struct
  type cached = {
    page : Addr.maddr;
    writable : bool;
    user : bool;
    executable : bool;
    superpage : bool;
    path : Paging.step list;
    gen : int;
  }

  type t = {
    entries : (Addr.mfn * int, cached) Hashtbl.t;
    capacity : int;
    tr : Trace.t;
    mutable hits : int;
    mutable misses : int;
    mutable flushes : int;
    mutable invlpgs : int;
  }

  let create ~capacity tr =
    { entries = Hashtbl.create 256; capacity; tr; hits = 0; misses = 0; flushes = 0; invlpgs = 0 }

  let vpn va = Int64.to_int (Int64.shift_right_logical (Addr.canonical va) Addr.page_shift)

  let flush_all t =
    if Hashtbl.length t.entries > 0 then Hashtbl.reset t.entries;
    t.flushes <- t.flushes + 1;
    Trace.note_flush t.tr;
    if Trace.recording t.tr then Trace.emit t.tr Trace.Tlb_flush_all

  let invlpg t ~cr3 va =
    Hashtbl.remove t.entries (cr3, vpn va);
    t.invlpgs <- t.invlpgs + 1;
    Trace.note_invlpg t.tr;
    if Trace.recording t.tr then Trace.emit t.tr (Trace.Tlb_invlpg { va })

  let stats t =
    { Paging.Tlb.hits = t.hits; misses = t.misses; flushes = t.flushes; invlpgs = t.invlpgs }

  let walk_cached t mem ~cr3 va =
    let va = Addr.canonical va in
    let key = (cr3, vpn va) in
    let gen = Phys_mem.generation mem in
    match Hashtbl.find_opt t.entries key with
    | Some c when c.gen = gen ->
        t.hits <- t.hits + 1;
        Trace.charge t.tr Vclock.Tlb_hit;
        Ok
          {
            Paging.t_maddr = Int64.add c.page (Int64.of_int (Addr.page_offset va));
            writable = c.writable;
            user = c.user;
            executable = c.executable;
            superpage = c.superpage;
            path = c.path;
          }
    | Some _ | None -> (
        t.misses <- t.misses + 1;
        Trace.charge t.tr Vclock.Tlb_miss;
        let path = Paging.walk_path mem ~cr3 va in
        Trace.charge_n t.tr Vclock.Page_walk_step (List.length path);
        match Paging.walk mem ~cr3 va with
        | Error _ as e -> e
        | Ok tr ->
            if Hashtbl.length t.entries >= t.capacity then flush_all t;
            Hashtbl.replace t.entries key
              {
                page = Int64.sub tr.Paging.t_maddr (Int64.of_int (Addr.page_offset va));
                writable = tr.Paging.writable;
                user = tr.Paging.user;
                executable = tr.Paging.executable;
                superpage = tr.Paging.superpage;
                path = tr.Paging.path;
                gen;
              };
            Ok tr)

  let translate_cached t mem ~cr3 ~kind ~user va =
    let fault reason = Error { Paging.fault_vaddr = va; fault_kind = kind; reason } in
    if not (Addr.is_canonical va) then fault Paging.Non_canonical
    else
      match walk_cached t mem ~cr3 va with
      | Error reason -> fault reason
      | Ok tr ->
          if user && not tr.Paging.user then fault Paging.User_access_to_supervisor
          else if kind = Paging.Write && not tr.Paging.writable then fault Paging.Write_to_readonly
          else if kind = Paging.Exec && not tr.Paging.executable then fault Paging.Nx_violation
          else Ok tr

  (* the previous [Layout.region_of_vaddr], on the canonical address *)
  let region va =
    let va = Addr.canonical va in
    let slot = Addr.l4_index va in
    if Int64.logand va 0x8000_0000_0000L = 0L then Layout.Guest_low
    else if slot = Layout.m2p_slot then
      if va < Layout.linear_pt_base then Layout.M2p else Layout.Linear_pt
    else if slot >= 257 && slot <= 259 then Layout.Xen_extra
    else if slot >= 260 && slot <= 261 then Layout.Xen_private
    else if slot >= 262 && slot <= 271 (* the direct map *) then
      Layout.Direct_map
    else Layout.Guest_kernel

  (* the previous [Cpu] access path for a guest ring (hardened = false):
     [read_u64]/[write_u64], or [resolve] (no data, no charge) for Exec *)
  let cpu_access t mem ~cr3 ~kind ~user va value =
    if kind <> Paging.Exec then Trace.charge t.tr Vclock.Guest_mem_op;
    let va = Addr.canonical va in
    let denied =
      match (region va, kind) with
      | (Layout.Guest_low | Layout.Guest_kernel | Layout.Linear_pt | Layout.Xen_extra), _ -> false
      | Layout.M2p, (Paging.Read | Paging.Exec) -> false
      | Layout.M2p, Paging.Write | (Layout.Xen_private | Layout.Direct_map), _ -> true
    in
    if denied then
      Error { Paging.fault_vaddr = va; fault_kind = kind; reason = Paging.Layout_denied (region va) }
    else
      match translate_cached t mem ~cr3 ~kind ~user va with
      | Error f -> Error f
      | Ok tr -> (
          match kind with
          | Paging.Read -> Ok (Phys_mem.read_u64 mem tr.Paging.t_maddr)
          | Paging.Write ->
              Phys_mem.write_u64 mem tr.Paging.t_maddr value;
              Ok 0L
          | Paging.Exec -> Ok tr.Paging.t_maddr)
end

(* addresses are indices into a small per-case pool, so pages recur
   and the TLB hits *)
type tlb_op =
  | Access of { cr3 : int; va : int; kind : Paging.access_kind; user : bool; api : int }
  | Invlpg of int * int
  | Flush
  | Rewrite of (int * int * int64)  (* raw PTE store, no invlpg *)
  | Free of int  (* recycles a frame: a generation bump *)

(* raw PTE stores, mostly into [model_memory]'s table frames 1..6, so
   cached walks go stale *)
let model_write_gen =
  let open QCheck.Gen in
  triple
    (frequency [ (4, int_range 1 6); (1, int_bound (small_frames - 1)) ])
    (oneofl [ 0; 1; 2; 3; 272; 511 ])
    entry_gen

(* mostly pages [model_memory] maps, in either address space *)
let pool_va_gen =
  let open QCheck.Gen in
  let mapped =
    let* l4 = oneofl [ 0; 0; 272; 511 ] and* l3 = oneofl [ 0; 1 ] and* l2 = oneofl [ 0; 1; 2 ] in
    let* l1 = int_bound 3 and* off = int_bound 511 in
    return (Addr.of_indices ~l4 ~l3 ~l2 ~l1 ~offset:(8 * off))
  in
  frequency [ (4, mapped); (1, va_gen) ]

let tlb_op_gen =
  let open QCheck.Gen in
  let cr3 = oneofl [ 1; 2 ] and va = int_bound 5 in
  frequency
    [
      ( 10,
        let* cr3 = cr3 and* va = va in
        let* kind = oneofl Paging.[ Read; Read; Write; Exec ] in
        let* user = bool and* api = int_bound 2 in
        return (Access { cr3; va; kind; user; api }) );
      (2, map2 (fun c va -> Invlpg (c, va)) cr3 va);
      (1, return Flush);
      (3, map (fun w -> Rewrite w) model_write_gen);
      (2, map (fun m -> Free m) (int_range 8 15));
    ]

let tlb_op_print = function
  | Access { cr3; va; kind; user; api } ->
      Printf.sprintf "access cr3=%d va#%d %s user=%b api=%d" cr3 va
        (match kind with Paging.Read -> "r" | Paging.Write -> "w" | Paging.Exec -> "x")
        user api
  | Invlpg (c, va) -> Printf.sprintf "invlpg cr3=%d va#%d" c va
  | Flush -> "flush"
  | Rewrite (m, i, e) -> Printf.sprintf "rewrite %d[%d] <- %Lx" m i e
  | Free m -> Printf.sprintf "free %d" m

(* Two address spaces (cr3 1 and 2) over shared lower tables: both
   halves, a read-only branch, a 2 MiB superpage and data pages 8..15. *)
let model_memory () =
  let mem = Phys_mem.create ~frames:small_frames in
  let link ?(flags = [ Pte.Present; Pte.Rw; Pte.User ]) table index mfn =
    write_entry mem (table, index, Pte.make ~mfn ~flags)
  in
  link 1 0 3;
  link 1 272 3 ~flags:[ Pte.Present; Pte.Rw ];
  link 2 0 3 ~flags:[ Pte.Present; Pte.User ];
  link 2 511 3;
  link 3 0 4;
  link 3 1 4;
  link 4 0 5;
  link 4 1 6 ~flags:[ Pte.Present; Pte.User; Pte.Nx ];
  link 4 2 0 ~flags:[ Pte.Present; Pte.Rw; Pte.User; Pte.Pse ];
  List.iteri (fun i mfn -> link 5 i mfn) [ 8; 9; 10; 11 ];
  List.iteri (fun i mfn -> link 6 i mfn ~flags:[ Pte.Present; Pte.Rw ]) [ 12; 13; 14; 15 ];
  mem

let traced () =
  let tr = Trace.create () in
  Trace.enable tr;
  tr

(* Drive the new TLB (capacity 3, through [walk_cached] /
   [resolve_cached] / [translate_cached]) and a [Cpu] (default
   capacity) side by side with the reference copies over identical
   memories; every result, the counters, the sizes, the virtual clocks
   and the ring bytes must agree. *)
let prop_tlb_matches_reference =
  QCheck.Test.make ~name:"tlb: int-keyed TLB and Cpu = reference TLB" ~count:500
    (QCheck.make
       ~print:(fun (pool, ops) ->
         String.concat "; "
           (List.map (Printf.sprintf "%Lx") (Array.to_list pool) @ List.map tlb_op_print ops))
       ~shrink:QCheck.Shrink.(pair nil list)
       QCheck.Gen.(pair (array_repeat 6 pool_va_gen) (list_size (int_range 1 80) tlb_op_gen)))
    (fun (pool, ops) ->
      let mem_t = model_memory () and mem_rt = model_memory () in
      let mem_c = model_memory () and mem_rc = model_memory () in
      let tr_t = traced () and tr_rt = traced () and tr_c = traced () and tr_rc = traced () in
      let tlb = Paging.Tlb.create ~capacity:3 () in
      Paging.Tlb.set_tracer tlb tr_t;
      let ref_tlb = Ref_tlb.create ~capacity:3 tr_rt in
      let cpu = Cpu.create ~tracer:tr_c mem_c ~hardened:false in
      let ref_cpu = Ref_tlb.create ~capacity:4096 tr_rc in
      let step op =
        match op with
        | Access { cr3; va; kind; user; api } ->
            let va = pool.(va) in
            let direct =
              match api with
              | 0 ->
                  Paging.walk_cached tlb mem_t ~cr3 va = Ref_tlb.walk_cached ref_tlb mem_rt ~cr3 va
              | 1 ->
                  let va = Addr.canonical va in
                  let c = Paging.resolve_cached tlb mem_t ~cr3 ~kind ~user va in
                  let r = Ref_tlb.translate_cached ref_tlb mem_rt ~cr3 ~kind ~user va in
                  (match r with
                  | Ok tr -> Int64.of_int c = tr.Paging.t_maddr
                  | Error f -> c < 0 && Paging.Code.fault_reason c = f.Paging.reason)
              | _ ->
                  Paging.translate_cached tlb mem_t ~cr3 ~kind ~user va
                  = Ref_tlb.translate_cached ref_tlb mem_rt ~cr3 ~kind ~user va
            in
            let ring = if user then Cpu.User else Cpu.Kernel in
            let value = Int64.add va 0x5a5aL in
            let via_cpu =
              match kind with
              | Paging.Read -> Cpu.read_u64 cpu ~ring ~cr3 va
              | Paging.Write ->
                  Result.map (fun () -> 0L) (Cpu.write_u64 cpu ~ring ~cr3 va value)
              | Paging.Exec -> Cpu.resolve cpu ~ring ~cr3 ~kind va
            in
            direct && via_cpu = Ref_tlb.cpu_access ref_cpu mem_rc ~cr3 ~kind ~user va value
        | Invlpg (cr3, va) ->
            let va = pool.(va) in
            Paging.Tlb.invlpg tlb ~cr3 va;
            Ref_tlb.invlpg ref_tlb ~cr3 va;
            Cpu.tlb_invlpg cpu ~cr3 va;
            Ref_tlb.invlpg ref_cpu ~cr3 va;
            true
        | Flush ->
            Paging.Tlb.flush_all tlb;
            Ref_tlb.flush_all ref_tlb;
            Cpu.tlb_flush_all cpu;
            Ref_tlb.flush_all ref_cpu;
            true
        | Rewrite w ->
            List.iter (fun m -> write_entry m w) [ mem_t; mem_rt; mem_c; mem_rc ];
            true
        | Free mfn ->
            List.iter (fun m -> Phys_mem.free m mfn) [ mem_t; mem_rt; mem_c; mem_rc ];
            true
      in
      let agree () =
        Paging.Tlb.stats tlb = Ref_tlb.stats ref_tlb
        && Paging.Tlb.size tlb = Hashtbl.length ref_tlb.Ref_tlb.entries
        && Cpu.tlb_stats cpu = Ref_tlb.stats ref_cpu
        && Paging.Tlb.size (Cpu.tlb cpu) = Hashtbl.length ref_cpu.Ref_tlb.entries
        && Trace.vts tr_t = Trace.vts tr_rt
        && Trace.vts tr_c = Trace.vts tr_rc
      in
      List.for_all (fun op -> step op && agree ()) ops
      && Trace.to_bytes tr_t = Trace.to_bytes tr_rt
      && Trace.to_bytes tr_c = Trace.to_bytes tr_rc)

(* --- Allocation budget ------------------------------------------------------ *)

(* Minor words per call, averaged over [n] calls after one warm-up. The
   GC counters are deterministic, so unlike a timing gate this sees a
   reintroduced tuple key, translation record or closure on any host. *)
let words_per_call ?(n = 10_000) f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_alloc_budget () =
  let tb = Testbed.create_pooled Version.V4_6 in
  let k = tb.Testbed.attacker in
  let va = Domain.kernel_vaddr_of_pfn 5 in
  let clock = Trace.vclock tb.Testbed.hv.Hv.trace in
  check_bool "ring off" false (Trace.recording tb.Testbed.hv.Hv.trace);
  check_bool "provenance detached" true (Phys_mem.provenance tb.Testbed.hv.Hv.mem = None);
  let budget name limit f =
    let w = words_per_call f in
    if w > limit +. 0.01 then
      Alcotest.failf "%s allocates %.2f words per call (budget %.0f)" name w limit
  in
  (* the [Ok] and the boxed [int64] result *)
  budget "Kernel.read_u64 (TLB hit)" 5. (fun () -> ignore (Sys.opaque_identity (Kernel.read_u64 k va)));
  budget "Kernel.write_u64 (TLB hit)" 2. (fun () ->
      ignore (Sys.opaque_identity (Kernel.write_u64 k va 0x5a5aL)));
  budget "Kernel.invlpg" 0. (fun () -> Kernel.invlpg k va);
  budget "Vclock.charge" 0. (fun () -> Vclock.charge clock Vclock.Guest_mem_op);
  (* a miss walks and fills without allocating: only the read's result *)
  budget "Kernel.invlpg + Kernel.read_u64 (TLB miss)" 5. (fun () ->
      Kernel.invlpg k va;
      ignore (Sys.opaque_identity (Kernel.read_u64 k va)))

(* --- Reset = create ------------------------------------------------------- *)

(* The contract on Testbed.reset: a reset testbed is observably
   equivalent to a freshly created one. Campaign.run with a reused
   testbed must therefore return the exact row a full boot returns, for
   every use case and both modes. *)
let test_reset_equals_create_campaign () =
  let tb = Testbed.create Version.V4_6 in
  List.iter
    (fun uc ->
      List.iter
        (fun mode ->
          let fresh = Campaign.run uc mode Version.V4_6 in
          let reused = Campaign.run ~tb uc mode Version.V4_6 in
          check_bool (uc.Campaign.uc_name ^ "/" ^ Campaign.mode_to_string mode) true
            (fresh = reused))
        [ Campaign.Real_exploit; Campaign.Injection ])
    Uc.xen

let test_reset_equals_create_snapshot () =
  let pristine = Monitor.snapshot (Testbed.create Version.V4_8) in
  let tb = Testbed.create Version.V4_8 in
  let hv = tb.Testbed.hv in
  Injector.install hv;
  ignore
    (Injector.write_u64 tb.Testbed.attacker ~addr:0x9000L
       ~action:Injector.Arbitrary_write_physical 0xBEEFL);
  Testbed.reset tb;
  check_bool "snapshot of reset testbed = snapshot of fresh testbed" true
    (Monitor.snapshot tb = pristine)

(* --- Monitor scan cache --------------------------------------------------- *)

(* The cache's one guarantee: passing it never changes a snapshot. Hit
   it with randomized physical-memory corruption and resets — exactly
   the traffic a randomized campaign generates. *)
let prop_scan_cache_transparent =
  QCheck.Test.make ~name:"monitor: snapshot with cache = snapshot without" ~count:10
    QCheck.(list_of_size (Gen.int_range 1 8) (pair (int_bound 0x1F_FFF8) small_int))
    (fun writes ->
      let tb = Testbed.create Version.V4_8 in
      let cache = Monitor.create_scan_cache () in
      List.for_all
        (fun (off, v) ->
          (* align to the u64 containment contract; a straddling write
             raises Bad_maddr, which is Phys_mem's business, not the
             cache's *)
          let off = off land lnot 7 in
          Phys_mem.write_u64 tb.Testbed.hv.Hv.mem (Int64.of_int off) (Int64.of_int v);
          let agree = Monitor.snapshot ~cache tb = Monitor.snapshot tb in
          if v mod 3 = 0 then Testbed.reset tb;
          agree && Monitor.snapshot ~cache tb = Monitor.snapshot tb)
        writes)

(* --- Warm pools and COW forks --------------------------------------------- *)

(* The contract on Testbed.create_pooled: a COW fork of the frozen
   template is observably equivalent to a fresh boot. Every use case,
   both modes, must return the exact row a full build returns. *)
let test_pooled_equals_fresh_campaign () =
  let tb = Testbed.create_pooled Version.V4_6 in
  List.iter
    (fun uc ->
      List.iter
        (fun mode ->
          let fresh = Campaign.run uc mode Version.V4_6 in
          let pooled = Campaign.run ~tb uc mode Version.V4_6 in
          check_bool (uc.Campaign.uc_name ^ "/" ^ Campaign.mode_to_string mode ^ " pooled") true
            (fresh = pooled))
        [ Campaign.Real_exploit; Campaign.Injection ])
    Uc.xen

(* The same contract with extra domains and background load live: the
   pool keys on the domain count, the template stays load-free, and the
   fork installs its own per-domain streams — so a loaded four-domain
   fork must return the exact row a loaded four-domain fresh boot
   returns, per-domain violation rows included. *)
let test_pooled_equals_fresh_multidomain () =
  let load = Ii_trace.Load_mix.default in
  let tb = Testbed.create_pooled ~domains:4 ~load Version.V4_6 in
  List.iter
    (fun uc ->
      List.iter
        (fun mode ->
          let fresh = Campaign.run ~domains:4 ~load uc mode Version.V4_6 in
          let pooled = Campaign.run ~tb uc mode Version.V4_6 in
          check_bool
            (uc.Campaign.uc_name ^ "/" ^ Campaign.mode_to_string mode
           ^ " multi-domain pooled")
            true (fresh = pooled))
        [ Campaign.Real_exploit; Campaign.Injection ])
    Uc.xen

let test_pooled_equals_fresh_kvm () =
  let module BK = Ii_backends.Backend_kvm in
  let module KC = Ii_backends.Backends.Kvm_campaign in
  let tb = BK.create_pooled BK.Stock in
  List.iter
    (fun uc ->
      List.iter
        (fun mode ->
          let fresh = KC.run uc mode BK.Stock in
          let pooled = KC.run ~tb uc mode BK.Stock in
          check_bool (uc.KC.uc_name ^ "/" ^ Campaign.mode_to_string mode ^ " kvm pooled") true
            (fresh = pooled))
        [ Campaign.Real_exploit; Campaign.Injection ])
    Uc.kvm

(* Out-of-band observers on a forked testbed: interleaved monitor scans
   (through the scan cache, whose anchoring rides the baseline epoch the
   fork inherits) must not change the row, and the row must still equal
   the fresh-boot one. *)
let test_pooled_interleaved_scans () =
  let uc = Result.get_ok (Registry.Xen.find "XSA-148-priv") in
  let row_with tb =
    let cache = Monitor.create_scan_cache () in
    Campaign.run ~tb
      ~observer:(fun tb -> ignore (Monitor.snapshot ~cache tb))
      uc Campaign.Injection Version.V4_6
  in
  let fresh = row_with (Testbed.create Version.V4_6) in
  let pooled = row_with (Testbed.create_pooled Version.V4_6) in
  check_bool "interleaved scans: pooled = fresh" true (fresh = pooled)

(* The provenance shadow attaches to a fork exactly as to a fresh boot:
   same causal graph, same taint. *)
let test_pooled_provenance () =
  let uc = Result.get_ok (Registry.Xen.find "XSA-182-test") in
  let stats tb =
    Substrate_xen.enable_provenance tb;
    ignore (Campaign.run ~tb uc Campaign.Injection Version.V4_6);
    let p = Option.get (Substrate_xen.provenance tb) in
    (Ii_trace.Provenance.edge_count p, Ii_trace.Provenance.tainted_bytes p)
  in
  let fresh = stats (Testbed.create Version.V4_6) in
  let pooled = stats (Testbed.create_pooled Version.V4_6) in
  check_bool "provenance on fork = on fresh boot" true (fresh = pooled)

(* Scan-cache anchoring survives the fork: the cache keys on the
   baseline (memory epoch, page-info checkpoint generation), both of
   which the fork copies, so passing a cache never changes a snapshot —
   across corruption and resets. *)
let test_fork_scan_cache_anchoring () =
  let tb = Testbed.create_pooled Version.V4_8 in
  let cache = Monitor.create_scan_cache () in
  let agree () = Monitor.snapshot ~cache tb = Monitor.snapshot tb in
  check_bool "initial agreement" true (agree ());
  Phys_mem.write_u64 tb.Testbed.hv.Hv.mem 0x9000L 0xBEEFL;
  check_bool "after corruption" true (agree ());
  Testbed.reset tb;
  check_bool "after reset" true (agree ())

(* --- The testbed's own scan cache, where campaigns use it ------------------ *)

let corpus_dir = if Sys.file_exists "corpus" then "corpus" else "../corpus"

module XV = Scn_vm.Make (Ii_exploits.Scenario_xen)

(* Every Xen program of the corpus, as campaign use cases. *)
let xen_corpus =
  lazy
    (Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".scn")
    |> List.sort compare
    |> List.filter_map (fun f ->
           match Scn_loader.load_file (Filename.concat corpus_dir f) with
           | Ok p when XV.compatible p -> Some p
           | Ok _ -> None
           | Error e -> Alcotest.failf "%s: %s" f e))

let modes = [ Campaign.Real_exploit; Campaign.Injection ]

(* The corpus matrix as the benchmark runs it: every Xen cell on one
   pooled, loaded 4-domain testbed per version, each trial snapshotting
   through the testbed's cache. After each cell — and again after a
   reset — the cached snapshot must equal the uncached reference, which
   shares no cache state. *)
let test_cache_on_corpus_cells () =
  let progs = Lazy.force xen_corpus in
  check_int "six xen programs" 6 (List.length progs);
  List.iter
    (fun version ->
      let tb = Testbed.create_pooled ~domains:4 ~load:Ii_trace.Load_mix.default version in
      let cache = tb.Testbed.scan_cache in
      List.iter
        (fun p ->
          List.iter
            (fun mode ->
              let cell =
                Printf.sprintf "%s/%s/%s" (Scn_bytecode.name p) (Version.to_string version)
                  (Campaign.mode_to_string mode)
              in
              ignore (Campaign.run ~tb (XV.use_case p) mode version);
              check_bool (cell ^ " after the trial") true
                (Monitor.snapshot ~cache tb = Monitor.snapshot tb);
              Testbed.reset tb;
              check_bool (cell ^ " after reset") true
                (Monitor.snapshot ~cache tb = Monitor.snapshot tb))
            modes)
        progs;
      (* the trials really went through the cache: every domain's
         baseline walk is kept *)
      check_int
        (Version.to_string version ^ " walks kept")
        (List.length (Testbed.kernels tb))
        (Scan_cache.cached_domains cache))
    Version.all

(* A fork gets a cache of its own, empty at birth, and filling it never
   touches the template's. *)
let test_fork_cache_is_its_own () =
  let template = Testbed.create Version.V4_8 in
  ignore (Substrate_xen.snapshot template);
  let kept = Scan_cache.cached_domains template.Testbed.scan_cache in
  check_bool "template cache filled" true (kept > 0);
  Phys_mem.freeze template.Testbed.hv.Hv.mem;
  let fork = Testbed.fork template in
  check_bool "fork has its own cache" true (fork.Testbed.scan_cache != template.Testbed.scan_cache);
  check_int "fork cache empty at birth" 0 (Scan_cache.cached_domains fork.Testbed.scan_cache);
  let snap = Substrate_xen.snapshot fork in
  check_bool "fork snapshot = uncached" true (snap = Monitor.snapshot fork);
  check_int "fork cache filled" kept (Scan_cache.cached_domains fork.Testbed.scan_cache);
  Testbed.reset fork;
  check_bool "after reset" true (Substrate_xen.snapshot fork = Monitor.snapshot fork);
  check_int "template cache untouched" kept
    (Scan_cache.cached_domains template.Testbed.scan_cache)

(* The type-state half of the cache's validity test: a frame promoted to
   a page table while a stale writable mapping of it survives changes
   the exposure without writing any table frame the walk read — only
   the Page_info generation shows it. *)
let test_cache_sees_type_changes () =
  let tb = Testbed.create Version.V4_8 in
  let hv = tb.Testbed.hv in
  let dom = Kernel.dom tb.Testbed.victim in
  let agree () = Substrate_xen.snapshot tb = Monitor.snapshot tb in
  check_bool "baseline" true (agree ());
  let target = Option.get (Domain.mfn_of_pfn dom 10) in
  (* drop the writable type the kernel mapping holds, as a corrupted
     count would, then pin the frame as an L1 under that mapping *)
  Page_info.put_page_type hv.Hv.pages target;
  (match Mm.pin_table hv dom ~level:1 target with
  | Ok () -> ()
  | Error e -> Alcotest.failf "pin: %s" (Errno.to_string e));
  check_bool "exposure appeared" true (Monitor.writable_pt_exposure hv dom > 0);
  check_bool "cached snapshot sees it" true (agree ());
  Testbed.reset tb;
  check_bool "after reset" true (agree ())

(* --- Instrument neutrality of the cache ----------------------------------- *)

(* [Substrate_xen] with the uncached reference snapshot: everything the
   recording stack observes must come out byte-identical on both. *)
module Uncached_xen = struct
  include Substrate_xen

  let snapshot tb = Monitor.snapshot tb
end

module Uncached_ops = struct
  module B = Uncached_xen
  module S = Ii_exploits.Scenario_xen

  let caps = S.caps
  let env = S.env
  let hypercall = S.hypercall
  let guest_op = S.guest_op
  let payload = S.payload
  let state = S.state
  let host_write = S.host_write
end

module UV = Scn_vm.Make (Uncached_ops)
module TD = Trace_driver.Make (Substrate_xen)
module UTD = Trace_driver.Make (Uncached_xen)

type profile = Ring | Vmi | Prov | Cov

let vmi_hooks () =
  let s = Vmi.Scheduler.create (Substrate_xen.detectors ()) in
  ( (fun tb -> Vmi.Scheduler.arm s tb),
    fun tb -> Vmi.Scheduler.step s (Substrate_xen.trace tb) tb )

let test_cache_instrument_neutral () =
  let row_bytes r = Marshal.to_string r [ Marshal.No_sharing ] in
  let cov = Option.map Ii_trace.Coverage.to_hex in
  List.iter
    (fun p ->
      List.iter
        (fun version ->
          List.iter
            (fun mode ->
              List.iter
                (fun (pname, profile) ->
                  let cell =
                    Printf.sprintf "%s/%s/%s/%s" (Scn_bytecode.name p)
                      (Version.to_string version) (Campaign.mode_to_string mode) pname
                  in
                  let provenance = profile = Prov and coverage = profile = Cov in
                  let hooks () = if profile = Vmi then Some (vmi_hooks ()) else None in
                  let c_hooks = hooks () and u_hooks = hooks () in
                  let c =
                    TD.record ~provenance ~coverage ?prepare:(Option.map fst c_hooks)
                      ?observer:(Option.map snd c_hooks) (XV.use_case p) mode version
                  in
                  let u =
                    UTD.record ~provenance ~coverage ?prepare:(Option.map fst u_hooks)
                      ?observer:(Option.map snd u_hooks) (UV.use_case p) mode version
                  in
                  check_bool (cell ^ " ring bytes") true (c.TD.rec_bytes = u.UTD.rec_bytes);
                  check_bool (cell ^ " provenance") true (c.TD.rec_prov = u.UTD.rec_prov);
                  check_bool (cell ^ " coverage") true (cov c.TD.rec_cov = cov u.UTD.rec_cov);
                  check_bool (cell ^ " row") true
                    (row_bytes c.TD.rec_row = row_bytes u.UTD.rec_row);
                  check_bool (cell ^ " final snapshot") true (c.TD.rec_final = u.UTD.rec_final);
                  let cr = TD.replay c and ur = UTD.replay u in
                  check_bool (cell ^ " replay outcome") true
                    (( cr.TD.rp_applied, cr.TD.rp_skipped, cr.TD.rp_final, cr.TD.rp_equal,
                       cr.TD.rp_vts_equal, cr.TD.rp_prov, cr.TD.rp_prov_equal, cov cr.TD.rp_cov,
                       cr.TD.rp_cov_equal )
                    = ( ur.UTD.rp_applied, ur.UTD.rp_skipped, ur.UTD.rp_final, ur.UTD.rp_equal,
                        ur.UTD.rp_vts_equal, ur.UTD.rp_prov, ur.UTD.rp_prov_equal,
                        cov ur.UTD.rp_cov, ur.UTD.rp_cov_equal )))
                [ ("ring", Ring); ("vmi", Vmi); ("provenance", Prov); ("coverage", Cov) ])
            modes)
        Version.all)
    (Lazy.force xen_corpus)

let test_fork_template_isolation () =
  let t = Phys_mem.create ~frames:8 in
  Phys_mem.capture_baseline t;
  Phys_mem.freeze t;
  let f = Phys_mem.fork t in
  check_int "all frames shared at birth" 8 (Phys_mem.shared_frames f);
  Phys_mem.write_u64 f 0x1008L 0xDEADL;
  check_int "first write unshares its frame" 7 (Phys_mem.shared_frames f);
  check_bool "fork sees its write" true (Phys_mem.read_u64 f 0x1008L = 0xDEADL);
  check_bool "template untouched" true (Phys_mem.read_u64 t 0x1008L = 0L);
  ignore (Phys_mem.reset_to_baseline f : int);
  check_bool "fork resets to template state" true (Phys_mem.read_u64 f 0x1008L = 0L);
  (* a sibling fork never sees the other's divergence *)
  let g = Phys_mem.fork t in
  check_bool "sibling fork pristine" true (Phys_mem.read_u64 g 0x1008L = 0L)

let test_frozen_template_immutable () =
  let t = Phys_mem.create ~frames:4 in
  Phys_mem.capture_baseline t;
  Phys_mem.freeze t;
  check_bool "frozen template rejects writes" true
    (match Phys_mem.write_u64 t 0L 1L with
    | exception Invalid_argument _ -> true
    | () -> false);
  check_bool "fork requires a frozen template" true
    (match Phys_mem.fork (Phys_mem.create ~frames:4) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Shared zero page -------------------------------------------------------- *)

(* A fresh memory is a fork of "all zeroes": every frame aliases one
   read-only zero page until its first content write. [frame_ro] on a
   still-shared frame of any fresh memory hands back that very page. *)
let zero_page () = Phys_mem.frame_ro (Phys_mem.create ~frames:1) 0

let check_zero_page_intact what =
  let z = zero_page () in
  check_bool (what ^ ": one page shared by every fresh memory") true (z == zero_page ());
  check_bool (what ^ ": zero page hashes as an all-zero page") true
    (Frame.fnv64 z = Frame.fnv64 (Frame.create ()))

let test_fresh_memory_shares_every_frame () =
  let mem = Phys_mem.create ~frames:64 in
  check_int "every frame shared at birth" 64 (Phys_mem.shared_frames mem);
  check_bool "frames alias the zero page" true (Phys_mem.frame_ro mem 17 == zero_page ());
  Phys_mem.write_u64 mem 0x3008L 0xFEEDL;
  check_int "first content write unshares exactly one frame" 63 (Phys_mem.shared_frames mem);
  Phys_mem.write_u64 mem 0x3010L 0xBEEFL;
  check_int "a second write to that frame unshares nothing" 63 (Phys_mem.shared_frames mem);
  check_bool "the write landed" true (Phys_mem.read_u64 mem 0x3008L = 0xFEEDL);
  check_bool "its neighbour still reads zero" true (Phys_mem.read_u64 mem 0x4008L = 0L);
  check_zero_page_intact "after a content write"

let test_alloc_free_never_write_shared () =
  (* fresh memory: allocating and freeing never-written frames keeps
     them on the zero page *)
  let mem = Phys_mem.create ~frames:16 in
  let ms = Phys_mem.alloc_many mem Phys_mem.Xen 5 in
  check_int "alloc keeps known-zero frames shared" 16 (Phys_mem.shared_frames mem);
  List.iter (Phys_mem.free mem) ms;
  check_int "free keeps known-zero frames shared" 16 (Phys_mem.shared_frames mem);
  check_zero_page_intact "after alloc/free";
  (* fork: freeing and re-allocating a frame whose shared template
     page holds data swaps in a private zero frame *)
  let t = Phys_mem.create ~frames:4 in
  let m = Phys_mem.alloc t Phys_mem.Xen in
  Phys_mem.write_u64 t (Addr.maddr_of_mfn m) 0xC0FFEEL;
  Phys_mem.capture_baseline t;
  Phys_mem.freeze t;
  let f = Phys_mem.fork t in
  Phys_mem.free f m;
  check_int "free detaches the data frame" 3 (Phys_mem.shared_frames f);
  check_bool "the fork's frame is scrubbed" true (Phys_mem.read_u64 f (Addr.maddr_of_mfn m) = 0L);
  check_bool "the template keeps its data" true
    (Phys_mem.read_u64 t (Addr.maddr_of_mfn m) = 0xC0FFEEL);
  check_int "re-alloc hands back the scrubbed frame" m (Phys_mem.alloc f Phys_mem.Xen);
  ignore (Phys_mem.reset_to_baseline f : int);
  check_bool "reset restores the template data" true
    (Phys_mem.read_u64 f (Addr.maddr_of_mfn m) = 0xC0FFEEL);
  check_bool "template still intact" true
    (Phys_mem.read_u64 t (Addr.maddr_of_mfn m) = 0xC0FFEEL);
  check_zero_page_intact "after fork alloc/free"

(* Resetting a fresh memory to its birth baseline is observably a new
   [create]: same owners, free count and bytes in every frame — over
   several trials, so recycled pre-image buffers are exercised too. *)
let test_reset_equals_create_memory () =
  let frames = 32 in
  let observe mem =
    ( Phys_mem.free_frames mem,
      List.init frames (fun i -> (Phys_mem.owner mem i, Phys_mem.frame_hash mem i)) )
  in
  let pristine = observe (Phys_mem.create ~frames) in
  let mem = Phys_mem.create ~frames in
  Phys_mem.capture_baseline mem;
  for trial = 1 to 3 do
    let a = Phys_mem.alloc mem Phys_mem.Xen in
    let b = Phys_mem.alloc mem (Phys_mem.Dom trial) in
    Phys_mem.write_u64 mem (Addr.maddr_of_mfn a) (Int64.of_int trial);
    Phys_mem.write_string mem (Int64.add (Addr.maddr_of_mfn b) 100L) "payload";
    Phys_mem.write_u8 mem (Addr.maddr_of_mfn (20 + trial)) 0xff;
    Phys_mem.free mem a;
    ignore (Phys_mem.reset_to_baseline mem : int);
    check_bool (Printf.sprintf "trial %d: reset = create" trial) true (observe mem = pristine)
  done;
  check_zero_page_intact "after resets"

(* Every use case, both modes, on fresh and pooled testbeds of both
   backends, with provenance and coverage attached (and replayed on
   fresh boots): none of it may write into the shared zero page. *)
let test_zero_page_survives_use_cases () =
  let module BK = Ii_backends.Backend_kvm in
  let module KB = Ii_backends.Backends in
  let modes = [ Campaign.Real_exploit; Campaign.Injection ] in
  let attach_coverage trace =
    Ii_trace.Trace.set_coverage trace (Some (Ii_trace.Coverage.create ()))
  in
  let xen_pool = Testbed.create_pooled Version.V4_6 in
  Substrate_xen.enable_provenance xen_pool;
  attach_coverage xen_pool.Testbed.hv.Hv.trace;
  List.iter
    (fun uc ->
      List.iter
        (fun mode ->
          let r = Trace_driver.record ~provenance:true ~coverage:true uc mode Version.V4_6 in
          ignore (Trace_driver.replay r : Trace_driver.replay_outcome);
          ignore (Campaign.run ~tb:xen_pool uc mode Version.V4_6 : Campaign.result_row))
        modes)
    Uc.xen;
  let kvm_pool = BK.create_pooled BK.Stock in
  BK.enable_provenance kvm_pool;
  attach_coverage (BK.trace kvm_pool);
  List.iter
    (fun uc ->
      List.iter
        (fun mode ->
          let r = KB.Kvm_trace.record ~provenance:true ~coverage:true uc mode BK.Stock in
          ignore (KB.Kvm_trace.replay r : KB.Kvm_trace.replay_outcome);
          ignore (KB.Kvm_campaign.run ~tb:kvm_pool uc mode BK.Stock : KB.Kvm_campaign.result_row))
        modes)
    Uc.kvm;
  check_zero_page_intact "after every use case"

(* --- Batching scheduler ---------------------------------------------------- *)

(* The flattened versions x trials queue must regroup into summaries
   byte-identical to running each version's campaign on its own,
   whatever the worker count; the streaming variant must agree on the
   tallies it keeps. *)
let test_scheduler_matches_per_version () =
  let versions = [ Version.V4_6; Version.V4_8 ] in
  let seq = List.map (Random_campaign.run ~seed:7L ~trials:10) versions in
  check_bool "scheduler w1 = per-version runs" true
    (Campaign_scheduler.run ~seed:7L ~trials:10 ~workers:1 versions = seq);
  check_bool "scheduler w3 = per-version runs" true
    (Campaign_scheduler.run ~seed:7L ~trials:10 ~workers:3 versions = seq);
  let streamed = Campaign_scheduler.run_streamed ~seed:7L ~trials:10 ~workers:3 versions in
  check_bool "streamed tallies = materialized tallies" true
    (List.for_all2
       (fun (s : Random_campaign.summary) t ->
         s.Random_campaign.tally = t.Campaign_scheduler.st_tally)
       seq streamed)

(* --- Shard engine ---------------------------------------------------------- *)

exception Boom of int

let test_shard_exception_propagation () =
  match
    Shard.map_init ~workers:2
      ~init:(fun () -> ())
      (fun () i () -> if i = 5 then raise (Boom i) else i)
      (List.init 32 (fun _ -> ()))
  with
  | _ -> Alcotest.fail "worker exception was swallowed"
  | exception Boom 5 -> ()

let test_shard_fold_sum () =
  let sum w =
    Shard.fold_init ~workers:w ~n:1000 ~init:(fun () -> ()) ~f:(fun () i -> i) ~merge:( + ) 0
  in
  check_int "sequential fold" (999 * 1000 / 2) (sum 1);
  check_int "3-worker fold agrees" (sum 1) (sum 3)

let test_workers_of_string () =
  check_bool "auto resolves within [1,8]" true
    (match Shard.workers_of_string "auto" with Ok n -> n >= 1 && n <= 8 | Error _ -> false);
  check_bool "literal count" true (Shard.workers_of_string "3" = Ok 3);
  check_bool "zero rejected" true (Result.is_error (Shard.workers_of_string "0"));
  check_bool "negative rejected" true (Result.is_error (Shard.workers_of_string "-4"));
  check_bool "junk rejected" true (Result.is_error (Shard.workers_of_string "lots"));
  check_bool "empty rejected" true (Result.is_error (Shard.workers_of_string ""));
  check_bool "float rejected" true (Result.is_error (Shard.workers_of_string "2.5"));
  check_bool "whitespace rejected" true (Result.is_error (Shard.workers_of_string " 3"));
  (* every rejection names the flag the string came from *)
  List.iter
    (fun s ->
      match Shard.workers_of_string s with
      | Ok _ -> Alcotest.failf "%S unexpectedly accepted" s
      | Error msg ->
          check_bool
            (Printf.sprintf "error for %S names --workers" s)
            true
            (String.length msg >= 9 && String.sub msg 0 9 = "--workers"))
    [ "0"; "-1"; "junk"; "" ]

(* --- Sharding determinism ------------------------------------------------- *)

let test_random_campaign_shard_identical () =
  let seq = Random_campaign.run ~seed:7L ~trials:30 Version.V4_8 in
  let sharded = Random_campaign.run ~seed:7L ~trials:30 ~workers:3 Version.V4_8 in
  check_bool "sequential = 3-worker summary" true (seq = sharded)

let test_run_matrix_shard_identical () =
  let seq = Campaign.run_matrix Uc.xen ~versions:[ Version.V4_6 ] ~modes:[ Campaign.Injection ] in
  let sharded =
    Campaign.run_matrix ~workers:2 Uc.xen ~versions:[ Version.V4_6 ]
      ~modes:[ Campaign.Injection ]
  in
  check_bool "sequential = 2-worker matrix" true (seq = sharded);
  let module BK = Ii_backends.Backend_kvm in
  let module KC = Ii_backends.Backends.Kvm_campaign in
  let modes = [ Campaign.Real_exploit; Campaign.Injection ] in
  let kseq = KC.run_matrix Uc.kvm ~versions:BK.configs ~modes in
  let ksharded = KC.run_matrix ~workers:2 Uc.kvm ~versions:BK.configs ~modes in
  check_bool "kvm: sequential = 2-worker matrix" true (kseq = ksharded)

(* --- Phys_mem allocator --------------------------------------------------- *)

let test_alloc_lowest_free () =
  let mem = Phys_mem.create ~frames:16 in
  let a = Phys_mem.alloc mem Phys_mem.Xen in
  let b = Phys_mem.alloc mem Phys_mem.Xen in
  let c = Phys_mem.alloc mem (Phys_mem.Dom 1) in
  check_int "first" 0 a;
  check_int "second" 1 b;
  check_int "third" 2 c;
  Phys_mem.free mem b;
  check_int "freed slot is reused first" b (Phys_mem.alloc mem Phys_mem.Xen)

let test_alloc_zeroed_after_dirty_free () =
  let mem = Phys_mem.create ~frames:8 in
  let m = Phys_mem.alloc mem Phys_mem.Xen in
  Frame.set_u64 (Phys_mem.frame mem m) 0 0xDEAD_BEEFL;
  Phys_mem.free mem m;
  let m' = Phys_mem.alloc mem (Phys_mem.Dom 3) in
  check_int "same frame" m m';
  check_bool "scrubbed on reallocation" true
    (Frame.to_bytes (Phys_mem.frame_ro mem m') = Bytes.make 4096 '\000')

let test_free_frames_counter () =
  let mem = Phys_mem.create ~frames:12 in
  check_int "all free" 12 (Phys_mem.free_frames mem);
  let ms = Phys_mem.alloc_many mem Phys_mem.Xen 5 in
  check_int "after alloc_many" 7 (Phys_mem.free_frames mem);
  List.iter (Phys_mem.free mem) ms;
  check_int "after freeing" 12 (Phys_mem.free_frames mem)

(* --- Page_info generation and checkpointing ------------------------------- *)

let test_page_info_generation () =
  let pages = Page_info.create ~frames:8 in
  let g0 = Page_info.generation pages in
  Page_info.get_page pages 3;
  check_int "plain refcounting does not move the generation" g0 (Page_info.generation pages);
  (match Page_info.get_page_type pages 3 Page_info.PGT_l1 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "typing a fresh frame");
  check_bool "typing bumps the generation" true (Page_info.generation pages > g0)

let test_page_info_checkpoint_restore () =
  let pages = Page_info.create ~frames:8 in
  let ck = Page_info.checkpoint pages in
  let g0 = Page_info.generation pages in
  (match Page_info.get_page_type pages 2 Page_info.PGT_l2 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "typing a fresh frame");
  Page_info.set_type pages 5 Page_info.PGT_seg ~count:0;
  Page_info.restore pages ck;
  check_bool "type rolled back" true ((Page_info.view pages 2).Page_info.ptype = Page_info.PGT_none);
  check_int "type count rolled back" 0 (Page_info.view pages 2).Page_info.type_count;
  check_bool "out-of-band write rolled back" true
    ((Page_info.view pages 5).Page_info.ptype = Page_info.PGT_none);
  check_int "generation rolled back" g0 (Page_info.generation pages);
  check_bool "counts consistent" true (Page_info.counts_consistent pages)

(* The packed state against a plain-record model: random sequences of
   the type discipline's operations, allocation and release, pins, and
   checkpoint/restore/fork interleaved. After every step the packed
   state equals the model, the counts stay consistent, and the
   generation moves exactly when the model's type state (owner, type,
   type count) does — the mark the scan cache and O(touched) restore
   both rely on. *)
type pi_op =
  | Get of int
  | Put of int
  | Get_type of int * Page_info.ptype
  | Put_type of int
  | Validate of int * bool
  | Pin of int
  | Unpin of int
  | Alloc of int * Phys_mem.owner
  | Release of int
  | Checkpoint
  | Restore
  | Fork

let pi_frames = 6

let pi_op_gen =
  let open QCheck.Gen in
  let mfn = int_bound (pi_frames - 1) in
  let ptype =
    oneofl Page_info.[ PGT_writable; PGT_l1; PGT_l2; PGT_l3; PGT_l4; PGT_seg ]
  in
  let owner = oneofl Phys_mem.[ Xen; Dom 0; Dom 1; Dom 7 ] in
  frequency
    [
      (3, map (fun m -> Get m) mfn);
      (3, map (fun m -> Put m) mfn);
      (4, map2 (fun m p -> Get_type (m, p)) mfn ptype);
      (3, map (fun m -> Put_type m) mfn);
      (1, map2 (fun m b -> Validate (m, b)) mfn bool);
      (1, map (fun m -> Pin m) mfn);
      (1, map (fun m -> Unpin m) mfn);
      (2, map2 (fun m o -> Alloc (m, o)) mfn owner);
      (2, map (fun m -> Release m) mfn);
      (1, return Checkpoint);
      (1, return Restore);
      (1, return Fork);
    ]

let pi_op_print = function
  | Get m -> Printf.sprintf "get %d" m
  | Put m -> Printf.sprintf "put %d" m
  | Get_type (m, p) -> Printf.sprintf "get_type %d %s" m (Page_info.ptype_to_string p)
  | Put_type m -> Printf.sprintf "put_type %d" m
  | Validate (m, b) -> Printf.sprintf "validate %d %b" m b
  | Pin m -> Printf.sprintf "pin %d" m
  | Unpin m -> Printf.sprintf "unpin %d" m
  | Alloc (m, _) -> Printf.sprintf "alloc %d" m
  | Release m -> Printf.sprintf "release %d" m
  | Checkpoint -> "checkpoint"
  | Restore -> "restore"
  | Fork -> "fork"

let fresh_view =
  { Page_info.owner = Phys_mem.Free; ptype = Page_info.PGT_none; type_count = 0; ref_count = 0;
    validated = false; pinned = false }

(* the model of one operation; [None] = the operation must raise *)
let model_step (v : Page_info.view) = function
  | Get _ -> Some { v with ref_count = v.ref_count + 1 }
  | Put _ -> if v.ref_count <= 0 then None else Some { v with ref_count = v.ref_count - 1 }
  | Get_type (_, p) ->
      if v.ptype = p && v.type_count > 0 then Some { v with type_count = v.type_count + 1 }
      else if v.type_count = 0 then Some { v with ptype = p; type_count = 1; validated = false }
      else Some v (* EBUSY: unchanged *)
  | Put_type _ ->
      if v.type_count <= 0 then None
      else if v.type_count = 1 then
        Some { v with type_count = 0; validated = false; pinned = false }
      else Some { v with type_count = v.type_count - 1 }
  | Validate (_, b) -> Some { v with validated = b }
  | Pin _ -> Some (if v.type_count > 0 then { v with pinned = true } else v)
  | Unpin _ -> Some { v with pinned = false }
  | Alloc (_, o) -> Some { fresh_view with owner = o; ref_count = 1 }
  | Release _ -> Some { v with owner = Phys_mem.Free; ref_count = 0; validated = false; pinned = false }
  | Checkpoint | Restore | Fork -> Some v

let apply_op t = function
  | Get m -> Page_info.get_page t m
  | Put m -> Page_info.put_page t m
  | Get_type (m, p) -> ignore (Page_info.get_page_type t m p)
  | Put_type m -> Page_info.put_page_type t m
  | Validate (m, b) -> Page_info.set_validated t m b
  | Pin m -> if Page_info.type_count t m > 0 then Page_info.set_pinned t m true
  | Unpin m -> Page_info.set_pinned t m false
  | Alloc (m, o) -> Page_info.assign t m o
  | Release m -> Page_info.release t m
  | Checkpoint | Restore | Fork -> ()

let type_state (v : Page_info.view) = (v.owner, v.ptype, v.type_count)

let prop_page_info_model =
  QCheck.Test.make ~name:"page_info: packed state = record model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pi_op_print ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 60) pi_op_gen))
    (fun ops ->
      let t = ref (Page_info.create ~frames:pi_frames) in
      let model = Array.make pi_frames fresh_view in
      let ck = ref (Page_info.checkpoint !t) and ck_model = ref (Array.copy model) in
      let ck_gen = ref (Page_info.generation !t) in
      let agrees () =
        Array.for_all2 (fun m i -> m = Page_info.view !t i) model (Array.init pi_frames Fun.id)
        && Page_info.counts_consistent !t
      in
      List.for_all
        (fun op ->
          let g0 = Page_info.generation !t in
          let types0 = Array.map type_state model in
          let ok =
            match op with
            | Checkpoint ->
                ck := Page_info.checkpoint !t;
                ck_model := Array.copy model;
                ck_gen := g0;
                Page_info.generation !t = g0
            | Restore ->
                Page_info.restore !t !ck;
                Array.blit !ck_model 0 model 0 pi_frames;
                Page_info.generation !t = !ck_gen
            | Fork ->
                t := Page_info.of_checkpoint !ck;
                Array.blit !ck_model 0 model 0 pi_frames;
                Page_info.generation !t = !ck_gen
            | Get m | Put m | Get_type (m, _) | Put_type m | Validate (m, _) | Pin m | Unpin m
            | Alloc (m, _) | Release m -> (
                match model_step model.(m) op with
                | None -> (
                    match apply_op !t op with
                    | () -> false
                    | exception Invalid_argument _ -> Page_info.generation !t = g0)
                | Some v ->
                    apply_op !t op;
                    model.(m) <- v;
                    let moved = Page_info.generation !t <> g0 in
                    moved = (type_state v <> types0.(m)))
          in
          ok && agrees ()
          && ((not (Page_info.at_checkpoint !t))
             || Array.map type_state model = Array.map type_state !ck_model))
        ops)

let () =
  Alcotest.run "perf_engine"
    [
      ( "tlb",
        [
          Alcotest.test_case "stale without invlpg" `Quick test_stale_tlb_without_invlpg;
          Alcotest.test_case "coherent across reset" `Quick test_tlb_survives_reset;
        ]
        @ qsuite
            [
              prop_tlb_transparent_under_invalidation;
              prop_walker_matches_reference;
              prop_tlb_matches_reference;
            ] );
      ("alloc", [ Alcotest.test_case "guest memory access" `Quick test_alloc_budget ]);
      ( "reset",
        [
          Alcotest.test_case "campaign rows: reset = create" `Quick
            test_reset_equals_create_campaign;
          Alcotest.test_case "snapshots: reset = create" `Quick test_reset_equals_create_snapshot;
        ] );
      ( "scan_cache",
        [
          Alcotest.test_case "testbed cache on every xen corpus cell" `Quick
            test_cache_on_corpus_cells;
          Alcotest.test_case "instrument neutrality" `Quick test_cache_instrument_neutral;
          Alcotest.test_case "type-state changes invalidate" `Quick test_cache_sees_type_changes;
        ]
        @ qsuite [ prop_scan_cache_transparent ] );
      ( "pool",
        [
          Alcotest.test_case "campaign rows: pooled = fresh (xen)" `Quick
            test_pooled_equals_fresh_campaign;
          Alcotest.test_case "campaign rows: pooled = fresh (kvm)" `Quick
            test_pooled_equals_fresh_kvm;
          Alcotest.test_case "campaign rows: pooled = fresh (4 domains, loaded)" `Quick
            test_pooled_equals_fresh_multidomain;
          Alcotest.test_case "interleaved scans on a fork" `Quick test_pooled_interleaved_scans;
          Alcotest.test_case "provenance on a fork" `Quick test_pooled_provenance;
          Alcotest.test_case "scan-cache anchoring on a fork" `Quick
            test_fork_scan_cache_anchoring;
          Alcotest.test_case "a fork's scan cache is its own" `Quick test_fork_cache_is_its_own;
        ] );
      ( "cow_fork",
        [
          Alcotest.test_case "template isolation" `Quick test_fork_template_isolation;
          Alcotest.test_case "frozen template immutable" `Quick test_frozen_template_immutable;
        ] );
      ( "zero_page",
        [
          Alcotest.test_case "fresh memory shares every frame" `Quick
            test_fresh_memory_shares_every_frame;
          Alcotest.test_case "alloc/free never write shared frames" `Quick
            test_alloc_free_never_write_shared;
          Alcotest.test_case "reset = create" `Quick test_reset_equals_create_memory;
          Alcotest.test_case "intact after every use case" `Quick
            test_zero_page_survives_use_cases;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "flattened queue = per-version runs" `Quick
            test_scheduler_matches_per_version;
        ] );
      ( "shard",
        [
          Alcotest.test_case "exception propagation" `Quick test_shard_exception_propagation;
          Alcotest.test_case "streaming fold" `Quick test_shard_fold_sum;
          Alcotest.test_case "workers_of_string" `Quick test_workers_of_string;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "random campaign" `Quick test_random_campaign_shard_identical;
          Alcotest.test_case "run_matrix" `Quick test_run_matrix_shard_identical;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "lowest free first" `Quick test_alloc_lowest_free;
          Alcotest.test_case "zeroed after dirty free" `Quick test_alloc_zeroed_after_dirty_free;
          Alcotest.test_case "free counter" `Quick test_free_frames_counter;
        ] );
      ( "page_info",
        [
          Alcotest.test_case "generation" `Quick test_page_info_generation;
          Alcotest.test_case "checkpoint/restore" `Quick test_page_info_checkpoint_restore;
        ]
        @ qsuite [ prop_page_info_model ] );
    ]
