let start_info_magic = "xen-3.0-x86_64"
let vdso_magic = "\x7fELF-vdso-v1"
let sif_initdomain = 1L
let user_vdso_va = 0x0000_7fff_f000_0000L

module Start_info = struct
  let magic_off = 0
  let domid_off = 16
  let flags_off = 24
  let pt_base_off = 32
  let nr_pages_off = 40
  let vdso_pfn_off = 48
  let hostname_off = 64
end

module Vdso = struct
  let magic_off = 0
  let domid_off = 16
  let code_off = 64
  let code_len = 256
end

let kernel_l1_count ~pages = (pages + Addr.entries_per_table - 1) / Addr.entries_per_table
let pt_page_count ~pages = 1 + 1 + 1 + kernel_l1_count ~pages + 3

let intermediate = Pte.make ~flags:[ Pte.Present; Pte.Rw; Pte.User ]
let leaf_rw mfn = Pte.make ~mfn ~flags:[ Pte.Present; Pte.Rw; Pte.User ]
let leaf_ro mfn = Pte.make ~mfn ~flags:[ Pte.Present; Pte.User ]

let write_start_info hv dom ~mfn ~l4_mfn ~pages =
  let frame = Phys_mem.frame hv.Hv.mem mfn in
  Frame.write_string frame Start_info.magic_off start_info_magic;
  Frame.set_u64 frame Start_info.domid_off (Int64.of_int dom.Domain.id);
  Frame.set_u64 frame Start_info.flags_off (if dom.Domain.privileged then sif_initdomain else 0L);
  Frame.set_u64 frame Start_info.pt_base_off (Int64.of_int l4_mfn);
  Frame.set_u64 frame Start_info.nr_pages_off (Int64.of_int pages);
  Frame.set_u64 frame Start_info.vdso_pfn_off (Int64.of_int dom.Domain.vdso_pfn);
  Frame.write_string frame Start_info.hostname_off (dom.Domain.name ^ "\000")

let write_vdso hv dom ~mfn =
  let frame = Phys_mem.frame hv.Hv.mem mfn in
  Frame.write_string frame Vdso.magic_off vdso_magic;
  Frame.set_u64 frame Vdso.domid_off (Int64.of_int dom.Domain.id);
  for i = 0 to Vdso.code_len - 2 do
    Frame.set_u8 frame (Vdso.code_off + i) 0x90 (* nop sled *)
  done;
  Frame.set_u8 frame (Vdso.code_off + Vdso.code_len - 1) 0xc3 (* ret *)

(* Per-domain, Xen-owned tables mapping the M2P read-only under L4 slot
   256. The upper entries carry RW — restriction lives at the leaves. *)
let build_m2p_chain hv l4_frame =
  let m2p_frames = Array.length hv.Hv.m2p_mfns in
  if m2p_frames > Addr.entries_per_table then
    invalid_arg "Builder: M2P too large for a single L1";
  let pud_x = Hv.alloc_xen_page hv in
  let l2_x = Hv.alloc_xen_page hv in
  let l1_x = Hv.alloc_xen_page hv in
  Frame.set_entry l4_frame Layout.m2p_slot (intermediate ~mfn:pud_x);
  Frame.set_entry (Phys_mem.frame hv.Hv.mem pud_x) 0 (intermediate ~mfn:l2_x);
  Frame.set_entry (Phys_mem.frame hv.Hv.mem l2_x) 0 (intermediate ~mfn:l1_x);
  Array.iteri
    (fun i m2p_mfn -> Frame.set_entry (Phys_mem.frame hv.Hv.mem l1_x) i (leaf_ro m2p_mfn))
    hv.Hv.m2p_mfns;
  let mark mfn level =
    Page_info.set_type hv.Hv.pages mfn (Page_info.ptype_of_level level) ~count:1;
    Page_info.set_validated hv.Hv.pages mfn true
  in
  mark pud_x 3;
  mark l2_x 2;
  mark l1_x 1;
  [ pud_x; l2_x; l1_x ]

let create_domain hv ~name ~privileged ~pages =
  let pt_count = pt_page_count ~pages in
  if pages < pt_count + 3 then invalid_arg "Builder.create_domain: domain too small";
  let id = Hv.fresh_domid hv in
  let dom = Domain.make ~id ~name ~privileged ~max_pfn:pages ~start_info_pfn:0 ~vdso_pfn:1 in
  (* Populate the P2M in pfn order; frames come out contiguous. *)
  for pfn = 0 to pages - 1 do
    let mfn = Hv.alloc_domain_page hv dom in
    Domain.set_p2m dom pfn (Some mfn);
    Hv.m2p_set hv mfn (Some pfn)
  done;
  let mfn_of pfn =
    match Domain.mfn_of_pfn dom pfn with
    | Some mfn -> mfn
    | None -> failwith "Builder: unpopulated pfn"
  in
  (* Page-table pages live at the top of the pfn space. *)
  let kl1s = kernel_l1_count ~pages in
  let l4_pfn = pages - 1 in
  let l3k_pfn = pages - 2 in
  let l2k_pfn = pages - 3 in
  let l1k_pfn j = pages - 4 - j in
  let l3u_pfn = pages - 4 - kl1s in
  let l2u_pfn = pages - 5 - kl1s in
  let l1u_pfn = pages - 6 - kl1s in
  let pt_pfns =
    l4_pfn :: l3k_pfn :: l2k_pfn :: l3u_pfn :: l2u_pfn :: l1u_pfn
    :: List.init kl1s (fun j -> l1k_pfn j)
  in
  let is_pt_pfn pfn = List.mem pfn pt_pfns in
  let l4_mfn = mfn_of l4_pfn in
  let l4_frame = Phys_mem.frame hv.Hv.mem l4_mfn in
  let entry_frame pfn = Phys_mem.frame hv.Hv.mem (mfn_of pfn) in
  (* Kernel area: pfn p mapped at guest_kernel_base + p * PAGE_SIZE. *)
  Frame.set_entry l4_frame (Addr.l4_index Layout.guest_kernel_base) (intermediate ~mfn:(mfn_of l3k_pfn));
  Frame.set_entry (entry_frame l3k_pfn) 0 (intermediate ~mfn:(mfn_of l2k_pfn));
  for j = 0 to kl1s - 1 do
    Frame.set_entry (entry_frame l2k_pfn) j (intermediate ~mfn:(mfn_of (l1k_pfn j)))
  done;
  for pfn = 0 to pages - 1 do
    let j = pfn / Addr.entries_per_table and i = pfn mod Addr.entries_per_table in
    let leaf = if is_pt_pfn pfn then leaf_ro else leaf_rw in
    Frame.set_entry (entry_frame (l1k_pfn j)) i (leaf (mfn_of pfn))
  done;
  (* User area: only the vDSO, read-only + user. *)
  let uva = user_vdso_va in
  Frame.set_entry l4_frame (Addr.l4_index uva) (intermediate ~mfn:(mfn_of l3u_pfn));
  Frame.set_entry (entry_frame l3u_pfn) (Addr.l3_index uva) (intermediate ~mfn:(mfn_of l2u_pfn));
  Frame.set_entry (entry_frame l2u_pfn) (Addr.l2_index uva) (intermediate ~mfn:(mfn_of l1u_pfn));
  Frame.set_entry (entry_frame l1u_pfn) (Addr.l1_index uva) (leaf_ro (mfn_of dom.Domain.vdso_pfn));
  (* Xen-provided M2P mapping. *)
  let m2p_chain = build_m2p_chain hv l4_frame in
  (* Special pages. *)
  write_start_info hv dom ~mfn:(mfn_of dom.Domain.start_info_pfn) ~l4_mfn ~pages;
  write_vdso hv dom ~mfn:(mfn_of dom.Domain.vdso_pfn);
  dom.Domain.pt_pages <- List.map mfn_of pt_pfns @ m2p_chain;
  (* Validate through the normal promotion path, pin, and switch. *)
  hv.Hv.domains <- hv.Hv.domains @ [ dom ];
  (match Mm.promote hv dom ~level:4 l4_mfn with
  | Ok () -> ()
  | Error e ->
      failwith
        (Printf.sprintf "Builder: fresh address space failed validation (%s)" (Errno.to_string e)));
  (match Mm.pin_table hv dom ~level:4 l4_mfn with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "Builder: pin failed (%s)" (Errno.to_string e)));
  (match Mm.set_baseptr hv dom l4_mfn with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "Builder: baseptr failed (%s)" (Errno.to_string e)));
  ignore (Sched.add_vcpu hv.Hv.sched ~dom:id);
  (* The toolstack's initial XenStore nodes for the new domain. *)
  Xenstore.inject_write hv.Hv.xenstore (Xenstore.domain_path id "name") name;
  Xenstore.inject_write hv.Hv.xenstore
    (Xenstore.domain_path id "memory/target")
    (string_of_int pages);
  Hv.log hv
    (Printf.sprintf "d%d (%s%s): %d pages, pt_base mfn 0x%x" id name
       (if privileged then ", privileged" else "")
       pages l4_mfn);
  dom
