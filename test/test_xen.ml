(* Unit and property tests for the hypervisor library. *)

open Ii_xen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_i64 = Alcotest.(check int64)

let errno_t : Errno.t Alcotest.testable =
  Alcotest.testable (fun ppf e -> Errno.pp ppf e) ( = )

let ok_unit = function Ok () -> true | Error (_ : Errno.t) -> false

(* --- Version ---------------------------------------------------------- *)

let test_version_predicates () =
  check_bool "4.6 148" false (Version.xsa148_fixed Version.V4_6);
  check_bool "4.8 148" true (Version.xsa148_fixed Version.V4_8);
  check_bool "4.6 182" false (Version.xsa182_fixed Version.V4_6);
  check_bool "4.6 212" false (Version.xsa212_fixed Version.V4_6);
  check_bool "4.13 212" true (Version.xsa212_fixed Version.V4_13);
  check_bool "4.6 hardened" false (Version.hardened_address_space Version.V4_6);
  check_bool "4.8 hardened" false (Version.hardened_address_space Version.V4_8);
  check_bool "4.13 hardened" true (Version.hardened_address_space Version.V4_13)

let test_version_strings () =
  List.iter
    (fun v ->
      match Version.of_string (Version.to_string v) with
      | Some v' -> check_bool "roundtrip" true (v = v')
      | None -> Alcotest.fail "of_string")
    Version.all;
  check_bool "unknown" true (Version.of_string "5.0" = None);
  check_bool "banner" true (String.length (Version.banner Version.V4_6) > 0)

(* --- Errno ------------------------------------------------------------ *)

let test_errno_codes () =
  check_int "EFAULT" 14 (Errno.to_int Errno.EFAULT);
  check_int "EINVAL" 22 (Errno.to_int Errno.EINVAL);
  check_int "-EFAULT" (-14) (Errno.to_return_code Errno.EFAULT);
  Alcotest.(check string) "name" "EPERM" (Errno.to_string Errno.EPERM)

(* --- Page_info --------------------------------------------------------- *)

let test_page_type_discipline () =
  let t = Page_info.create ~frames:4 in
  check_bool "promote fresh" true (Page_info.get_page_type t 0 Page_info.PGT_l1 = Ok ());
  check_bool "retype busy" true
    (Page_info.get_page_type t 0 Page_info.PGT_writable = Error Errno.EBUSY);
  check_bool "same type ok" true (Page_info.get_page_type t 0 Page_info.PGT_l1 = Ok ());
  check_int "count" 2 (Page_info.view t 0).Page_info.type_count;
  Page_info.put_page_type t 0;
  Page_info.put_page_type t 0;
  check_int "count zero" 0 (Page_info.view t 0).Page_info.type_count;
  check_bool "retype after drop" true (Page_info.get_page_type t 0 Page_info.PGT_writable = Ok ())

let test_page_refcounts () =
  let t = Page_info.create ~frames:2 in
  Page_info.get_page t 1;
  Page_info.get_page t 1;
  check_int "refs" 2 (Page_info.view t 1).Page_info.ref_count;
  Page_info.put_page t 1;
  Page_info.put_page t 1;
  Alcotest.check_raises "underflow" (Invalid_argument "Page_info.put_page: refcount underflow")
    (fun () -> Page_info.put_page t 1)

let test_page_levels () =
  check_bool "l1" true (Page_info.table_level Page_info.PGT_l1 = Some 1);
  check_bool "l4" true (Page_info.table_level Page_info.PGT_l4 = Some 4);
  check_bool "writable" true (Page_info.table_level Page_info.PGT_writable = None);
  check_bool "roundtrip" true
    (List.for_all
       (fun l -> Page_info.table_level (Page_info.ptype_of_level l) = Some l)
       [ 1; 2; 3; 4 ]);
  check_bool "consistent" true (Page_info.counts_consistent (Page_info.create ~frames:8))

(* --- Event channels ----------------------------------------------------- *)

let test_evtchn_bind_send () =
  let a = Event_channel.create ~max_ports:8 in
  let b = Event_channel.create ~max_ports:8 in
  let remote_port =
    match Event_channel.alloc_unbound a ~allowed_remote:2 with
    | Ok p -> p
    | Error _ -> Alcotest.fail "alloc"
  in
  (match
     Event_channel.bind_interdomain ~local:b ~local_dom:2 ~remote:a ~remote_dom:1 ~remote_port
   with
  | Ok p ->
      check_bool "send ok" true (Event_channel.send b p = Ok ());
      check_int "pending" 1 (List.length (Event_channel.pending_ports b));
      check_bool "consume" true (Event_channel.consume b p);
      check_bool "consume twice" false (Event_channel.consume b p)
  | Error _ -> Alcotest.fail "bind");
  check_int "remote bound" 1 (List.length (Event_channel.bound_ports a))

let test_evtchn_permissions () =
  let a = Event_channel.create ~max_ports:4 in
  let b = Event_channel.create ~max_ports:4 in
  let p = Result.get_ok (Event_channel.alloc_unbound a ~allowed_remote:5) in
  check_bool "wrong dom refused" true
    (Event_channel.bind_interdomain ~local:b ~local_dom:2 ~remote:a ~remote_dom:1 ~remote_port:p
    = Error Errno.EPERM);
  check_bool "bad port" true
    (Event_channel.bind_interdomain ~local:b ~local_dom:2 ~remote:a ~remote_dom:1 ~remote_port:99
    = Error Errno.EINVAL);
  check_bool "send unbound" true (Event_channel.send a p = Error Errno.ENOENT)

let test_evtchn_exhaustion_and_close () =
  let a = Event_channel.create ~max_ports:2 in
  ignore (Event_channel.alloc_unbound a ~allowed_remote:1);
  ignore (Event_channel.alloc_unbound a ~allowed_remote:1);
  check_bool "full" true (Event_channel.alloc_unbound a ~allowed_remote:1 = Error Errno.ENOSPC);
  check_bool "close" true (Event_channel.close a 0 = Ok ());
  check_bool "close free" true (Event_channel.close a 0 = Error Errno.ENOENT);
  check_bool "realloc" true (Event_channel.alloc_unbound a ~allowed_remote:1 = Ok 0)

let test_evtchn_force_pending () =
  let a = Event_channel.create ~max_ports:16 in
  check_int "forced" 16 (Event_channel.force_pending_all a);
  check_int "pending" 16 (List.length (Event_channel.pending_ports a));
  check_int "again" 0 (Event_channel.force_pending_all a)

(* --- Grant tables -------------------------------------------------------- *)

let gt_alloc_pool () =
  let next = ref 1000 in
  let freed = ref [] in
  let alloc () =
    incr next;
    !next
  in
  let release mfn = freed := mfn :: !freed in
  (alloc, release, freed)

let test_grant_map_unmap () =
  let t = Grant_table.create ~grefs:8 in
  check_bool "grant" true
    (ok_unit (Grant_table.grant_access t ~gref:3 ~grantee:2 ~mfn:77 ~readonly:false));
  (match Grant_table.map t ~granter:1 ~mapper:2 ~gref:3 with
  | Ok r ->
      check_int "mfn" 77 r.Grant_table.mapped_mfn;
      check_bool "rw" false r.Grant_table.map_readonly;
      check_bool "end while mapped" true (Grant_table.end_access t ~gref:3 = Error Errno.EBUSY);
      check_bool "unmap" true (ok_unit (Grant_table.unmap t ~handle:r.Grant_table.handle));
      check_bool "end after unmap" true (ok_unit (Grant_table.end_access t ~gref:3))
  | Error _ -> Alcotest.fail "map");
  check_bool "map revoked" true (Grant_table.map t ~granter:1 ~mapper:2 ~gref:3 = Error Errno.ENOENT)

let test_grant_wrong_mapper () =
  let t = Grant_table.create ~grefs:4 in
  ignore (Grant_table.grant_access t ~gref:0 ~grantee:2 ~mfn:5 ~readonly:true);
  check_bool "wrong dom" true (Grant_table.map t ~granter:1 ~mapper:3 ~gref:0 = Error Errno.EPERM);
  check_bool "bad gref" true (Grant_table.map t ~granter:1 ~mapper:2 ~gref:9 = Error Errno.EINVAL)

let test_grant_version_switch () =
  let t = Grant_table.create ~grefs:4 in
  let alloc, release, freed = gt_alloc_pool () in
  check_bool "to v2" true (ok_unit (Grant_table.set_version t ~alloc ~release Grant_table.V2));
  check_int "status frames" 1 (List.length (Grant_table.status_frames t));
  check_bool "back to v1" true (ok_unit (Grant_table.set_version t ~alloc ~release Grant_table.V1));
  check_int "status released" 1 (List.length !freed);
  check_int "none retained" 0 (List.length (Grant_table.status_frames t))

let test_grant_version_switch_blocked_while_mapped () =
  let t = Grant_table.create ~grefs:4 in
  let alloc, release, _ = gt_alloc_pool () in
  ignore (Grant_table.grant_access t ~gref:0 ~grantee:2 ~mfn:5 ~readonly:true);
  ignore (Grant_table.map t ~granter:1 ~mapper:2 ~gref:0);
  check_bool "busy" true
    (Grant_table.set_version t ~alloc ~release Grant_table.V2 = Error Errno.EBUSY)

(* --- Grant/evtchn error paths under multi-domain load --------------------- *)

(* The same error paths, driven through the full hypercall dispatcher on
   a four-domain testbed with the default background mix running: every
   tick interleaves two bystander domains' grant/evtchn/memory traffic
   with the steps under test, so the error returns must hold with other
   domains' handles and ports live in the same tables. *)

module TB = Ii_guest.Testbed
module GK = Ii_guest.Kernel

let loaded_tb () = TB.create ~domains:4 ~load:Ii_trace.Load_mix.default Version.V4_8

let test_grant_revoked_mid_map_under_load () =
  let tb = loaded_tb () in
  let victim = tb.TB.victim and attacker = tb.TB.attacker in
  let rc k call = GK.hypercall_rc k call in
  TB.tick_all tb;
  check_int "grant" 0
    (rc victim
       (Hypercall.Grant_table_op
          (Hypercall.Gnttab_grant_access
             { gref = 5; grantee = GK.domid attacker; pfn = 30; readonly = true })));
  TB.tick_all tb;
  let handle =
    rc attacker
      (Hypercall.Grant_table_op
         (Hypercall.Gnttab_map { granter = GK.domid victim; gref = 5 }))
  in
  check_bool "mapped" true (handle >= 0);
  TB.tick_all tb;
  (* the granter revokes while the foreign mapping is still live *)
  check_int "revoke mid-map refused" (-16)
    (rc victim (Hypercall.Grant_table_op (Hypercall.Gnttab_end_access { gref = 5 })));
  TB.tick_all tb;
  check_int "unmap" 0
    (rc attacker
       (Hypercall.Grant_table_op (Hypercall.Gnttab_unmap { granter = GK.domid victim; handle })));
  check_int "revoke after unmap" 0
    (rc victim (Hypercall.Grant_table_op (Hypercall.Gnttab_end_access { gref = 5 })));
  check_int "map after revoke" (-2)
    (rc attacker
       (Hypercall.Grant_table_op (Hypercall.Gnttab_map { granter = GK.domid victim; gref = 5 })))

let test_grant_crossdomain_unmap_ordering_under_load () =
  let tb = loaded_tb () in
  let victim = tb.TB.victim and attacker = tb.TB.attacker in
  let extra =
    match TB.guest_kernels tb with
    | _ :: _ :: e :: _ -> e
    | _ -> Alcotest.fail "expected a third guest domain"
  in
  let rc k call = GK.hypercall_rc k call in
  (* one gref granted to two different domains in turn: the granter may
     only retire the entry once every mapper has released it, whatever
     order they unmap in *)
  check_int "grant to attacker" 0
    (rc victim
       (Hypercall.Grant_table_op
          (Hypercall.Gnttab_grant_access
             { gref = 6; grantee = GK.domid attacker; pfn = 31; readonly = true })));
  let h1 =
    rc attacker
      (Hypercall.Grant_table_op
         (Hypercall.Gnttab_map { granter = GK.domid victim; gref = 6 }))
  in
  check_bool "first mapping" true (h1 >= 0);
  TB.tick_all tb;
  (* a third domain is not the grantee: its map attempt must fail even
     while the legitimate mapping is live *)
  check_int "third domain refused" (-1)
    (rc extra
       (Hypercall.Grant_table_op
          (Hypercall.Gnttab_map { granter = GK.domid victim; gref = 6 })));
  TB.tick_all tb;
  (* a second mapping by the grantee shares the entry *)
  let h2 =
    rc attacker
      (Hypercall.Grant_table_op
         (Hypercall.Gnttab_map { granter = GK.domid victim; gref = 6 }))
  in
  check_bool "second mapping" true (h2 >= 0 && h2 <> h1);
  check_int "revoke with two live" (-16)
    (rc victim (Hypercall.Grant_table_op (Hypercall.Gnttab_end_access { gref = 6 })));
  check_int "unmap first" 0
    (rc attacker
       (Hypercall.Grant_table_op
          (Hypercall.Gnttab_unmap { granter = GK.domid victim; handle = h1 })));
  check_int "revoke with one live" (-16)
    (rc victim (Hypercall.Grant_table_op (Hypercall.Gnttab_end_access { gref = 6 })));
  TB.tick_all tb;
  check_int "unmap second" 0
    (rc attacker
       (Hypercall.Grant_table_op
          (Hypercall.Gnttab_unmap { granter = GK.domid victim; handle = h2 })));
  check_int "stale handle" (-2)
    (rc attacker
       (Hypercall.Grant_table_op
          (Hypercall.Gnttab_unmap { granter = GK.domid victim; handle = h1 })));
  check_int "revoke after both" 0
    (rc victim (Hypercall.Grant_table_op (Hypercall.Gnttab_end_access { gref = 6 })))

let test_evtchn_closed_channel_under_load () =
  let tb = loaded_tb () in
  let victim = tb.TB.victim and attacker = tb.TB.attacker in
  let rc k call = GK.hypercall_rc k call in
  let remote_port =
    rc victim
      (Hypercall.Event_channel_op
         (Hypercall.Evtchn_alloc_unbound { allowed_remote = GK.domid attacker }))
  in
  check_bool "alloc" true (remote_port >= 0);
  let local =
    rc attacker
      (Hypercall.Event_channel_op
         (Hypercall.Evtchn_bind_interdomain
            { remote_dom = GK.domid victim; remote_port }))
  in
  check_bool "bind" true (local >= 0);
  TB.tick_all tb;
  check_int "send" 0
    (rc attacker (Hypercall.Event_channel_op (Hypercall.Evtchn_send { port = local })));
  (* the peer closes its end: the sender's port still exists but the
     signal has nowhere to land *)
  check_int "peer close" 0
    (rc victim (Hypercall.Event_channel_op (Hypercall.Evtchn_close { port = remote_port })));
  TB.tick_all tb;
  check_int "send to closed peer" (-2)
    (rc attacker (Hypercall.Event_channel_op (Hypercall.Evtchn_send { port = local })));
  (* closing our own end, then sending on it *)
  check_int "own close" 0
    (rc attacker (Hypercall.Event_channel_op (Hypercall.Evtchn_close { port = local })));
  check_int "send on own closed port" (-2)
    (rc attacker (Hypercall.Event_channel_op (Hypercall.Evtchn_send { port = local })));
  check_int "double close" (-2)
    (rc attacker (Hypercall.Event_channel_op (Hypercall.Evtchn_close { port = local })));
  check_int "close out of range" (-22)
    (rc attacker (Hypercall.Event_channel_op (Hypercall.Evtchn_close { port = 999 })))

(* --- Sched ---------------------------------------------------------------- *)

let test_sched_round_robin () =
  let sched = Sched.create () in
  ignore (Sched.add_vcpu sched ~dom:0);
  ignore (Sched.add_vcpu sched ~dom:1);
  ignore (Sched.add_vcpu sched ~dom:2);
  let order = List.init 6 (fun _ -> Sched.tick sched) in
  check_bool "fair rotation" true
    (order
    = [ Sched.Scheduled 0; Sched.Scheduled 1; Sched.Scheduled 2; Sched.Scheduled 0;
        Sched.Scheduled 1; Sched.Scheduled 2 ]);
  check_int "runs counted" 2 (Sched.runs_of sched ~dom:1)

let test_sched_idle () =
  let sched = Sched.create () in
  check_bool "idle" true (Sched.tick sched = Sched.Idle)

let test_sched_hang_pins_cpu () =
  let sched = Sched.create ~watchdog_enabled:false () in
  ignore (Sched.add_vcpu sched ~dom:0);
  ignore (Sched.add_vcpu sched ~dom:1);
  check_bool "hang" true (Sched.hang_vcpu sched ~dom:1 ~reason:"#DB storm" = Ok ());
  (match Sched.tick sched with
  | Sched.Cpu_stalled _ -> ()
  | Sched.Scheduled _ | Sched.Idle -> Alcotest.fail "expected stall");
  check_int "dom0 starved" 0 (Sched.runs_of sched ~dom:0);
  check_int "stall counted" 1 (Sched.stalled_slices sched);
  check_bool "unhang" true (Sched.unhang_vcpu sched ~dom:1 = Ok ());
  (match Sched.tick sched with
  | Sched.Scheduled _ -> ()
  | Sched.Cpu_stalled _ | Sched.Idle -> Alcotest.fail "expected progress");
  check_int "stall reset" 0 (Sched.stalled_slices sched)

let test_sched_watchdog () =
  let sched = Sched.create ~watchdog_threshold:3 () in
  ignore (Sched.add_vcpu sched ~dom:0);
  ignore (Sched.hang_vcpu sched ~dom:0 ~reason:"loop");
  for _ = 1 to 3 do
    ignore (Sched.tick sched)
  done;
  check_bool "not yet" false (Sched.watchdog_fired sched);
  ignore (Sched.tick sched);
  check_bool "fired" true (Sched.watchdog_fired sched);
  check_bool "hang missing dom" true (Sched.hang_vcpu sched ~dom:9 ~reason:"x" = Error Errno.ENOENT)

let test_sched_smp_degradation_vs_freeze () =
  (* the deployment ablation: one hung vcpu freezes a 1-pCPU host but
     only degrades a 2-pCPU one *)
  let smp = Sched.create ~pcpus:2 ~watchdog_threshold:3 () in
  ignore (Sched.add_vcpu smp ~dom:0);
  ignore (Sched.add_vcpu smp ~dom:1);
  ignore (Sched.add_vcpu smp ~dom:2);
  ignore (Sched.hang_vcpu smp ~dom:1 ~reason:"loop");
  for _ = 1 to 12 do
    ignore (Sched.tick smp)
  done;
  check_bool "others still run" true (Sched.runs_of smp ~dom:0 > 0 && Sched.runs_of smp ~dom:2 > 0);
  check_int "hung vcpu got nothing" 0 (Sched.runs_of smp ~dom:1);
  check_bool "no watchdog" false (Sched.watchdog_fired smp);
  (* a second hang pins the last pCPU: now it is a freeze *)
  ignore (Sched.hang_vcpu smp ~dom:2 ~reason:"loop");
  for _ = 1 to 6 do
    ignore (Sched.tick smp)
  done;
  check_bool "now stalled" true (Sched.stalled_slices smp > 0);
  check_bool "watchdog fires" true (Sched.watchdog_fired smp)

let test_hv_watchdog_panics () =
  let hv = Hv.boot ~version:Version.V4_8 ~frames:512 in
  ignore (Builder.create_domain hv ~name:"g" ~privileged:false ~pages:32);
  ignore (Sched.hang_vcpu hv.Hv.sched ~dom:0 ~reason:"emulation loop");
  for _ = 1 to 16 do
    ignore (Hv.sched_tick hv)
  done;
  check_bool "panicked" true (Hv.is_crashed hv);
  check_bool "watchdog dump" true
    (List.mem "(XEN) *** WATCHDOG TIMEOUT ***" (Hv.console_lines hv))

(* --- Hv boot ----------------------------------------------------------- *)

let boot ?(version = Version.V4_6) () = Hv.boot ~version ~frames:512

let test_boot_structures () =
  let hv = boot () in
  check_bool "idt installed" true (Cpu.idt_mfn hv.Hv.cpu = Some hv.Hv.idt_mfn);
  check_bool "pf gate valid" true
    (let gate = Idt.read_gate hv.Hv.mem hv.Hv.idt_mfn Idt.vector_page_fault in
     gate.Idt.gate_present && Cpu.handler_name hv.Hv.cpu gate.Idt.handler = Some "page_fault");
  check_bool "console boot line" true
    (List.exists
       (fun l -> String.length l > 5 && String.sub l 0 5 = "(XEN)")
       (Hv.console_lines hv))

let test_m2p () =
  let hv = boot () in
  check_bool "invalid initially" true (Hv.m2p_lookup hv 100 = None);
  Hv.m2p_set hv 100 (Some 7);
  check_bool "set" true (Hv.m2p_lookup hv 100 = Some 7);
  let frame_mfn, off = Hv.m2p_frame_for hv 100 in
  check_i64 "raw bytes" 7L (Frame.get_u64 (Phys_mem.frame hv.Hv.mem frame_mfn) off);
  Hv.m2p_set hv 100 None;
  check_bool "cleared" true (Hv.m2p_lookup hv 100 = None);
  check_bool "m2p frame recognized" true (Hv.is_m2p_frame hv frame_mfn)

let test_release_page_discipline () =
  let hv = boot () in
  let mfn = Hv.alloc_xen_page hv in
  Page_info.get_page hv.Hv.pages mfn;
  Alcotest.check errno_t "busy" Errno.EBUSY (Result.get_error (Hv.release_page hv mfn));
  Page_info.put_page hv.Hv.pages mfn;
  check_bool "released" true (ok_unit (Hv.release_page hv mfn));
  check_bool "freed" true (Phys_mem.owner hv.Hv.mem mfn = Phys_mem.Free)

let test_panic_once () =
  let hv = boot () in
  Hv.panic hv ~reason:"first" ~dump:[ "dump line" ];
  Hv.panic hv ~reason:"second" ~dump:[];
  (match hv.Hv.crashed with
  | Some { Hv.reason; _ } -> Alcotest.(check string) "first wins" "first" reason
  | None -> Alcotest.fail "not crashed");
  check_bool "dump logged" true (List.mem "(XEN) dump line" (Hv.console_lines hv))

let test_deliver_fault_panics_on_corrupt_gate () =
  let hv = boot () in
  Idt.write_gate hv.Hv.mem hv.Hv.idt_mfn Idt.vector_page_fault
    { Idt.handler = 0x666L; selector = 0xe008; gate_present = true };
  (match Hv.deliver_fault hv ~vector:Idt.vector_page_fault ~detail:"test" with
  | Cpu.Double_fault_panic _ -> ()
  | _ -> Alcotest.fail "expected double fault");
  check_bool "crashed" true (Hv.is_crashed hv);
  check_bool "dump mentions DOUBLE FAULT" true
    (List.mem "(XEN) *** DOUBLE FAULT ***" (Hv.console_lines hv))

let test_hypercall_extension_table () =
  let hv = boot () in
  check_bool "empty" true (Hv.lookup_hypercall hv 40 = None);
  Hv.register_hypercall hv ~number:40 ~name:"test" (fun _ _ _ -> Ok 5L);
  (match Hv.lookup_hypercall hv 40 with
  | Some (name, h) ->
      Alcotest.(check string) "name" "test" name;
      let dom =
        Domain.make ~id:9 ~name:"x" ~privileged:false ~max_pfn:1 ~start_info_pfn:0 ~vdso_pfn:0
      in
      check_bool "call" true (h hv dom [||] = Ok 5L)
  | None -> Alcotest.fail "registered");
  Hv.register_hypercall hv ~number:40 ~name:"test2" (fun _ _ _ -> Ok 6L);
  match Hv.lookup_hypercall hv 40 with
  | Some (name, _) -> Alcotest.(check string) "replaced" "test2" name
  | None -> Alcotest.fail "lost"

(* --- Builder + Mm ------------------------------------------------------- *)

let built ?(version = Version.V4_6) () =
  let hv = Hv.boot ~version ~frames:1024 in
  let dom0 = Builder.create_domain hv ~name:"dom0" ~privileged:true ~pages:64 in
  let guest = Builder.create_domain hv ~name:"guest" ~privileged:false ~pages:64 in
  (hv, dom0, guest)

let kva pfn = Domain.kernel_vaddr_of_pfn pfn
let guest_read hv dom va = Cpu.read_u64 hv.Hv.cpu ~ring:Cpu.Kernel ~cr3:dom.Domain.l4_mfn va
let guest_write hv dom va v = Cpu.write_u64 hv.Hv.cpu ~ring:Cpu.Kernel ~cr3:dom.Domain.l4_mfn va v

let test_builder_address_space () =
  let hv, _, guest = built () in
  check_bool "data rw" true (Result.is_ok (guest_write hv guest (kva 5) 0xABCL));
  check_bool "read back" true (guest_read hv guest (kva 5) = Ok 0xABCL);
  let l4_pfn = 63 in
  check_bool "pt readable" true (Result.is_ok (guest_read hv guest (kva l4_pfn)));
  check_bool "pt not writable" true (Result.is_error (guest_write hv guest (kva l4_pfn) 1L));
  match
    Cpu.read_bytes hv.Hv.cpu ~ring:Cpu.Kernel ~cr3:guest.Domain.l4_mfn (kva 0)
      (String.length Builder.start_info_magic)
  with
  | Ok b -> Alcotest.(check string) "magic" Builder.start_info_magic (Bytes.to_string b)
  | Error _ -> Alcotest.fail "start_info read"

let test_builder_m2p_visible () =
  let hv, _, guest = built () in
  let pfn = 3 in
  let mfn = Option.get (Domain.mfn_of_pfn guest pfn) in
  check_bool "m2p" true (Hv.m2p_lookup hv mfn = Some pfn);
  let m2p_va = Int64.add Layout.m2p_base (Int64.of_int (mfn * 8)) in
  check_bool "guest reads m2p" true (guest_read hv guest m2p_va = Ok (Int64.of_int pfn));
  check_bool "guest cannot write m2p" true (Result.is_error (guest_write hv guest m2p_va 0L))

let test_builder_counts_consistent () =
  let hv, _, _ = built () in
  check_bool "consistent" true (Page_info.counts_consistent hv.Hv.pages)

let test_builder_vdso_user_mapping () =
  let hv, _, guest = built () in
  let va = Builder.user_vdso_va in
  (match
     Cpu.read_bytes hv.Hv.cpu ~ring:Cpu.User ~cr3:guest.Domain.l4_mfn va
       (String.length Builder.vdso_magic)
   with
  | Ok b -> Alcotest.(check string) "vdso magic" Builder.vdso_magic (Bytes.to_string b)
  | Error _ -> Alcotest.fail "user vdso read");
  check_bool "user cannot write vdso" true
    (Result.is_error (Cpu.write_u64 hv.Hv.cpu ~ring:Cpu.User ~cr3:guest.Domain.l4_mfn va 0L))

let test_builder_pt_count () =
  check_int "pt pages for 64" 7 (Builder.pt_page_count ~pages:64);
  check_int "pt pages for 600" (1 + 1 + 1 + 2 + 3) (Builder.pt_page_count ~pages:600)

(* --- Mm: mmu_update validation ----------------------------------------- *)

let l1_of hv dom =
  match Paging.walk hv.Hv.mem ~cr3:dom.Domain.l4_mfn (kva 0) with
  | Ok tr -> (List.nth tr.Paging.path 3).Paging.table_mfn
  | Error _ -> Alcotest.fail "no kernel l1"

let l2_of hv dom =
  match Paging.walk hv.Hv.mem ~cr3:dom.Domain.l4_mfn (kva 0) with
  | Ok tr -> (List.nth tr.Paging.path 2).Paging.table_mfn
  | Error _ -> Alcotest.fail "no kernel l2"

let entry_ptr mfn index = Int64.add (Addr.maddr_of_mfn mfn) (Int64.of_int (8 * index))

let test_mmu_update_remap () =
  let hv, _, guest = built () in
  let l1 = l1_of hv guest in
  let mfn9 = Option.get (Domain.mfn_of_pfn guest 9) in
  check_bool "unmap" true (Mm.mmu_update hv guest ~updates:[ (entry_ptr l1 9, Pte.none) ] = Ok 1);
  check_bool "unmapped" true (Result.is_error (guest_read hv guest (kva 9)));
  let e = Pte.make ~mfn:mfn9 ~flags:[ Pte.Present; Pte.Rw; Pte.User ] in
  check_bool "remap" true (Mm.mmu_update hv guest ~updates:[ (entry_ptr l1 9, e) ] = Ok 1);
  check_bool "mapped again" true (Result.is_ok (guest_read hv guest (kva 9)))

let test_mmu_update_rejects_xen_frames () =
  let hv, _, guest = built () in
  let l1 = l1_of hv guest in
  let e = Pte.make ~mfn:hv.Hv.idt_mfn ~flags:[ Pte.Present; Pte.Rw; Pte.User ] in
  Alcotest.check errno_t "idt write refused" Errno.EPERM
    (Result.get_error (Mm.mmu_update hv guest ~updates:[ (entry_ptr l1 200, e) ]));
  let m2p_frame = hv.Hv.m2p_mfns.(0) in
  let e = Pte.make ~mfn:m2p_frame ~flags:[ Pte.Present; Pte.User ] in
  check_bool "m2p ro ok" true (Mm.mmu_update hv guest ~updates:[ (entry_ptr l1 200, e) ] = Ok 1)

let test_mmu_update_rejects_writable_pt_mapping () =
  let hv, _, guest = built () in
  let l1 = l1_of hv guest in
  let e = Pte.make ~mfn:guest.Domain.l4_mfn ~flags:[ Pte.Present; Pte.Rw; Pte.User ] in
  Alcotest.check errno_t "no writable pt maps" Errno.EPERM
    (Result.get_error (Mm.mmu_update hv guest ~updates:[ (entry_ptr l1 200, e) ]));
  let e_ro = Pte.make ~mfn:guest.Domain.l4_mfn ~flags:[ Pte.Present; Pte.User ] in
  check_bool "ro pt map ok" true (Mm.mmu_update hv guest ~updates:[ (entry_ptr l1 200, e_ro) ] = Ok 1)

let test_mmu_update_rejects_foreign_frames () =
  let hv, dom0, guest = built () in
  let l1 = l1_of hv guest in
  let foreign = Option.get (Domain.mfn_of_pfn dom0 5) in
  let e = Pte.make ~mfn:foreign ~flags:[ Pte.Present; Pte.Rw; Pte.User ] in
  Alcotest.check errno_t "foreign refused" Errno.EPERM
    (Result.get_error (Mm.mmu_update hv guest ~updates:[ (entry_ptr l1 200, e) ]));
  let l1_dom0 = l1_of hv dom0 in
  let guest_frame = Option.get (Domain.mfn_of_pfn guest 5) in
  let e = Pte.make ~mfn:guest_frame ~flags:[ Pte.Present; Pte.Rw; Pte.User ] in
  check_bool "dom0 maps guest" true
    (Mm.mmu_update hv dom0 ~updates:[ (entry_ptr l1_dom0 200, e) ] = Ok 1)

let test_mmu_update_grant_allows_foreign () =
  let hv, _, guest = built () in
  let victim = Builder.create_domain hv ~name:"victim" ~privileged:false ~pages:32 in
  let victim_frame = Option.get (Domain.mfn_of_pfn victim 5) in
  (* without a grant: refused *)
  let l1 = l1_of hv guest in
  let e = Pte.make ~mfn:victim_frame ~flags:[ Pte.Present; Pte.User ] in
  Alcotest.check errno_t "no grant" Errno.EPERM
    (Result.get_error (Mm.mmu_update hv guest ~updates:[ (entry_ptr l1 201, e) ]));
  (* with an active grant mapping record: allowed read-only *)
  ignore
    (Grant_table.grant_access victim.Domain.grant ~gref:0 ~grantee:guest.Domain.id
       ~mfn:victim_frame ~readonly:true);
  ignore (Grant_table.map victim.Domain.grant ~granter:victim.Domain.id ~mapper:guest.Domain.id ~gref:0);
  check_bool "granted ro ok" true (Mm.mmu_update hv guest ~updates:[ (entry_ptr l1 201, e) ] = Ok 1);
  (* but not writable when the grant is read-only *)
  let e_rw = Pte.set Pte.Rw e in
  Alcotest.check errno_t "granted ro not rw" Errno.EPERM
    (Result.get_error (Mm.mmu_update hv guest ~updates:[ (entry_ptr l1 202, e_rw) ]))

let test_mmu_update_rejects_non_table () =
  let hv, _, guest = built () in
  let data_mfn = Option.get (Domain.mfn_of_pfn guest 5) in
  Alcotest.check errno_t "not a pt page" Errno.EINVAL
    (Result.get_error (Mm.mmu_update hv guest ~updates:[ (entry_ptr data_mfn 0, Pte.none) ]))

let test_mmu_update_xen_l4_slots_protected () =
  let hv, _, guest = built () in
  let l4 = guest.Domain.l4_mfn in
  Alcotest.check errno_t "slot 256 protected" Errno.EPERM
    (Result.get_error (Mm.mmu_update hv guest ~updates:[ (entry_ptr l4 Layout.m2p_slot, Pte.none) ]))

let test_mmu_update_xsa148_behaviour () =
  let check version expected_ok =
    let hv = Hv.boot ~version ~frames:1024 in
    let guest = Builder.create_domain hv ~name:"g" ~privileged:false ~pages:64 in
    let l2 = l2_of hv guest in
    let l1 = l1_of hv guest in
    let pse = Pte.make ~mfn:l1 ~flags:[ Pte.Present; Pte.Rw; Pte.User; Pte.Pse ] in
    let result = Mm.mmu_update hv guest ~updates:[ (entry_ptr l2 9, pse) ] in
    check_bool
      (Printf.sprintf "PSE on %s" (Version.to_string version))
      expected_ok (Result.is_ok result)
  in
  check Version.V4_6 true;
  check Version.V4_8 false;
  check Version.V4_13 false

let test_mmu_update_xsa182_behaviour () =
  let attempt version =
    let hv = Hv.boot ~version ~frames:1024 in
    let guest = Builder.create_domain hv ~name:"g" ~privileged:false ~pages:64 in
    let l4 = guest.Domain.l4_mfn in
    let slot = Layout.xen_extra_slot in
    let ro = Pte.make ~mfn:l4 ~flags:[ Pte.Present; Pte.User ] in
    let rw = Pte.make ~mfn:l4 ~flags:[ Pte.Present; Pte.User; Pte.Rw ] in
    let step1 = Mm.mmu_update hv guest ~updates:[ (entry_ptr l4 slot, ro) ] in
    let step2 = Mm.mmu_update hv guest ~updates:[ (entry_ptr l4 slot, rw) ] in
    (Result.is_ok step1, Result.is_ok step2)
  in
  check_bool "4.6 both succeed" true (attempt Version.V4_6 = (true, true));
  check_bool "4.8 upgrade refused" true (attempt Version.V4_8 = (true, false));
  check_bool "4.13 self-map refused" true (attempt Version.V4_13 = (false, false))

let test_safe_flags () =
  check_bool "4.6 l4 includes rw" true (List.mem Pte.Rw (Mm.safe_flags Version.V4_6 ~level:4));
  check_bool "4.8 l4 excludes rw" false (List.mem Pte.Rw (Mm.safe_flags Version.V4_8 ~level:4));
  check_bool "4.6 l2 excludes rw" false (List.mem Pte.Rw (Mm.safe_flags Version.V4_6 ~level:2))

let test_update_va_mapping () =
  let hv, _, guest = built () in
  check_bool "unmap via va" true (Result.is_ok (Mm.update_va_mapping hv guest ~va:(kva 7) Pte.none));
  check_bool "unmapped" true (Result.is_error (guest_read hv guest (kva 7)));
  Alcotest.check errno_t "no path" Errno.EINVAL
    (Result.get_error (Mm.update_va_mapping hv guest ~va:0x400_0000_0000L Pte.none))

let test_decrease_reservation () =
  let hv, _, guest = built () in
  Alcotest.check errno_t "mapped busy" Errno.EBUSY
    (Result.get_error (Mm.decrease_reservation hv guest [ 7 ]));
  ignore (Mm.update_va_mapping hv guest ~va:(kva 7) Pte.none);
  let mfn = Option.get (Domain.mfn_of_pfn guest 7) in
  check_bool "released" true (Mm.decrease_reservation hv guest [ 7 ] = Ok 1);
  check_bool "p2m cleared" true (Domain.mfn_of_pfn guest 7 = None);
  check_bool "m2p cleared" true (Hv.m2p_lookup hv mfn = None);
  check_bool "frame freed" true (Phys_mem.owner hv.Hv.mem mfn = Phys_mem.Free);
  Alcotest.check errno_t "absent pfn" Errno.EINVAL
    (Result.get_error (Mm.decrease_reservation hv guest [ 7 ]))

let test_pin_unpin () =
  let hv, _, guest = built () in
  let l1 = l1_of hv guest in
  check_bool "pin l1" true (Result.is_ok (Mm.pin_table hv guest ~level:1 l1));
  check_bool "pinned" true (Page_info.view hv.Hv.pages l1).Page_info.pinned;
  check_bool "unpin" true (Result.is_ok (Mm.unpin_table hv guest l1));
  Alcotest.check errno_t "unpin twice" Errno.EINVAL
    (Result.get_error (Mm.unpin_table hv guest l1))

(* --- Uaccess -------------------------------------------------------------- *)

let test_uaccess_checked () =
  let hv, _, guest = built () in
  let data = Bytes.of_string "hello" in
  check_bool "guest kernel target ok" true (ok_unit (Uaccess.copy_to_guest hv guest (kva 5) data));
  (match Uaccess.copy_from_guest hv guest (kva 5) 5 with
  | Ok b -> Alcotest.(check string) "read back" "hello" (Bytes.to_string b)
  | Error _ -> Alcotest.fail "copy_from");
  let xen_va = Layout.directmap_of_maddr (Addr.maddr_of_mfn hv.Hv.idt_mfn) in
  Alcotest.check errno_t "addr_ok enforced" Errno.EFAULT
    (Result.get_error (Uaccess.copy_to_guest hv guest xen_va data))

let test_uaccess_unchecked_is_arbitrary () =
  let hv, _, guest = built () in
  let target_mfn = hv.Hv.idt_mfn in
  let xen_va = Layout.directmap_of_maddr (Addr.maddr_of_mfn target_mfn) in
  let data = Bytes.make 8 '\xAA' in
  check_bool "broken path writes Xen memory" true
    (ok_unit (Uaccess.copy_to_guest_unchecked hv guest xen_va data));
  check_i64 "bytes landed" 0xAAAAAAAAAAAAAAAAL
    (Frame.get_u64 (Phys_mem.frame hv.Hv.mem target_mfn) 0)

let test_uaccess_range_check () =
  let hv, _, _ = built () in
  check_bool "guest range" true (Uaccess.guest_range_ok hv (kva 0) 4096);
  check_bool "xen range" false (Uaccess.guest_range_ok hv Layout.directmap_base 8);
  check_bool "straddling" false (Uaccess.guest_range_ok hv (Int64.sub Layout.m2p_base 4L) 16)

(* --- Memory_exchange ------------------------------------------------------ *)

let unmap hv dom pfn = ignore (Mm.update_va_mapping hv dom ~va:(kva pfn) Pte.none)

let test_exchange_normal () =
  let hv, _, guest = built () in
  unmap hv guest 9;
  let old_mfn = Option.get (Domain.mfn_of_pfn guest 9) in
  let out = kva 5 in
  match
    Memory_exchange.exchange hv guest { Memory_exchange.in_pfns = [ 9 ]; out_extent_start = out }
  with
  | Ok { Memory_exchange.nr_exchanged; new_mfns } ->
      check_int "one" 1 nr_exchanged;
      let new_mfn = List.hd new_mfns in
      ignore old_mfn (* the allocator may legitimately hand the same frame back *);
      check_bool "p2m updated" true (Domain.mfn_of_pfn guest 9 = Some new_mfn);
      check_bool "m2p updated" true (Hv.m2p_lookup hv new_mfn = Some 9);
      if new_mfn <> old_mfn then
        check_bool "old m2p cleared" true (Hv.m2p_lookup hv old_mfn = None);
      check_i64 "result word" (Memory_exchange.result_word new_mfn)
        (Result.get_ok (guest_read hv guest out))
  | Error _ -> Alcotest.fail "exchange"

let test_exchange_mapped_page_busy () =
  let hv, _, guest = built () in
  Alcotest.check errno_t "busy" Errno.EBUSY
    (Result.get_error
       (Memory_exchange.exchange hv guest
          { Memory_exchange.in_pfns = [ 9 ]; out_extent_start = kva 5 }))

let test_exchange_xsa212 () =
  let attempt version =
    let hv = Hv.boot ~version ~frames:1024 in
    let guest = Builder.create_domain hv ~name:"g" ~privileged:false ~pages:64 in
    unmap hv guest 9;
    let target = Layout.directmap_of_maddr (Addr.maddr_of_mfn hv.Hv.idt_mfn) in
    Memory_exchange.exchange hv guest
      { Memory_exchange.in_pfns = [ 9 ]; out_extent_start = target }
  in
  check_bool "4.6 vulnerable" true (Result.is_ok (attempt Version.V4_6));
  Alcotest.check errno_t "4.8 fixed" Errno.EFAULT (Result.get_error (attempt Version.V4_8));
  Alcotest.check errno_t "4.13 fixed" Errno.EFAULT (Result.get_error (attempt Version.V4_13))

let test_exchange_conserves_pages () =
  let hv, _, guest = built () in
  let before = List.length (Domain.populated_pfns guest) in
  unmap hv guest 9;
  unmap hv guest 10;
  (match
     Memory_exchange.exchange hv guest
       { Memory_exchange.in_pfns = [ 9; 10 ]; out_extent_start = kva 5 }
   with
  | Ok { Memory_exchange.nr_exchanged; _ } -> check_int "two" 2 nr_exchanged
  | Error _ -> Alcotest.fail "exchange");
  check_int "conserved" before (List.length (Domain.populated_pfns guest))

(* --- Abi (register-level hypercalls) ---------------------------------------- *)

let scratch_va = kva 5

let stage hv dom data =
  match Cpu.write_bytes hv.Hv.cpu ~ring:Cpu.Kernel ~cr3:dom.Domain.l4_mfn scratch_va data with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "staging buffer"

let test_abi_mmu_update () =
  let hv, _, guest = built () in
  let l1 = l1_of hv guest in
  stage hv guest (Abi.encode_mmu_updates [ (entry_ptr l1 9, Pte.none) ]);
  check_int "rax" 1 (Abi.dispatch hv guest ~number:Abi.mmu_update_nr ~rdi:scratch_va ~rsi:1L ());
  check_bool "unmapped" true (Result.is_error (guest_read hv guest (kva 9)));
  (* bad request pointer *)
  check_int "efault" (-14)
    (Abi.dispatch hv guest ~number:Abi.mmu_update_nr ~rdi:Layout.directmap_base ~rsi:1L ());
  (* unbounded count *)
  check_int "einval" (-22)
    (Abi.dispatch hv guest ~number:Abi.mmu_update_nr ~rdi:scratch_va ~rsi:99999L ())

let test_abi_update_va_mapping () =
  let hv, _, guest = built () in
  check_int "rax" 0
    (Abi.dispatch hv guest ~number:Abi.update_va_mapping_nr ~rdi:(kva 9) ~rsi:Pte.none ());
  check_bool "unmapped" true (Result.is_error (guest_read hv guest (kva 9)))

let test_abi_memory_op_decrease () =
  let hv, _, guest = built () in
  ignore (Mm.update_va_mapping hv guest ~va:(kva 9) Pte.none);
  (* pfn array at scratch+64, struct at scratch *)
  let array_va = Int64.add scratch_va 64L in
  stage hv guest (Abi.encode_decrease ~extent_start:array_va ~nr_extents:1);
  (match Cpu.write_bytes hv.Hv.cpu ~ring:Cpu.Kernel ~cr3:guest.Domain.l4_mfn array_va
           (Abi.encode_u64_array [ 9L ]) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "array staging");
  check_int "released" 1
    (Abi.dispatch hv guest ~number:Abi.memory_op_nr ~rdi:Abi.subop_decrease_reservation
       ~rsi:scratch_va ());
  check_bool "gone" true (Domain.mfn_of_pfn guest 9 = None)

let test_abi_memory_op_exchange_xsa212 () =
  let attempt version =
    let hv = Hv.boot ~version ~frames:1024 in
    let guest = Builder.create_domain hv ~name:"g" ~privileged:false ~pages:64 in
    ignore (Mm.update_va_mapping hv guest ~va:(kva 9) Pte.none);
    let target = Layout.directmap_of_maddr (Addr.maddr_of_mfn hv.Hv.idt_mfn) in
    let array_va = Int64.add scratch_va 64L in
    stage hv guest (Abi.encode_exchange ~in_extent_start:array_va ~nr_in:1 ~out_extent_start:target);
    (match Cpu.write_bytes hv.Hv.cpu ~ring:Cpu.Kernel ~cr3:guest.Domain.l4_mfn array_va
             (Abi.encode_u64_array [ 9L ]) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "array staging");
    Abi.dispatch hv guest ~number:Abi.memory_op_nr ~rdi:Abi.subop_exchange ~rsi:scratch_va ()
  in
  check_int "4.6 raw breakout accepted" 1 (attempt Version.V4_6);
  check_int "4.8 raw breakout refused" (-14) (attempt Version.V4_8)

let test_abi_console_io () =
  let hv, _, guest = built () in
  stage hv guest (Bytes.of_string "abi hello");
  check_int "rax" 0
    (Abi.dispatch hv guest ~number:Abi.console_io_nr ~rdi:0L ~rsi:9L ~rdx:scratch_va ());
  check_bool "console" true
    (List.exists
       (fun l -> l = Printf.sprintf "(XEN) (d%d) abi hello" guest.Domain.id)
       (Hv.console_lines hv))

let test_abi_mmuext_pin_unpin () =
  let hv, _, guest = built () in
  let l1 = l1_of hv guest in
  stage hv guest (Abi.encode_mmuext [ (Abi.mmuext_pin_l1, Int64.of_int l1) ]);
  check_int "pin rax" 1 (Abi.dispatch hv guest ~number:Abi.mmuext_op_nr ~rdi:scratch_va ~rsi:1L ());
  check_bool "pinned" true (Page_info.view hv.Hv.pages l1).Page_info.pinned;
  stage hv guest (Abi.encode_mmuext [ (Abi.mmuext_unpin, Int64.of_int l1) ]);
  check_int "unpin rax" 1 (Abi.dispatch hv guest ~number:Abi.mmuext_op_nr ~rdi:scratch_va ~rsi:1L ());
  stage hv guest (Abi.encode_mmuext [ (99L, Int64.of_int l1) ]);
  check_int "bad cmd" (-38)
    (Abi.dispatch hv guest ~number:Abi.mmuext_op_nr ~rdi:scratch_va ~rsi:1L ())

let test_abi_extension_fallthrough () =
  let hv, _, guest = built () in
  Hv.register_hypercall hv ~number:40 ~name:"probe" (fun _ _ args ->
      if Array.length args = 4 && args.(3) = 7L then Ok (Int64.add args.(0) args.(1))
      else Error Errno.EINVAL);
  check_int "registers forwarded" 5
    (Abi.dispatch hv guest ~number:40 ~rdi:2L ~rsi:3L ~rdx:0L ~r10:7L ());
  check_int "unknown" (-38) (Abi.dispatch hv guest ~number:77 ())

(* --- Hypercall dispatch ---------------------------------------------------- *)

let test_dispatch_numbers () =
  check_int "mmu_update" 1 (Hypercall.number_of_call (Hypercall.Mmu_update []));
  check_int "memory_op" 12
    (Hypercall.number_of_call
       (Hypercall.Memory_exchange { Memory_exchange.in_pfns = []; out_extent_start = 0L }));
  check_int "raw" 40 (Hypercall.number_of_call (Hypercall.Raw { number = 40; args = [||] }))

let test_dispatch_grant_ops () =
  let hv, dom0, guest = built () in
  let rc call = Hypercall.return_code (Hypercall.dispatch hv guest call) in
  check_int "grant access" 0
    (rc
       (Hypercall.Grant_table_op
          (Hypercall.Gnttab_grant_access { gref = 1; grantee = 0; pfn = 5; readonly = true })));
  let handle =
    Hypercall.return_code
      (Hypercall.dispatch hv dom0
         (Hypercall.Grant_table_op (Hypercall.Gnttab_map { granter = guest.Domain.id; gref = 1 })))
  in
  check_bool "mapped" true (handle >= 0);
  check_int "unmap" 0
    (Hypercall.return_code
       (Hypercall.dispatch hv dom0
          (Hypercall.Grant_table_op
             (Hypercall.Gnttab_unmap { granter = guest.Domain.id; handle }))))

let test_dispatch_evtchn_ops () =
  let hv, dom0, guest = built () in
  let port =
    Hypercall.return_code
      (Hypercall.dispatch hv dom0
         (Hypercall.Event_channel_op
            (Hypercall.Evtchn_alloc_unbound { allowed_remote = guest.Domain.id })))
  in
  check_bool "alloc" true (port >= 0);
  let local =
    Hypercall.return_code
      (Hypercall.dispatch hv guest
         (Hypercall.Event_channel_op
            (Hypercall.Evtchn_bind_interdomain { remote_dom = dom0.Domain.id; remote_port = port })))
  in
  check_bool "bind" true (local >= 0);
  check_int "send" 0
    (Hypercall.return_code
       (Hypercall.dispatch hv guest
          (Hypercall.Event_channel_op (Hypercall.Evtchn_send { port = local }))))

let test_dispatch_refuses_when_crashed () =
  let hv, _, guest = built () in
  Hv.panic hv ~reason:"test" ~dump:[];
  Alcotest.check errno_t "crashed" Errno.EINVAL
    (Result.get_error (Hypercall.dispatch hv guest (Hypercall.Mmu_update [])))

let test_dispatch_unknown_raw () =
  let hv, _, guest = built () in
  Alcotest.check errno_t "enosys" Errno.ENOSYS
    (Result.get_error (Hypercall.dispatch hv guest (Hypercall.Raw { number = 99; args = [||] })))

let test_hypercall_accounting () =
  let hv, _, guest = built () in
  let n0 = List.length (Hv.hypercall_stats hv) in
  ignore n0;
  ignore (Hypercall.dispatch hv guest (Hypercall.Mmu_update []));
  ignore (Hypercall.dispatch hv guest (Hypercall.Mmu_update []));
  ignore (Hypercall.dispatch hv guest (Hypercall.Raw { number = 99; args = [||] }));
  check_bool "mmu counted" true (List.mem_assoc 1 (Hv.hypercall_stats hv));
  check_bool "at least two" true (List.assoc 1 (Hv.hypercall_stats hv) >= 2);
  check_bool "failure counted" true ((Hv.hypercalls_failed hv) >= 1)

let test_dispatch_console_io () =
  let hv, _, guest = built () in
  ignore (Hypercall.dispatch hv guest (Hypercall.Console_io "hello from guest"));
  check_bool "console line" true
    (List.exists
       (fun l -> l = Printf.sprintf "(XEN) (d%d) hello from guest" guest.Domain.id)
       (Hv.console_lines hv))

(* Fuzz: random garbage updates must produce errnos, never exceptions,
   and never leave the hypervisor crashed. *)
let prop_mmu_update_total =
  QCheck.Test.make ~name:"mmu_update never raises on garbage" ~count:200
    QCheck.(pair (map Int64.of_int int) (map Int64.of_int int))
    (fun (ptr, value) ->
      let hv = Hv.boot ~version:Version.V4_6 ~frames:512 in
      let guest = Builder.create_domain hv ~name:"g" ~privileged:false ~pages:32 in
      (match Mm.mmu_update hv guest ~updates:[ (ptr, value) ] with Ok _ | Error _ -> true)
      && not (Hv.is_crashed hv))

let prop_exchange_total =
  QCheck.Test.make ~name:"memory_exchange never raises on garbage" ~count:100
    QCheck.(pair (small_list (int_bound 64)) (map Int64.of_int int))
    (fun (pfns, out) ->
      let hv = Hv.boot ~version:Version.V4_8 ~frames:512 in
      let guest = Builder.create_domain hv ~name:"g" ~privileged:false ~pages:32 in
      match
        Memory_exchange.exchange hv guest
          { Memory_exchange.in_pfns = pfns; out_extent_start = out }
      with
      | Ok _ | Error _ -> true)

let prop_p2m_m2p_inverse =
  QCheck.Test.make ~name:"p2m and m2p stay inverse" ~count:50
    QCheck.(small_list (int_bound 31))
    (fun pfns ->
      let hv = Hv.boot ~version:Version.V4_6 ~frames:512 in
      let guest = Builder.create_domain hv ~name:"g" ~privileged:false ~pages:32 in
      (* churn: unmap + exchange the requested pfns (ignoring failures) *)
      List.iter
        (fun pfn ->
          ignore (Mm.update_va_mapping hv guest ~va:(kva pfn) Pte.none);
          ignore
            (Memory_exchange.exchange hv guest
               { Memory_exchange.in_pfns = [ pfn ]; out_extent_start = kva 5 }))
        pfns;
      List.for_all
        (fun pfn ->
          match Domain.mfn_of_pfn guest pfn with
          | None -> true
          | Some mfn -> Hv.m2p_lookup hv mfn = Some pfn)
        (Domain.populated_pfns guest))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let () =
  Alcotest.run "xen"
    [
      ( "version",
        [
          Alcotest.test_case "predicates" `Quick test_version_predicates;
          Alcotest.test_case "strings" `Quick test_version_strings;
        ] );
      ("errno", [ Alcotest.test_case "codes" `Quick test_errno_codes ]);
      ( "page_info",
        [
          Alcotest.test_case "type discipline" `Quick test_page_type_discipline;
          Alcotest.test_case "refcounts" `Quick test_page_refcounts;
          Alcotest.test_case "levels" `Quick test_page_levels;
        ] );
      ( "event_channel",
        [
          Alcotest.test_case "bind and send" `Quick test_evtchn_bind_send;
          Alcotest.test_case "permissions" `Quick test_evtchn_permissions;
          Alcotest.test_case "exhaustion and close" `Quick test_evtchn_exhaustion_and_close;
          Alcotest.test_case "force pending" `Quick test_evtchn_force_pending;
        ] );
      ( "grant_table",
        [
          Alcotest.test_case "map/unmap" `Quick test_grant_map_unmap;
          Alcotest.test_case "wrong mapper" `Quick test_grant_wrong_mapper;
          Alcotest.test_case "version switch" `Quick test_grant_version_switch;
          Alcotest.test_case "switch blocked while mapped" `Quick
            test_grant_version_switch_blocked_while_mapped;
          Alcotest.test_case "revoked mid-map under load" `Quick
            test_grant_revoked_mid_map_under_load;
          Alcotest.test_case "cross-domain unmap ordering under load" `Quick
            test_grant_crossdomain_unmap_ordering_under_load;
          Alcotest.test_case "closed channel under load" `Quick
            test_evtchn_closed_channel_under_load;
        ] );
      ( "sched",
        [
          Alcotest.test_case "round robin" `Quick test_sched_round_robin;
          Alcotest.test_case "idle" `Quick test_sched_idle;
          Alcotest.test_case "hang pins cpu" `Quick test_sched_hang_pins_cpu;
          Alcotest.test_case "watchdog" `Quick test_sched_watchdog;
          Alcotest.test_case "smp: degradation vs freeze" `Quick
            test_sched_smp_degradation_vs_freeze;
          Alcotest.test_case "hv watchdog panics" `Quick test_hv_watchdog_panics;
        ] );
      ( "hv",
        [
          Alcotest.test_case "boot structures" `Quick test_boot_structures;
          Alcotest.test_case "m2p" `Quick test_m2p;
          Alcotest.test_case "release discipline" `Quick test_release_page_discipline;
          Alcotest.test_case "panic once" `Quick test_panic_once;
          Alcotest.test_case "fault panics on corrupt gate" `Quick
            test_deliver_fault_panics_on_corrupt_gate;
          Alcotest.test_case "hypercall extension" `Quick test_hypercall_extension_table;
        ] );
      ( "builder",
        [
          Alcotest.test_case "address space" `Quick test_builder_address_space;
          Alcotest.test_case "m2p visible" `Quick test_builder_m2p_visible;
          Alcotest.test_case "counts consistent" `Quick test_builder_counts_consistent;
          Alcotest.test_case "vdso user mapping" `Quick test_builder_vdso_user_mapping;
          Alcotest.test_case "pt count" `Quick test_builder_pt_count;
        ] );
      ( "mm",
        [
          Alcotest.test_case "remap" `Quick test_mmu_update_remap;
          Alcotest.test_case "rejects xen frames" `Quick test_mmu_update_rejects_xen_frames;
          Alcotest.test_case "rejects writable pt maps" `Quick
            test_mmu_update_rejects_writable_pt_mapping;
          Alcotest.test_case "rejects foreign frames" `Quick test_mmu_update_rejects_foreign_frames;
          Alcotest.test_case "grant allows foreign" `Quick test_mmu_update_grant_allows_foreign;
          Alcotest.test_case "rejects non-table" `Quick test_mmu_update_rejects_non_table;
          Alcotest.test_case "xen l4 slots protected" `Quick test_mmu_update_xen_l4_slots_protected;
          Alcotest.test_case "XSA-148 version behaviour" `Quick test_mmu_update_xsa148_behaviour;
          Alcotest.test_case "XSA-182 version behaviour" `Quick test_mmu_update_xsa182_behaviour;
          Alcotest.test_case "safe flags" `Quick test_safe_flags;
          Alcotest.test_case "update_va_mapping" `Quick test_update_va_mapping;
          Alcotest.test_case "decrease_reservation" `Quick test_decrease_reservation;
          Alcotest.test_case "pin/unpin" `Quick test_pin_unpin;
        ]
        @ qsuite [ prop_mmu_update_total ] );
      ( "uaccess",
        [
          Alcotest.test_case "checked" `Quick test_uaccess_checked;
          Alcotest.test_case "unchecked is arbitrary" `Quick test_uaccess_unchecked_is_arbitrary;
          Alcotest.test_case "range check" `Quick test_uaccess_range_check;
        ] );
      ( "memory_exchange",
        [
          Alcotest.test_case "normal" `Quick test_exchange_normal;
          Alcotest.test_case "mapped busy" `Quick test_exchange_mapped_page_busy;
          Alcotest.test_case "XSA-212 version behaviour" `Quick test_exchange_xsa212;
          Alcotest.test_case "conserves pages" `Quick test_exchange_conserves_pages;
        ]
        @ qsuite [ prop_exchange_total; prop_p2m_m2p_inverse ] );
      ( "abi",
        [
          Alcotest.test_case "mmu_update" `Quick test_abi_mmu_update;
          Alcotest.test_case "update_va_mapping" `Quick test_abi_update_va_mapping;
          Alcotest.test_case "memory_op decrease" `Quick test_abi_memory_op_decrease;
          Alcotest.test_case "memory_op exchange (XSA-212 raw)" `Quick
            test_abi_memory_op_exchange_xsa212;
          Alcotest.test_case "console_io" `Quick test_abi_console_io;
          Alcotest.test_case "mmuext pin/unpin" `Quick test_abi_mmuext_pin_unpin;
          Alcotest.test_case "extension fallthrough" `Quick test_abi_extension_fallthrough;
        ] );
      ( "hypercall",
        [
          Alcotest.test_case "numbers" `Quick test_dispatch_numbers;
          Alcotest.test_case "grant ops" `Quick test_dispatch_grant_ops;
          Alcotest.test_case "evtchn ops" `Quick test_dispatch_evtchn_ops;
          Alcotest.test_case "refuses when crashed" `Quick test_dispatch_refuses_when_crashed;
          Alcotest.test_case "unknown raw" `Quick test_dispatch_unknown_raw;
          Alcotest.test_case "console io" `Quick test_dispatch_console_io;
          Alcotest.test_case "accounting" `Quick test_hypercall_accounting;
        ] );
    ]
