(* Cross-library integration tests: the extension intrusion models the
   paper sketches (Keep Page Access via use-after-free and grant-table
   v2 status pages, uncontrolled interrupts), plus end-to-end console
   and determinism checks. *)

open Ii_xen
open Ii_guest
open Ii_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains line needle =
  let n = String.length needle and m = String.length line in
  let rec go i = i + n <= m && (String.sub line i n = needle || go (i + 1)) in
  go 0

let attacker_l1 (tb : Testbed.t) =
  let dom = Kernel.dom tb.Testbed.attacker in
  match Paging.walk tb.Testbed.hv.Hv.mem ~cr3:dom.Domain.l4_mfn (Domain.kernel_vaddr_of_pfn 0) with
  | Ok tr -> (List.nth tr.Paging.path 3).Paging.table_mfn
  | Error _ -> Alcotest.fail "no attacker L1"

(* --- Keep Page Access via XENMEM_decrease_reservation (XSA-393 style) --- *)

let test_keep_page_access_uaf () =
  let tb = Testbed.create Version.V4_8 in
  Injector.install tb.Testbed.hv;
  let hv = tb.Testbed.hv in
  let k = tb.Testbed.attacker in
  let dom = Kernel.dom k in
  let victim_pfn = 30 in
  let target_mfn = Option.get (Domain.mfn_of_pfn dom victim_pfn) in
  (* 1. plant a forged extra leaf mapping via the injector (the raw
        erroneous state: an unaccounted page reference) *)
  let l1 = attacker_l1 tb in
  let forged_index = 300 in
  let entry_addr =
    Layout.directmap_of_maddr
      (Int64.add (Addr.maddr_of_mfn l1) (Int64.of_int (8 * forged_index)))
  in
  let forged = Pte.make ~mfn:target_mfn ~flags:[ Pte.Present; Pte.Rw; Pte.User ] in
  check_bool "inject forged pte" true
    (Injector.write_u64 k ~addr:entry_addr ~action:Injector.Arbitrary_write_linear forged = Ok ());
  (* 2. legitimately release the page: accounting never saw the forged
        mapping, so the hypervisor frees the frame *)
  check_int "unmap rc" 0
    (Kernel.hypercall_rc k
       (Hypercall.Update_va_mapping { va = Domain.kernel_vaddr_of_pfn victim_pfn; value = Pte.none }));
  check_int "decrease rc" 1
    (Kernel.hypercall_rc k (Hypercall.Decrease_reservation [ victim_pfn ]));
  check_bool "frame freed" true (Phys_mem.owner hv.Hv.mem target_mfn = Phys_mem.Free);
  (* 3. the audit certifies the erroneous state *)
  let audit =
    Erroneous_state.audit hv
      (Erroneous_state.Page_kept_after_release { domid = dom.Domain.id; mfn = target_mfn })
  in
  check_bool "state audited" true audit.Erroneous_state.holds;
  (* 4. the frame is reallocated to another domain, which stores a
        secret there — and the attacker reads it through the stale
        mapping: the use-after-free pays off *)
  let victim = Kernel.dom tb.Testbed.victim in
  let reallocated = Hv.alloc_domain_page hv victim in
  check_int "reallocated same frame" target_mfn reallocated;
  Phys_mem.write_string hv.Hv.mem (Addr.maddr_of_mfn reallocated) "victim-secret";
  let stale_va =
    Int64.add Layout.guest_kernel_base (Int64.of_int (forged_index * Addr.page_size))
  in
  (match Kernel.read_bytes k stale_va 13 with
  | Ok b -> Alcotest.(check string) "secret leaked" "victim-secret" (Bytes.to_string b)
  | Error _ -> Alcotest.fail "stale mapping should still translate")

(* --- Keep Page Access via grant-table v2 status pages (XSA-387 style) --- *)

let test_keep_page_access_grant_status () =
  let tb = Testbed.create Version.V4_8 in
  Injector.install tb.Testbed.hv;
  let hv = tb.Testbed.hv in
  let k = tb.Testbed.attacker in
  let dom = Kernel.dom k in
  (* switch to grant table v2: Xen allocates status frames *)
  check_int "to v2" 0
    (Kernel.hypercall_rc k (Hypercall.Grant_table_op (Hypercall.Gnttab_set_version Grant_table.V2)));
  let status_mfn = List.hd (Grant_table.status_frames dom.Domain.grant) in
  (* inject a retained mapping of the status frame *)
  let l1 = attacker_l1 tb in
  let idx = 301 in
  let entry_addr =
    Layout.directmap_of_maddr (Int64.add (Addr.maddr_of_mfn l1) (Int64.of_int (8 * idx)))
  in
  check_bool "inject status mapping" true
    (Injector.write_u64 k ~addr:entry_addr ~action:Injector.Arbitrary_write_linear
       (Pte.make ~mfn:status_mfn ~flags:[ Pte.Present; Pte.Rw; Pte.User ])
    = Ok ());
  (* switch back to v1: the correct implementation releases the status
     frames to Xen — but the injected mapping survives *)
  check_int "to v1" 0
    (Kernel.hypercall_rc k (Hypercall.Grant_table_op (Hypercall.Gnttab_set_version Grant_table.V1)));
  check_bool "status released" true (Phys_mem.owner hv.Hv.mem status_mfn = Phys_mem.Free);
  let audit =
    Erroneous_state.audit hv
      (Erroneous_state.Page_kept_after_release { domid = dom.Domain.id; mfn = status_mfn })
  in
  check_bool "keep-page-reference state" true audit.Erroneous_state.holds

(* --- memory-backed grant tables (gnttab_setup_table) ----------------------- *)

let grant_rc k op = Kernel.hypercall_rc k (Hypercall.Grant_table_op op)

let setup_grant_frame tb (k : Kernel.t) =
  (* the guest asks for a shared grant frame and maps it at pfn-40's va *)
  let grant_mfn = grant_rc k (Hypercall.Gnttab_setup_table { nr_frames = 1 }) in
  check_bool "setup ok" true (grant_mfn > 0);
  let va = Domain.kernel_vaddr_of_pfn 40 in
  check_int "map grant frame" 0
    (Kernel.hypercall_rc k
       (Hypercall.Update_va_mapping
          { va; value = Pte.make ~mfn:grant_mfn ~flags:[ Pte.Present; Pte.Rw; Pte.User ] }));
  ignore tb;
  (grant_mfn, va)

let test_memory_grant_flow () =
  let tb = Testbed.create Version.V4_8 in
  let victim = tb.Testbed.victim and attacker = tb.Testbed.attacker in
  let _, grant_va = setup_grant_frame tb victim in
  (* the victim writes a secret and then a wire grant entry for it,
     directly into the shared frame through its own mapping *)
  check_bool "secret" true
    (Result.is_ok (Kernel.write_u64 victim (Domain.kernel_vaddr_of_pfn 5) 0x5EC2E7L));
  let gref = 3 in
  let wire_word granter_flags domid gfn =
    Int64.logor
      (Int64.of_int granter_flags)
      (Int64.logor
         (Int64.shift_left (Int64.of_int domid) 16)
         (Int64.shift_left (Int64.of_int gfn) 32))
  in
  check_bool "wire entry written" true
    (Result.is_ok
       (Kernel.write_u64 victim
          (Int64.add grant_va (Int64.of_int (8 * gref)))
          (wire_word
             (Grant_table.Wire.gtf_permit_access lor Grant_table.Wire.gtf_readonly)
             (Kernel.domid attacker) 5)));
  (* the attacker maps the grant and installs a read-only PTE for it *)
  let handle = grant_rc attacker (Hypercall.Gnttab_map { granter = Kernel.domid victim; gref }) in
  check_bool "mapped" true (handle >= 0);
  let victim_mfn = Option.get (Domain.mfn_of_pfn (Kernel.dom victim) 5) in
  check_int "install pte" 0
    (Kernel.hypercall_rc attacker
       (Hypercall.Update_va_mapping
          {
            va = Domain.kernel_vaddr_of_pfn 41;
            value = Pte.make ~mfn:victim_mfn ~flags:[ Pte.Present; Pte.User ];
          }));
  check_bool "attacker reads granted page" true
    (Kernel.read_u64 attacker (Domain.kernel_vaddr_of_pfn 41) = Ok 0x5EC2E7L);
  (* the in-use bit is visible in the victim's shared frame *)
  (match Kernel.read_u64 victim (Int64.add grant_va (Int64.of_int (8 * gref))) with
  | Ok w ->
      check_bool "in-use bit set" true
        (Int64.to_int (Int64.logand w 0xFFFFL) land Grant_table.Wire.gtf_in_use <> 0)
  | Error _ -> Alcotest.fail "wire read");
  (* writable mapping of a read-only grant is refused *)
  check_bool "ro grant not writable" true
    (Kernel.hypercall_rc attacker
       (Hypercall.Update_va_mapping
          {
            va = Domain.kernel_vaddr_of_pfn 42;
            value = Pte.make ~mfn:victim_mfn ~flags:[ Pte.Present; Pte.Rw; Pte.User ];
          })
    < 0);
  (* unmap clears the in-use bit *)
  check_int "unmap" 0
    (grant_rc attacker (Hypercall.Gnttab_unmap { granter = Kernel.domid victim; handle }));
  match Kernel.read_u64 victim (Int64.add grant_va (Int64.of_int (8 * gref))) with
  | Ok w ->
      check_bool "in-use cleared" true
        (Int64.to_int (Int64.logand w 0xFFFFL) land Grant_table.Wire.gtf_in_use = 0)
  | Error _ -> Alcotest.fail "wire read"

let test_memory_grant_refusals () =
  let tb = Testbed.create Version.V4_8 in
  let victim = tb.Testbed.victim and attacker = tb.Testbed.attacker in
  ignore (setup_grant_frame tb victim);
  (* no entry: ENOENT *)
  check_int "unused gref" (-2)
    (grant_rc attacker (Hypercall.Gnttab_map { granter = Kernel.domid victim; gref = 7 }));
  (* double setup refused *)
  check_int "double setup" (-16) (grant_rc victim (Hypercall.Gnttab_setup_table { nr_frames = 1 }));
  check_int "bad count" (-22) (grant_rc victim (Hypercall.Gnttab_setup_table { nr_frames = 0 }))

let test_corrupt_grant_entry_im () =
  (* the Corrupt-a-Page-Reference intrusion model: the attacker forges a
     grant the victim never made, by injecting bytes into the victim's
     (Xen-owned) grant frame, then harvests it through the fully
     legitimate grant-mapping machinery *)
  let tb = Testbed.create Version.V4_13 in
  Injector.install tb.Testbed.hv;
  let victim = tb.Testbed.victim and attacker = tb.Testbed.attacker in
  let grant_mfn, _ = setup_grant_frame tb victim in
  check_bool "victim secret" true
    (Result.is_ok (Kernel.write_u64 victim (Domain.kernel_vaddr_of_pfn 6) 0xC0FFEEL));
  (* nothing granted: the attacker cannot map *)
  check_int "no grant yet" (-2)
    (grant_rc attacker (Hypercall.Gnttab_map { granter = Kernel.domid victim; gref = 9 }));
  (* inject the forged wire entry *)
  let forged =
    Int64.logor
      (Int64.of_int Grant_table.Wire.gtf_permit_access)
      (Int64.logor
         (Int64.shift_left (Int64.of_int (Kernel.domid attacker)) 16)
         (Int64.shift_left 6L 32))
  in
  check_bool "injected" true
    (Injector.write_u64 attacker
       ~addr:(Int64.add (Addr.maddr_of_mfn grant_mfn) (Int64.of_int (8 * 9)))
       ~action:Injector.Arbitrary_write_physical forged
    = Ok ());
  (* now the legitimate machinery hands the page over *)
  let handle = grant_rc attacker (Hypercall.Gnttab_map { granter = Kernel.domid victim; gref = 9 }) in
  check_bool "forged grant mapped" true (handle >= 0);
  let victim_mfn = Option.get (Domain.mfn_of_pfn (Kernel.dom victim) 6) in
  check_int "pte for stolen page" 0
    (Kernel.hypercall_rc attacker
       (Hypercall.Update_va_mapping
          {
            va = Domain.kernel_vaddr_of_pfn 43;
            value = Pte.make ~mfn:victim_mfn ~flags:[ Pte.Present; Pte.Rw; Pte.User ];
          }));
  check_bool "secret stolen" true
    (Kernel.read_u64 attacker (Domain.kernel_vaddr_of_pfn 43) = Ok 0xC0FFEEL);
  (* a deployed guard protecting the grant frame catches the state *)
  let g = Pt_guard.deploy tb.Testbed.hv Pt_guard.Detect_only in
  Pt_guard.protect g grant_mfn;
  check_int "clean baseline after protect" 0 (List.length (Pt_guard.audit g));
  check_bool "reinjection detected" true
    (Injector.write_u64 attacker
       ~addr:(Int64.add (Addr.maddr_of_mfn grant_mfn) (Int64.of_int (8 * 10)))
       ~action:Injector.Arbitrary_write_physical forged
    = Ok ()
    && Pt_guard.audit g <> [])

(* --- Uncontrolled interrupts (the §IX expansion) ------------------------- *)

let test_interrupt_storm_im () =
  let tb = Testbed.create Version.V4_6 in
  let victim = Kernel.dom tb.Testbed.victim in
  let before = Monitor.snapshot tb in
  (* the interrupt-flavoured injector: raise every port regardless of
     binding *)
  let raised = Event_channel.force_pending_all victim.Domain.events in
  check_bool "ports raised" true (raised >= 16);
  let audit =
    Erroneous_state.audit tb.Testbed.hv
      (Erroneous_state.Interrupt_storm { domid = victim.Domain.id; min_pending = 16 })
  in
  check_bool "storm state" true audit.Erroneous_state.holds;
  let after = Monitor.snapshot tb in
  check_bool "availability violation" true
    (List.exists
       (function Monitor.Availability_degradation _ -> true | _ -> false)
       (Monitor.violations ~before ~after))

(* --- event delivery + interrupt storm cost ---------------------------------- *)

let test_event_delivery () =
  let tb = Testbed.create Version.V4_8 in
  let dom0 = tb.Testbed.dom0 and victim = tb.Testbed.victim in
  (* dom0 offers a port; the victim binds and dom0 signals it *)
  let remote_port =
    Kernel.hypercall_rc dom0
      (Hypercall.Event_channel_op
         (Hypercall.Evtchn_alloc_unbound { allowed_remote = Kernel.domid victim }))
  in
  check_bool "alloc" true (remote_port >= 0);
  let local =
    Kernel.hypercall_rc victim
      (Hypercall.Event_channel_op
         (Hypercall.Evtchn_bind_interdomain { remote_dom = Kernel.domid dom0; remote_port }))
  in
  check_bool "bind" true (local >= 0);
  let fired = ref 0 in
  Kernel.bind_irq_handler victim ~port:local (fun () -> incr fired);
  (* dom0 signals its own bound port; the dispatcher raises the
     victim's peer port *)
  check_int "send" 0
    (Kernel.hypercall_rc dom0
       (Hypercall.Event_channel_op (Hypercall.Evtchn_send { port = remote_port })));
  check_int "victim port pending" 1
    (List.length (Event_channel.pending_ports (Kernel.dom victim).Domain.events));
  Kernel.tick victim;
  check_int "handler ran once" 1 !fired;
  check_int "irqs counted" 1 (Kernel.irqs_handled victim);
  (* a second tick with nothing pending does not re-fire *)
  Kernel.tick victim;
  check_int "no refire" 1 !fired

let test_interrupt_storm_backlog () =
  let tb = Testbed.create Version.V4_8 in
  let victim = tb.Testbed.victim in
  ignore (Event_channel.force_pending_all (Kernel.dom victim).Domain.events);
  let pending0 = List.length (Event_channel.pending_ports (Kernel.dom victim).Domain.events) in
  Kernel.tick victim;
  let pending1 = List.length (Event_channel.pending_ports (Kernel.dom victim).Domain.events) in
  (* the budget bounds per-tick work: backlog drains gradually *)
  check_int "budget of eight" (pending0 - 8) pending1;
  check_int "work accounted" 8 (Kernel.irqs_handled victim)

(* --- Uncontrolled Memory Allocation IM --------------------------------------- *)

let test_memory_exhaustion_im () =
  let tb = Testbed.create Version.V4_8 in
  let before = Monitor.snapshot tb in
  let taken = Hv.exhaust_memory tb.Testbed.hv ~leave:8 in
  check_bool "frames taken" true (taken > 100);
  check_int "pool drained" 8 (Phys_mem.free_frames tb.Testbed.hv.Hv.mem);
  let after = Monitor.snapshot tb in
  check_bool "availability violation" true
    (List.exists
       (function Monitor.Availability_degradation _ -> true | _ -> false)
       (Monitor.violations ~before ~after));
  (* downstream effect: nobody can build a domain any more *)
  check_bool "allocation now fails" true
    (try
       ignore (Builder.create_domain tb.Testbed.hv ~name:"late" ~privileged:false ~pages:64);
       false
     with Failure _ -> true)

(* --- Induce a Hang State (the largest Table I class) ----------------------- *)

let test_hang_state_im () =
  let tb = Testbed.create Version.V4_8 in
  let attacker_id = Kernel.domid tb.Testbed.attacker in
  let spec = Erroneous_state.Vcpu_hung { domid = attacker_id } in
  check_bool "clean" false (Erroneous_state.audit tb.Testbed.hv spec).Erroneous_state.holds;
  let before = Monitor.snapshot tb in
  (* the hang-state injector: the vcpu never leaves the hypervisor *)
  check_bool "inject hang" true
    (Sched.hang_vcpu tb.Testbed.hv.Hv.sched ~dom:attacker_id ~reason:"#DB storm (XSA-156 class)"
    = Ok ());
  check_bool "state audited" true (Erroneous_state.audit tb.Testbed.hv spec).Erroneous_state.holds;
  (* one scheduling round: everyone starves *)
  Testbed.tick_all tb;
  let mid = Monitor.snapshot tb in
  check_bool "availability violation" true
    (List.exists
       (function Monitor.Availability_degradation _ -> true | _ -> false)
       (Monitor.violations ~before ~after:mid));
  check_int "victim got no slice" 0 (Sched.runs_of tb.Testbed.hv.Hv.sched ~dom:1);
  (* keep stalling: the watchdog eventually panics the host *)
  for _ = 1 to 4 do
    Testbed.tick_all tb
  done;
  check_bool "watchdog panic" true (Hv.is_crashed tb.Testbed.hv);
  check_bool "crash violation recorded" true
    (List.exists
       (function Monitor.Hypervisor_crash _ -> true | _ -> false)
       (Monitor.violations ~before ~after:(Monitor.snapshot tb)))

let test_hang_state_without_watchdog_is_availability_only () =
  (* the deployment choice the paper's §IX discusses: without a
     watchdog the hang never crashes the host, it only starves it *)
  let sched = Sched.create ~watchdog_enabled:false () in
  ignore (Sched.add_vcpu sched ~dom:0);
  ignore (Sched.hang_vcpu sched ~dom:0 ~reason:"loop");
  for _ = 1 to 100 do
    ignore (Sched.tick sched)
  done;
  check_bool "never fires" false (Sched.watchdog_fired sched);
  check_int "stalled throughout" 100 (Sched.stalled_slices sched)

(* --- console content across the crash path -------------------------------- *)

let test_crash_console_dump () =
  let row =
    Campaign.run (Result.get_ok (Ii_exploits.Registry.Xen.find "XSA-212-crash")) Campaign.Injection
      Version.V4_6
  in
  check_bool "row crashed" true
    (List.exists (function Monitor.Hypervisor_crash _ -> true | _ -> false) row.Campaign.r_violations);
  (* a fresh identical run exposes the console *)
  let tb = Testbed.create Version.V4_6 in
  Injector.install tb.Testbed.hv;
  let k = tb.Testbed.attacker in
  let gate = Int64.add (Kernel.sidt k) (Int64.of_int (Idt.handler_offset Idt.vector_page_fault)) in
  ignore (Injector.write_u64 k ~addr:gate ~action:Injector.Arbitrary_write_linear 0xBADL);
  ignore (Kernel.read_u64 k 0xdead0000L);
  let console = Hv.console_lines tb.Testbed.hv in
  List.iter
    (fun needle ->
      check_bool needle true (List.exists (fun l -> contains l needle) console))
    [
      "*** DOUBLE FAULT ***";
      "Xen-4.6.0 x86_64 debug=y Not tainted";
      "Panic on CPU 0: DOUBLE FAULT -- system shutdown";
      "Reboot in five seconds...";
      "intrusion-injector: hypercall 40";
    ]

(* --- injector is inert until used ------------------------------------------ *)

let test_injector_installation_is_benign () =
  let tb = Testbed.create Version.V4_13 in
  let before = Monitor.snapshot tb in
  Injector.install tb.Testbed.hv;
  Testbed.tick_all tb;
  let after = Monitor.snapshot tb in
  check_bool "no violations from installing" true (Monitor.violations ~before ~after = [])

(* --- determinism of the whole evaluation ------------------------------------ *)

let test_matrix_deterministic () =
  let run () =
    Campaign.run_matrix Ii_exploits.Use_cases.xen ~versions:[ Version.V4_6 ]
      ~modes:[ Campaign.Injection ]
  in
  let a = Campaign.table3 (run ()) in
  let b = Campaign.table3 (run ()) in
  Alcotest.(check string) "identical tables" a b

let () =
  Alcotest.run "integration"
    [
      ( "keep_page_access",
        [
          Alcotest.test_case "decrease_reservation UAF" `Quick test_keep_page_access_uaf;
          Alcotest.test_case "grant v2 status pages" `Quick test_keep_page_access_grant_status;
        ] );
      ( "events",
        [
          Alcotest.test_case "delivery" `Quick test_event_delivery;
          Alcotest.test_case "storm backlog" `Quick test_interrupt_storm_backlog;
        ] );
      ( "exhaustion",
        [ Alcotest.test_case "memory exhaustion IM" `Quick test_memory_exhaustion_im ] );
      ( "memory_grants",
        [
          Alcotest.test_case "legitimate flow" `Quick test_memory_grant_flow;
          Alcotest.test_case "refusals" `Quick test_memory_grant_refusals;
          Alcotest.test_case "corrupt-grant-entry IM" `Quick test_corrupt_grant_entry_im;
        ] );
      ("interrupts", [ Alcotest.test_case "storm IM" `Quick test_interrupt_storm_im ]);
      ( "hang_state",
        [
          Alcotest.test_case "hang IM: starvation then watchdog" `Quick test_hang_state_im;
          Alcotest.test_case "no watchdog: availability only" `Quick
            test_hang_state_without_watchdog_is_availability_only;
        ] );
      ( "console",
        [
          Alcotest.test_case "crash dump" `Slow test_crash_console_dump;
          Alcotest.test_case "injector benign" `Quick test_injector_installation_is_benign;
        ] );
      ("determinism", [ Alcotest.test_case "matrix" `Slow test_matrix_deterministic ]);
    ]
