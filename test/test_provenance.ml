(* Provenance tests: byte-granular taint mechanics, per-violation
   attribution across all six use cases (every Monitor violation and
   VMI finding must resolve to a non-empty origin set naming the
   injecting action), byte-for-byte causal-graph replay, and the
   provenance-off purity property (attaching the shadow must not change
   a trial's result row). *)

open Ii_trace
open Ii_xen
open Ii_core
module All = Ii_exploits.All_exploits
module B = Ii_backends.Backends
module K = Ii_backends.Backend_kvm

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let uc name =
  match All.find name with Some uc -> uc | None -> Alcotest.fail ("no use case " ^ name)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* --- taint mechanics ----------------------------------------------------- *)

let test_taint_observe_silent () =
  let p = Provenance.create () in
  Provenance.with_origin p (Provenance.Injector_action 1) (fun () ->
      Provenance.taint p ~mfn:7 ~off:16 ~len:8);
  check_int "tainted bytes" 8 (Provenance.tainted_bytes p);
  check_bool "silent before any read" true
    (Provenance.silent p = [ (Provenance.Injector_action 1, 8) ]);
  Provenance.observe p ~consumer:Provenance.Pt_walk ~mfn:7 ~off:16 ~len:8;
  check_int "one edge" 1 (Provenance.edge_count p);
  check_bool "no longer silent" true (Provenance.silent p = []);
  check_bool "origin reaches the walker" true
    (Provenance.origins_for p (fun c -> c = Provenance.Pt_walk)
    = [ Provenance.Injector_action 1 ]);
  (* reads of untainted ranges must not fabricate edges *)
  Provenance.observe p ~consumer:Provenance.Pt_walk ~mfn:9 ~off:0 ~len:8;
  check_int "clean bytes add no edge" 1 (Provenance.edge_count p)

let test_overwrite_and_reset_clear () =
  let p = Provenance.create () in
  Provenance.with_origin p (Provenance.Guest_write 2) (fun () ->
      Provenance.taint p ~mfn:3 ~off:0 ~len:16);
  (* an unlabelled overwrite clears the taint it covers *)
  Provenance.taint p ~mfn:3 ~off:0 ~len:8;
  check_int "half cleared" 8 (Provenance.tainted_bytes p);
  Provenance.observe p ~consumer:Provenance.Monitor_scan ~mfn:3 ~off:8 ~len:8;
  Provenance.reset_to_baseline p;
  check_int "reset clears taint" 0 (Provenance.tainted_bytes p);
  check_int "reset clears edges" 0 (Provenance.edge_count p)

let test_innermost_origin_wins () =
  let p = Provenance.create () in
  Provenance.with_origin p (Provenance.Hypercall_arg 13) (fun () ->
      Provenance.with_origin p (Provenance.Injector_action 4) (fun () ->
          Provenance.taint p ~mfn:1 ~off:0 ~len:4));
  Provenance.observe p ~consumer:Provenance.Idt_gate ~mfn:1 ~off:0 ~len:4;
  check_bool "injector action overrides the hypercall origin" true
    (Provenance.origins_read p = [ Provenance.Injector_action 4 ])

(* --- attribution: all six use cases -------------------------------------- *)

let xen_cases = [ "XSA-212-crash"; "XSA-212-priv"; "XSA-148-priv"; "XSA-182-test" ]

let test_xen_attribution_names_injector () =
  List.iter
    (fun name ->
      let r = Attribution.attribute (uc name) Campaign.Injection Version.V4_6 in
      check_bool (name ^ ": has violation or finding rows") true
        (List.exists (fun row -> row.Attribution.a_kind <> "silent") r.Attribution.ar_rows);
      check_bool (name ^ ": complete") true (Attribution.complete r);
      List.iter
        (fun row ->
          if row.Attribution.a_kind <> "silent" then begin
            check_bool
              (Printf.sprintf "%s: %S has origins" name row.Attribution.a_what)
              true
              (row.Attribution.a_origins <> []);
            check_bool
              (Printf.sprintf "%s: %S names the injecting action" name row.Attribution.a_what)
              true
              (List.exists (starts_with ~prefix:"injector#") row.Attribution.a_origins)
          end)
        r.Attribution.ar_rows)
    xen_cases

let test_kvm_attribution_names_injector () =
  List.iter
    (fun kuc ->
      let name = kuc.B.Kvm_campaign.uc_name in
      let r = B.Kvm_attribution.attribute kuc Campaign.Injection K.Stock in
      check_bool (name ^ ": has violation or finding rows") true
        (List.exists
           (fun row -> row.B.Kvm_attribution.a_kind <> "silent")
           r.B.Kvm_attribution.ar_rows);
      check_bool (name ^ ": complete") true (B.Kvm_attribution.complete r);
      List.iter
        (fun row ->
          if row.B.Kvm_attribution.a_kind <> "silent" then
            check_bool
              (Printf.sprintf "%s: %S names the injecting action" name
                 row.B.Kvm_attribution.a_what)
              true
              (List.exists (starts_with ~prefix:"injector#") row.B.Kvm_attribution.a_origins))
        r.B.Kvm_attribution.ar_rows)
    Ii_backends.Kvm_use_cases.use_cases

let test_attribution_deterministic () =
  let run () =
    Attribution.to_json
      (Attribution.attribute_all
         (List.map uc xen_cases)
         Campaign.Injection Version.V4_6)
  in
  check_string "same JSON both runs" (run ()) (run ())

(* --- replay: the causal graph must reproduce byte for byte --------------- *)

let test_replay_graph_identical () =
  List.iter
    (fun uc0 ->
      let r = Trace_driver.record ~provenance:true uc0 Campaign.Injection Version.V4_6 in
      check_bool (uc0.Campaign.uc_name ^ ": graph exported") true
        (r.Trace_driver.rec_prov <> None);
      let o = Trace_driver.replay r in
      check_bool (uc0.Campaign.uc_name ^ ": final state reproduced") true
        o.Trace_driver.rp_equal;
      check_bool (uc0.Campaign.uc_name ^ ": graph byte-for-byte") true
        o.Trace_driver.rp_prov_equal)
    All.use_cases

let test_kvm_replay_graph_identical () =
  List.iter
    (fun kuc ->
      let r = B.Kvm_trace.record ~provenance:true kuc Campaign.Injection K.Stock in
      check_bool (kuc.B.Kvm_campaign.uc_name ^ ": graph exported") true
        (r.B.Kvm_trace.rec_prov <> None);
      let o = B.Kvm_trace.replay r in
      check_bool (kuc.B.Kvm_campaign.uc_name ^ ": graph byte-for-byte") true
        o.B.Kvm_trace.rp_prov_equal)
    Ii_backends.Kvm_use_cases.use_cases

(* The replay's final snapshot runs with the ring still open, as the
   recording's does, so the monitor-scan provenance edges that close a
   recording come back at the same virtual timestamps. *)
let test_replay_vts_with_provenance () =
  List.iter
    (fun (name, version, mode) ->
      let r = Trace_driver.record ~provenance:true (uc name) mode version in
      let o = Trace_driver.replay r in
      check_bool
        (Printf.sprintf "%s/%s/%s: vts stream reproduced" name (Version.to_string version)
           (Campaign.mode_to_string mode))
        true o.Trace_driver.rp_vts_equal)
    [
      ("XSA-148-priv", Version.V4_6, Campaign.Real_exploit);
      ("XSA-148-priv", Version.V4_6, Campaign.Injection);
      ("XSA-148-priv", Version.V4_8, Campaign.Injection);
      ("XSA-148-priv", Version.V4_13, Campaign.Injection);
      ("XSA-182-test", Version.V4_6, Campaign.Real_exploit);
      ("XSA-182-test", Version.V4_6, Campaign.Injection);
      ("XSA-182-test", Version.V4_8, Campaign.Injection);
    ]

let test_kvm_replay_vts_with_provenance () =
  let kuc =
    List.find
      (fun k -> k.B.Kvm_campaign.uc_name = "KVM-VMCS")
      Ii_backends.Kvm_use_cases.use_cases
  in
  List.iter
    (fun mode ->
      let r = B.Kvm_trace.record ~provenance:true kuc mode K.Stock in
      let o = B.Kvm_trace.replay r in
      check_bool
        ("KVM-VMCS/" ^ Campaign.mode_to_string mode ^ ": vts stream reproduced")
        true o.B.Kvm_trace.rp_vts_equal)
    [ Campaign.Real_exploit; Campaign.Injection ]

(* --- purity: the shadow must not perturb trials -------------------------- *)

let strip_row (r : Campaign.result_row) =
  ( r.Campaign.r_use_case,
    r.Campaign.r_version,
    r.Campaign.r_mode,
    r.Campaign.r_state,
    r.Campaign.r_state_evidence,
    r.Campaign.r_violations,
    r.Campaign.r_transcript,
    r.Campaign.r_rc,
    r.Campaign.r_telemetry )

let test_provenance_does_not_change_results () =
  List.iter
    (fun uc0 ->
      let off = Trace_driver.record uc0 Campaign.Injection Version.V4_6 in
      let on = Trace_driver.record ~provenance:true uc0 Campaign.Injection Version.V4_6 in
      check_bool (uc0.Campaign.uc_name ^ ": row unchanged") true
        (strip_row off.Trace_driver.rec_row = strip_row on.Trace_driver.rec_row);
      check_bool (uc0.Campaign.uc_name ^ ": final snapshot unchanged") true
        (off.Trace_driver.rec_final = on.Trace_driver.rec_final);
      check_bool (uc0.Campaign.uc_name ^ ": plain recording has no graph") true
        (off.Trace_driver.rec_prov = None))
    All.use_cases

let () =
  Alcotest.run "provenance"
    [
      ( "taint",
        [
          Alcotest.test_case "taint/observe/silent" `Quick test_taint_observe_silent;
          Alcotest.test_case "overwrite and reset clear" `Quick test_overwrite_and_reset_clear;
          Alcotest.test_case "innermost origin wins" `Quick test_innermost_origin_wins;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "xen use cases name the injector" `Quick
            test_xen_attribution_names_injector;
          Alcotest.test_case "kvm use cases name the injector" `Quick
            test_kvm_attribution_names_injector;
          Alcotest.test_case "deterministic JSON" `Quick test_attribution_deterministic;
        ] );
      ( "replay",
        [
          Alcotest.test_case "xen graphs replay byte-for-byte" `Quick
            test_replay_graph_identical;
          Alcotest.test_case "kvm graphs replay byte-for-byte" `Quick
            test_kvm_replay_graph_identical;
          Alcotest.test_case "xen vts replay with provenance" `Quick
            test_replay_vts_with_provenance;
          Alcotest.test_case "kvm vts replay with provenance" `Quick
            test_kvm_replay_vts_with_provenance;
        ] );
      ( "purity",
        [
          Alcotest.test_case "provenance does not change results" `Quick
            test_provenance_does_not_change_results;
        ] );
    ]
