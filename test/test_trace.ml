(* Tests for the trace subsystem: ring wraparound must keep the newest
   records, a deterministic trial must record a byte-identical trace
   every time, replaying a recording's boundary events must reproduce
   its final monitor snapshot, and enabling the ring must never change
   a campaign result. *)

open Ii_trace
open Ii_xen
open Ii_core
module All = Ii_exploits.All_exploits

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let uc name =
  match All.find name with Some uc -> uc | None -> Alcotest.fail ("no use case " ^ name)

(* --- ring mechanics ------------------------------------------------------ *)

let test_roundtrip () =
  let tr = Trace.create () in
  Trace.enable tr;
  let evs =
    [
      Trace.Hypercall { domid = 2; number = 1; digest = 42L; payload = "abc" };
      Trace.Guest_mem
        { domid = 1; op = Trace.Op_write_u64; va = 0xffff880000002000L; len = 8; data = "01234567" };
      Trace.Fault { vector = 14; escalation = 1 };
      Trace.Page_type { mfn = 77; from_type = 0; to_type = 2 };
      Trace.Net_cmd { to_host = "xen2"; port = 1234; conn_id = 0; cmd = "whoami" };
      Trace.Xenstore_write
        { caller = -1; injected = true; path = "/local/domain/2/memory/target"; value = "64" };
      Trace.Monitor_verdict { violations = 3; classes = 0xe };
      Trace.Panic { reason = "DOUBLE FAULT" };
    ]
  in
  List.iter (Trace.emit tr) evs;
  let recs = Trace.records tr in
  check_int "count" (List.length evs) (List.length recs);
  List.iteri
    (fun i { Trace.seq; event; _ } ->
      check_int "seq" i seq;
      check_bool "event" true (event = List.nth evs i))
    recs;
  (* the framed image decodes to the same records *)
  check_bool "records_of_string" true (Trace.records_of_string (Trace.to_bytes tr) = recs)

let test_wraparound_keeps_newest () =
  let tr = Trace.create () in
  Trace.enable ~capacity_bytes:256 tr;
  for i = 0 to 99 do
    Trace.emit tr (Trace.Tlb_invlpg { va = Int64.of_int i })
  done;
  check_bool "evicted some" true (Trace.dropped tr > 0);
  let recs = Trace.records tr in
  check_bool "kept some" true (recs <> []);
  (* survivors are exactly the newest suffix, in order *)
  let expected_first = 100 - List.length recs in
  List.iteri
    (fun i { Trace.seq; event; _ } ->
      check_int "suffix seq" (expected_first + i) seq;
      check_bool "suffix payload" true (event = Trace.Tlb_invlpg { va = Int64.of_int seq }))
    recs

(* The ring allocates on demand, but its contents must be exactly those
   of a ring allocated eagerly at the full capacity: the newest whole
   frames that fit, oldest first, with every older frame (and any frame
   larger than the capacity) counted as dropped. The reference encodes
   each frame alone and keeps that suffix itself. *)
let frame_of seq event =
  let tr = Trace.create () in
  Trace.enable tr;
  Trace.emit tr event;
  let b = Bytes.of_string (Trace.to_bytes tr) in
  Bytes.set_int32_le b 4 (Int32.of_int seq);
  Bytes.to_string b

let reference_ring ~capacity events =
  let kept = Queue.create () and used = ref 0 and dropped = ref 0 in
  List.iteri
    (fun seq ev ->
      let f = frame_of seq ev in
      let n = String.length f in
      if n > capacity then incr dropped
      else begin
        Queue.push f kept;
        used := !used + n;
        while !used > capacity do
          used := !used - String.length (Queue.pop kept);
          incr dropped
        done
      end)
    events;
  (String.concat "" (List.of_seq (Queue.to_seq kept)), !dropped, List.length events)

let gen_event =
  QCheck.Gen.(
    map2
      (fun kind n ->
        match kind with
        | 0 -> Trace.Tlb_invlpg { va = Int64.of_int n }
        | 1 -> Trace.Panic { reason = String.make n 'p' }
        | _ ->
            let data = String.make n 'd' in
            Trace.Guest_mem { domid = 1; op = Trace.Op_write_bytes; va = 0x1000L; len = n; data })
      (int_bound 2) (int_bound 600))

let prop_on_demand_ring_matches_eager =
  QCheck.Test.make ~name:"ring: on-demand growth = eager ring of the full capacity" ~count:300
    QCheck.(
      make
        ~print:(fun (cap, evs) -> Printf.sprintf "capacity %d, %d events" cap (List.length evs))
        Gen.(pair (int_range 64 8192) (list_size (int_bound 120) gen_event)))
    (fun (capacity, events) ->
      let tr = Trace.create () in
      Trace.enable ~capacity_bytes:capacity tr;
      List.iter (Trace.emit tr) events;
      (Trace.to_bytes tr, Trace.dropped tr, Trace.seq tr) = reference_ring ~capacity events)

let test_enable_allocates_on_demand () =
  let tr = Trace.create () in
  let before = Gc.allocated_bytes () in
  Trace.enable tr;
  let allocated = Gc.allocated_bytes () -. before in
  check_bool
    (Printf.sprintf "enable with the default capacity allocated %.0f bytes (< 128 KiB)" allocated)
    true
    (allocated < 128. *. 1024.)

let test_disabled_ring_records_nothing () =
  let tr = Trace.create () in
  Trace.emit tr Trace.Tlb_flush_all;
  check_int "no records" 0 (List.length (Trace.records tr));
  (* counters tick regardless of the ring *)
  Trace.note_fault tr ~double:false;
  check_int "counter" 1 (Trace.Counters.faults (Trace.counters tr))

let test_depth_suppression () =
  let tr = Trace.create () in
  Trace.enable tr;
  check_bool "top level" true (Trace.top_level tr);
  Trace.enter tr;
  check_bool "nested" false (Trace.top_level tr);
  Trace.leave tr;
  check_bool "top again" true (Trace.top_level tr)

let test_detection_latency () =
  let inj = Trace.Injector_access { action = 1; addr = 0L; len = 8 } in
  let verdict n = Trace.Monitor_verdict { violations = n; classes = 1 } in
  let recs evs = List.mapi (fun seq event -> { Trace.seq; vts = 0L; event }) evs in
  check_bool "missing injector" true
    (Trace.detection_latency (recs [ verdict 1 ]) = None);
  check_bool "empty verdict ignored" true
    (Trace.detection_latency (recs [ inj; verdict 0 ]) = None);
  check_bool "latency is the seq distance" true
    (Trace.detection_latency (recs [ inj; Trace.Tlb_flush_all; Trace.Sched_round; verdict 2 ])
    = Some 3)

(* --- determinism --------------------------------------------------------- *)

let test_record_deterministic () =
  let uc = uc "XSA-148-priv" in
  let a = Trace_driver.record uc Campaign.Injection Version.V4_6 in
  let b = Trace_driver.record uc Campaign.Injection Version.V4_6 in
  check_string "byte-identical traces" a.Trace_driver.rec_bytes b.Trace_driver.rec_bytes;
  check_int "nothing dropped" 0 a.Trace_driver.rec_dropped

(* --- replay -------------------------------------------------------------- *)

let test_replay_equivalent () =
  List.iter
    (fun uc ->
      List.iter
        (fun mode ->
          let r = Trace_driver.record uc mode Version.V4_6 in
          let o = Trace_driver.replay r in
          check_bool
            (Printf.sprintf "replay %s/%s reaches the recorded final state"
               uc.Campaign.uc_name (Campaign.mode_to_string mode))
            true o.Trace_driver.rp_equal;
          check_bool "applied something" true (o.Trace_driver.rp_applied > 0))
        [ Campaign.Real_exploit; Campaign.Injection ])
    All.use_cases

(* --- tracing must not perturb results ------------------------------------ *)

let strip_row (r : Campaign.result_row) =
  (r.Campaign.r_use_case, r.Campaign.r_version, r.Campaign.r_mode, r.Campaign.r_state,
   r.Campaign.r_state_evidence, r.Campaign.r_violations, r.Campaign.r_transcript,
   r.Campaign.r_rc, r.Campaign.r_telemetry)

let test_tracing_does_not_change_results () =
  List.iter
    (fun uc ->
      let plain = Campaign.run uc Campaign.Injection Version.V4_6 in
      let traced = (Trace_driver.record uc Campaign.Injection Version.V4_6).Trace_driver.rec_row in
      check_bool
        (Printf.sprintf "%s: traced row = plain row" uc.Campaign.uc_name)
        true
        (strip_row plain = strip_row traced))
    All.use_cases

(* --- telemetry ----------------------------------------------------------- *)

let test_telemetry_counts_injector () =
  let r = Campaign.run (uc "XSA-148-priv") Campaign.Injection Version.V4_6 in
  let t = r.Campaign.r_telemetry in
  check_bool "at least one hypercall" true (Trace.total_hypercalls t >= 1);
  check_bool "injector access counted" true (t.Trace.tm_injector_accesses >= 1);
  check_bool "injector hypercall keyed by number" true
    (List.mem_assoc Injector.hypercall_number t.Trace.tm_hypercalls)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_telemetry_table_renders () =
  let r = Campaign.run (uc "XSA-212-crash") Campaign.Injection Version.V4_6 in
  let s = Campaign.telemetry_table [ r ] in
  check_bool "mentions the use case" true (contains ~sub:"XSA-212-crash" s);
  check_bool "has the hypercall column" true (contains ~sub:"Hypercalls" s)

(* With extra domains live the table grows one row per affected domain:
   the Dom/Viol columns name each casualty, and every domain the trial
   touched must appear in the rendering. *)
let test_telemetry_table_per_domain_rows () =
  let r =
    Campaign.run ~domains:4 ~load:Load_mix.default (uc "XSA-212-priv") Campaign.Injection
      Version.V4_6
  in
  let s = Campaign.telemetry_table [ r ] in
  check_bool "has the Dom column" true (contains ~sub:"Dom" s);
  check_bool "has the Viol column" true (contains ~sub:"Viol" s);
  check_bool "at least one affected domain" true (r.Campaign.r_domains <> []);
  List.iter
    (fun (d, _) -> check_bool (d ^ " rendered") true (contains ~sub:d s))
    r.Campaign.r_domains

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "wraparound keeps newest" `Quick test_wraparound_keeps_newest;
          QCheck_alcotest.to_alcotest ~verbose:false prop_on_demand_ring_matches_eager;
          Alcotest.test_case "enable allocates on demand" `Quick test_enable_allocates_on_demand;
          Alcotest.test_case "disabled ring records nothing" `Quick
            test_disabled_ring_records_nothing;
          Alcotest.test_case "depth suppression" `Quick test_depth_suppression;
          Alcotest.test_case "detection latency" `Quick test_detection_latency;
        ] );
      ( "determinism",
        [ Alcotest.test_case "same trial, same bytes" `Quick test_record_deterministic ] );
      ( "replay",
        [ Alcotest.test_case "replay = record, all use cases" `Quick test_replay_equivalent ] );
      ( "telemetry",
        [
          Alcotest.test_case "tracing does not change results" `Quick
            test_tracing_does_not_change_results;
          Alcotest.test_case "injector counted" `Quick test_telemetry_counts_injector;
          Alcotest.test_case "table renders" `Quick test_telemetry_table_renders;
          Alcotest.test_case "per-domain rows" `Quick test_telemetry_table_per_domain_rows;
        ] );
    ]
