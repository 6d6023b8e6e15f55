(** Record/replay driving for campaign trials.

    A {e recording} is one trial run with the trace ring enabled: the
    result row plus the raw ring bytes. Replaying re-drives the
    boundary events of the ring against a fresh testbed and compares
    final monitor snapshots — the determinism property the trace
    subsystem exists to provide.

    Like {!Campaign}, the driver is a functor over {!Substrate.S}
    (replay delegates event application to {!Substrate.S.apply_event})
    with the toplevel instantiated at {!Substrate_xen}. *)

let hypercall_name = Campaign.hypercall_name

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_of_telemetry t =
  Printf.sprintf
    "{\"hypercalls\":[%s],\"hypercalls_total\":%d,\"hypercalls_failed\":%d,\"faults\":%d,\
     \"double_faults\":%d,\"flushes\":%d,\"invlpgs\":%d,\"page_type_changes\":%d,\
     \"grant_ops\":%d,\"evtchn_ops\":%d,\"injector_accesses\":%d,\"vmi_scans\":%d,\
     \"vmi_findings\":%d,\"vmi_frames\":%d}"
    (String.concat ","
       (List.map
          (fun (n, c) ->
            Printf.sprintf "{\"number\":%d,\"name\":\"%s\",\"calls\":%d}" n
              (json_escape (hypercall_name n))
              c)
          t.Trace.tm_hypercalls))
    (Trace.total_hypercalls t) t.Trace.tm_hypercalls_failed t.Trace.tm_faults
    t.Trace.tm_double_faults t.Trace.tm_flushes t.Trace.tm_invlpgs t.Trace.tm_page_type_changes
    t.Trace.tm_grant_ops t.Trace.tm_evtchn_ops t.Trace.tm_injector_accesses
    t.Trace.tm_vmi_scans t.Trace.tm_vmi_findings t.Trace.tm_vmi_frames

module Make (B : Substrate.S) = struct
  module C = Campaign.Make (B)

  type recording = {
    rec_use_case : string;
    rec_mode : Campaign.mode;
    rec_version : B.config;
    rec_frames : int option;
    rec_domains : int option;
    rec_load : Load_mix.t option;
        (** the testbed shape (guest-domain count, background-load mix)
            the trial ran under; replay recreates the same shape so
            multi-domain loaded recordings reproduce byte-for-byte *)
    rec_row : C.result_row;
    rec_bytes : string;
    rec_dropped : int;
    rec_model : Vclock.Cost_model.t;
        (** the cost model the trial charged under; replay re-applies it
            so virtual timestamps reproduce under non-default models *)
    rec_final : B.snapshot;
    rec_prov : string option;
        (** canonical causal graph ({!Provenance.to_json}) when the
            trial ran with provenance attached; replay must reproduce it
            byte for byte *)
    rec_cov : Coverage.map option;
        (** the trial's coverage map when recorded with [~coverage:true];
            replay must reproduce it byte for byte, like vts and the
            causal graph *)
  }

  let prov_export tb =
    match B.provenance tb with Some p -> Some (Provenance.to_json p) | None -> None

  let record ?frames ?domains ?load ?capacity_bytes ?(provenance = false) ?(coverage = false)
      ?prepare ?observer uc mode version =
    let tb = B.create ?frames ?domains ?load version in
    if provenance then B.enable_provenance tb;
    (* [prepare] runs before the ring opens (and before Campaign.run's
       reset, which returns to this very state): the place to arm VMI
       detector baselines against the known-good testbed. *)
    (match prepare with Some f -> f tb | None -> ());
    let tr = B.trace tb in
    if coverage then Trace.set_coverage tr (Some (Coverage.create ()));
    Trace.enable ?capacity_bytes tr;
    let row = C.run ~tb ?observer uc mode version in
    Trace.disable tr;
    let rec_final = B.snapshot tb in
    {
      rec_use_case = uc.C.uc_name;
      rec_mode = mode;
      rec_version = version;
      rec_frames = frames;
      rec_domains = domains;
      rec_load = load;
      rec_row = row;
      rec_bytes = Trace.to_bytes tr;
      rec_dropped = Trace.dropped tr;
      rec_model = Vclock.model (Trace.vclock tr);
      rec_final;
      rec_prov = prov_export tb;
      (* Campaign.run already snapshotted the collector (violation axis
         included) into the row — that snapshot is the map replay must
         reproduce *)
      rec_cov = row.C.r_coverage;
    }

  let events r = Trace.records_of_string r.rec_bytes

  type replay_outcome = {
    rp_applied : int;
    rp_skipped : int;
    rp_final : B.snapshot;
    rp_equal : bool;
    rp_vts_equal : bool;
        (** the replay reproduced the recording's virtual timestamps
            byte-for-byte: re-driving the boundary stream re-emitted
            the same (event, vts) sequence, modulo the records only
            the recording side produces (VMI scans, the final monitor
            verdict) *)
    rp_prov : string option;
        (** the replay's own canonical graph (provenance-enabled
            recordings only) *)
    rp_prov_equal : bool;
        (** canonical graphs match; vacuously true for plain
            recordings *)
    rp_cov : Coverage.map option;
        (** the replay's own coverage map (coverage recordings only) *)
    rp_cov_equal : bool;
        (** coverage maps are byte-identical; vacuously true for
            recordings made without coverage *)
  }

  (* The records a replay regenerates: everything except detector scans
     (observer-driven, never re-run) and the campaign's closing monitor
     verdict. Comparing (vts, event) pairs over this stream is the
     virtual-time determinism contract. *)
  let vts_stream recs =
    List.filter_map
      (fun { Trace.vts; event; _ } ->
        match event with
        | Trace.Vmi_scan _ | Trace.Monitor_verdict _ -> None
        | _ -> Some (vts, event))
      recs

  let replay r =
    if r.rec_dropped > 0 then
      invalid_arg
        (Printf.sprintf "Trace_driver.replay: recording dropped %d records" r.rec_dropped);
    let tb =
      B.create ?frames:r.rec_frames ?domains:r.rec_domains ?load:r.rec_load r.rec_version
    in
    B.set_cost_model tb r.rec_model;
    if r.rec_prov <> None then B.enable_provenance tb;
    (* record the replay too: re-driven boundary events re-emit through
       the same instrumentation, so their (vts, event) stream must come
       back byte-identical. Sized so nothing drops (the replayed stream
       is a subset of the recorded one). *)
    let tr = B.trace tb in
    Trace.enable ~capacity_bytes:(max (4 * 1024 * 1024) (2 * String.length r.rec_bytes + 64)) tr;
    (* mirror the recording's trial preamble with the ring already open:
       Campaign.run resets the testbed (whose TLB flush lands in the
       ring) and only then installs the injector, so the replayed stream
       starts on the same records and stamps as the recorded one *)
    B.reset tb;
    if r.rec_mode = Campaign.Injection then B.install_injector tb;
    (* mirror Campaign.run's coverage protocol: a fresh collector,
       cleared at the same point in the preamble, and a before-snapshot
       from the same pristine state (its provenance observes land in the
       map exactly where the recording's did) *)
    let cov =
      match r.rec_cov with
      | None -> None
      | Some _ ->
          let c = Coverage.create () in
          Trace.set_coverage tr (Some c);
          Coverage.clear c;
          Some (c, B.snapshot tb)
    in
    let applied = ref 0 and skipped = ref 0 in
    List.iter
      (fun { Trace.event; _ } ->
        if Trace.is_boundary event && B.apply_event tb event then incr applied
        else incr skipped)
      (events r);
    (* the final snapshot is taken with the ring still open, as
       Campaign.run takes its after-snapshot: its monitor-scan
       provenance edges are part of the recorded vts stream *)
    let rp_final = B.snapshot tb in
    Trace.disable tr;
    let replayed = Trace.records_of_string (Trace.to_bytes tr) in
    let rp_prov = prov_export tb in
    let rp_cov =
      match cov with
      | None -> None
      | Some (c, before) ->
          (* the violation axis is fed from the final verdict, exactly
             as Campaign.run fed it before snapshotting *)
          List.iter
            (fun (dom, vs) ->
              List.iter
                (fun v -> Coverage.note_violation c ~cls:(Monitor.class_index v) ~domain:dom)
                vs)
            (B.violations_by_domain ~before ~after:rp_final);
          Some (Coverage.snapshot c)
    in
    {
      rp_applied = !applied;
      rp_skipped = !skipped;
      rp_final;
      rp_equal = rp_final = r.rec_final;
      rp_vts_equal = vts_stream replayed = vts_stream (events r);
      rp_prov;
      rp_prov_equal = rp_prov = r.rec_prov;
      rp_cov;
      rp_cov_equal =
        (match (r.rec_cov, rp_cov) with
        | None, _ -> true
        | Some a, Some b -> Coverage.equal a b
        | Some _, None -> false);
    }

  (* --- reporting ------------------------------------------------------- *)

  let render r =
    let buf = Buffer.create 4096 in
    let recs = events r in
    Buffer.add_string buf
      (Printf.sprintf "trace: %s / %s / %s\n" r.rec_use_case
         (Campaign.mode_to_string r.rec_mode)
         (B.config_label r.rec_version));
    Buffer.add_string buf
      (Printf.sprintf "records: %d (%d dropped)\n" (List.length recs) r.rec_dropped);
    List.iter
      (fun { Trace.seq; vts; event } ->
        Buffer.add_string buf (Format.asprintf "%6d  %10Ldns  %a\n" seq vts Trace.pp_event event))
      recs;
    let t = r.rec_row.C.r_telemetry in
    Buffer.add_string buf
      (Printf.sprintf "telemetry: %d hypercalls (%d failed), %d faults, %d flushes\n"
         (Trace.total_hypercalls t) t.Trace.tm_hypercalls_failed t.Trace.tm_faults
         (t.Trace.tm_flushes + t.Trace.tm_invlpgs));
    List.iter
      (fun (n, count) ->
        Buffer.add_string buf (Printf.sprintf "  %-20s %d\n" (hypercall_name n) count))
      t.Trace.tm_hypercalls;
    (match (Trace.detection_latency recs, Trace.detection_latency_ns recs) with
    | Some d, Some ns ->
        Buffer.add_string buf
          (Printf.sprintf "detection latency: %Ld virtual ns (%d events)\n" ns d)
    | Some d, None -> Buffer.add_string buf (Printf.sprintf "detection latency: %d events\n" d)
    | None, _ -> ());
    Buffer.add_string buf
      (Printf.sprintf "verdict: state=%b violations=%d\n" r.rec_row.C.r_state
         (List.length r.rec_row.C.r_violations));
    Buffer.contents buf

  let to_json r =
    let recs = events r in
    Printf.sprintf
      "{\"use_case\":\"%s\",\"mode\":\"%s\",\"version\":\"%s\",\"records\":%d,\"dropped\":%d,\
       \"detection_latency\":%s,\"detection_latency_ns\":%s,\"vtime_ns\":%Ld,\"state\":%b,\
       \"violations\":%d,\"telemetry\":%s,\"events\":%s}"
      (json_escape r.rec_use_case)
      (Campaign.mode_to_string r.rec_mode)
      (json_escape (B.config_to_string r.rec_version))
      (List.length recs) r.rec_dropped
      (match Trace.detection_latency recs with Some d -> string_of_int d | None -> "null")
      (match Trace.detection_latency_ns recs with Some d -> Int64.to_string d | None -> "null")
      r.rec_row.C.r_vtime_ns
      r.rec_row.C.r_state
      (List.length r.rec_row.C.r_violations)
      (json_of_telemetry r.rec_row.C.r_telemetry)
      (Trace.json_of_records recs)
end

include Make (Substrate_xen)

let apply = Substrate_xen.apply_event
(** Kept under its historical name for direct callers. *)
