(* The corpus goldens: one line per corpus program x configuration x
   mode, pinning the plain campaign row (readable fingerprint plus an
   MD5 of its marshalled bytes), the final snapshot, and a provenance +
   coverage recording's ring bytes, vts stream, causal graph and
   coverage map.

   A line is tab-separated: program, config, mode, then [key=value]
   fields. The test suite recomputes every line and compares it with
   test/golden/corpus.golden field by field. *)

let md5 s = Digest.to_hex (Digest.string s)
let md5_value v = md5 (Marshal.to_string v [ Marshal.No_sharing ])
let modes = [ Campaign.Real_exploit; Campaign.Injection ]

module Make (B : Substrate.S) = struct
  module C = Campaign.Make (B)
  module T = Trace_driver.Make (B)

  let fingerprint (r : C.result_row) =
    let t = r.C.r_telemetry in
    String.concat "\n"
      ([ Printf.sprintf "use_case=%s" r.C.r_use_case;
         Printf.sprintf "version=%s" (B.config_to_string r.C.r_version);
         Printf.sprintf "mode=%s" (Campaign.mode_to_string r.C.r_mode);
         Printf.sprintf "state=%b" r.C.r_state;
         Printf.sprintf "rc=%s"
           (match r.C.r_rc with Some rc -> string_of_int rc | None -> "-") ]
      @ List.map (fun e -> "evidence=" ^ e) r.C.r_state_evidence
      @ List.map
          (fun v -> "violation=" ^ Monitor.violation_to_string v)
          r.C.r_violations
      @ List.map (fun l -> "transcript=" ^ l) r.C.r_transcript
      @ [ Printf.sprintf "telemetry=%s|f%d|F%d|d%d|fl%d|i%d|p%d|g%d|e%d|inj%d|vs%d|vf%d|vfr%d"
            (String.concat ","
               (List.map (fun (n, c) -> Printf.sprintf "%d:%d" n c) t.Trace.tm_hypercalls))
            t.Trace.tm_hypercalls_failed t.Trace.tm_faults t.Trace.tm_double_faults
            t.Trace.tm_flushes t.Trace.tm_invlpgs t.Trace.tm_page_type_changes
            t.Trace.tm_grant_ops t.Trace.tm_evtchn_ops t.Trace.tm_injector_accesses
            t.Trace.tm_vmi_scans t.Trace.tm_vmi_findings t.Trace.tm_vmi_frames ])

  let line (uc : C.use_case) config mode =
    let row = C.run uc mode config in
    let tb = B.create config in
    ignore (C.run ~tb uc mode config);
    let r = T.record ~provenance:true ~coverage:true uc mode config in
    String.concat "\t"
      [
        uc.C.uc_name;
        B.config_to_string config;
        Campaign.mode_to_string mode;
        "row=" ^ md5_value row;
        "snap=" ^ md5_value (B.snapshot tb);
        "trace=" ^ md5 r.T.rec_bytes;
        "vts=" ^ md5_value (T.vts_stream (T.events r));
        "prov=" ^ md5_value r.T.rec_prov;
        "cov=" ^ md5_value r.T.rec_cov;
        "fp=" ^ String.escaped (fingerprint row);
      ]

  let lines uc =
    List.concat_map (fun config -> List.map (line uc config) modes) B.configs
end

module Xen = Make (Substrate_xen)
module Kvm = Make (Ii_backends.Backend_kvm)
module XV = Scn_vm.Make (Ii_exploits.Scenario_xen)
module KV = Scn_vm.Make (Ii_backends.Scenario_kvm)

(* Every cell of one corpus program, on the backend its header names. *)
let program_lines p =
  match Scn_bytecode.backend p with
  | Scn_bytecode.Kvm_only -> Kvm.lines (KV.use_case p)
  | Scn_bytecode.Xen_only | Scn_bytecode.Any -> Xen.lines (XV.use_case p)

(* A line's cell key (program, config, mode) and its named fields. *)
let parse line =
  let field f =
    match String.index_opt f '=' with
    | Some i -> (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1))
    | None -> (f, "")
  in
  match String.split_on_char '\t' line with
  | name :: config :: mode :: fields -> ((name, config, mode), List.map field fields)
  | _ -> invalid_arg ("Golden.parse: " ^ line)
