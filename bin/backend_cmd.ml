(* The backend-generic subcommand bodies, written once as a functor over
   a registered backend: campaign, trace, vmi, attribution and the rows
   of scenario run. What differs between backends comes from the
   substrate (configurations, labels) or the registry entry (use cases,
   scenario VM). *)

module Make (R : Ii_exploits.Registry.S) = struct
  module B = R.B
  module C = Campaign.Make (R.B)
  module T = Trace_driver.Make (R.B)
  module V = Vmi_driver.Make (R.B)
  module A = Attribution.Make (R.B)

  let modes = [ Campaign.Real_exploit; Campaign.Injection ]

  (* [-x] names a Xen version; a backend without that configuration
     runs its RQ1 one. *)
  let config_of_version v =
    Option.value (B.config_of_string (Version.to_string v)) ~default:B.rq1_config

  let print_row ~verbose (r : C.result_row) =
    Printf.printf "use case:        %s\n" r.C.r_use_case;
    Printf.printf "%-17s%s\n" (B.config_field ^ ":") (B.config_to_string r.C.r_version);
    Printf.printf "mode:            %s\n" (Campaign.mode_to_string r.C.r_mode);
    Option.iter (Printf.printf "return code:     %d\n") r.C.r_rc;
    Printf.printf "erroneous state: %s\n"
      (if r.C.r_state then "PRESENT (audited)" else "absent");
    (match r.C.r_violations with
    | [] -> Printf.printf "security:        no violation (the system handled the state)\n"
    | vs ->
        Printf.printf "security violations:\n";
        List.iter (fun v -> Printf.printf "  - %s\n" (Monitor.violation_to_string v)) vs);
    if verbose then begin
      Printf.printf "\n--- transcript ---\n";
      List.iter print_endline r.C.r_transcript;
      Printf.printf "\n--- erroneous-state evidence ---\n";
      List.iter print_endline r.C.r_state_evidence
    end

  let row_json (r : C.result_row) =
    Printf.sprintf
      "{\"use_case\":%s,\"version\":%s,\"mode\":%s,\"rc\":%s,\"state\":%b,\"violations\":%s,\"transcript\":%s}"
      (Cli.jstr r.C.r_use_case)
      (Cli.jstr (B.config_to_string r.C.r_version))
      (Cli.jstr (Campaign.mode_to_string r.C.r_mode))
      (match r.C.r_rc with Some rc -> string_of_int rc | None -> "null")
      r.C.r_state
      (Cli.jlist (fun v -> Cli.jstr (Monitor.violation_to_string v)) r.C.r_violations)
      (Cli.jlist Cli.jstr r.C.r_transcript)

  let campaign ~verbose ~workers ~domains ~load =
    let rows = C.run_matrix ~workers ~domains ~load R.use_cases ~versions:B.configs ~modes in
    print_endline (C.table3 rows);
    print_newline ();
    print_endline (C.telemetry_table rows);
    print_newline ();
    Printf.printf "RQ1 validation on %s (exploit vs injection):\n" (B.config_label B.rq1_config);
    List.iter
      (fun (name, st, viol) ->
        Printf.printf "  %-14s same erroneous state: %b   same violation class: %b\n" name st viol)
      (C.validate_rq1 ~domains ~load R.use_cases);
    if verbose then begin
      print_newline ();
      List.iter
        (fun r ->
          Printf.printf "=== %s / %s / %s ===\n" r.C.r_use_case
            (B.config_to_string r.C.r_version)
            (Campaign.mode_to_string r.C.r_mode);
          List.iter print_endline r.C.r_transcript;
          print_newline ())
        rows
    end

  let trace ~use_case ~mode ~seed ~version ~json ~replay ~model =
    match R.find use_case with
    | Error e -> `Error (false, e)
    | Ok uc ->
        let prepare = Option.map (fun m tb -> B.set_cost_model tb m) model in
        let r = T.record ?prepare uc mode (config_of_version version) in
        if json then print_string (T.to_json r)
        else begin
          Printf.printf "seed: %Ld\n" seed;
          print_string (T.render r)
        end;
        if replay then begin
          let o = T.replay r in
          Printf.printf "replay: %d boundary events applied, %d records skipped\n" o.T.rp_applied
            o.T.rp_skipped;
          Printf.printf "final state %s\n"
            (if o.T.rp_equal then "EQUIVALENT to the recording" else "DIVERGED from the recording");
          Printf.printf "virtual timestamps %s\n"
            (if o.T.rp_vts_equal then "REPRODUCED byte-for-byte"
             else "DIVERGED from the recording");
          (* non-zero exit so CI can gate on replay + vclock determinism
             together *)
          if not (o.T.rp_equal && o.T.rp_vts_equal) then exit 1
        end;
        `Ok ()

  let vmi ~mode ~period ~every_ns ~version ~json =
    let config = config_of_version version in
    let registry = Metrics.create () in
    let trials = V.coverage ~period ?every_ns ~registry R.use_cases mode config in
    if json then print_string (V.to_json trials)
    else begin
      print_endline (V.matrix_table trials);
      List.iter
        (fun t ->
          List.iter
            (fun (det, findings) ->
              Printf.printf "%s / %s:\n" t.V.t_recording.T.rec_use_case det;
              List.iter (fun f -> Printf.printf "  - %s\n" f) findings)
            t.V.t_findings)
        trials;
      print_newline ();
      print_string (Metrics.render_prometheus registry)
    end;
    (* CI gates: every injected state must be caught on the vulnerable
       configuration, and scans must never perturb the trial they
       observe. *)
    let failed = ref false in
    if config = B.rq1_config && mode = Campaign.Injection then
      List.iter
        (fun t ->
          if not (V.covered t) then begin
            Printf.eprintf "vmi: %s escaped every detector\n" t.V.t_recording.T.rec_use_case;
            failed := true
          end)
        trials;
    List.iter
      (fun uc ->
        if not (V.side_effect_free uc mode config) then begin
          Printf.eprintf "vmi: detectors perturbed the %s trial\n" uc.C.uc_name;
          failed := true
        end)
      R.use_cases;
    if !failed then exit 1

  let attribution ~version ~json ~dot =
    let registry = Metrics.create () in
    let reports =
      A.attribute_all ~registry R.use_cases Campaign.Injection (config_of_version version)
    in
    if json then print_string (A.to_json reports)
    else if dot then print_string (A.to_dot reports)
    else begin
      print_endline (A.table reports);
      print_string (Metrics.render_prometheus registry)
    end;
    let incomplete = List.filter (fun r -> not (A.complete r)) reports in
    List.iter
      (fun r ->
        Printf.eprintf "attribution: %s has a violation or finding with no origin\n"
          r.A.ar_use_case)
      incomplete;
    if incomplete <> [] then exit 1

  let scenario_run p run_modes ~version ~domains ~load ~json ~verbose =
    match R.Vm.check p with
    | Error e -> `Error (false, e)
    | Ok () ->
        let uc = R.Vm.use_case p in
        let rows =
          List.map (fun m -> C.run ~domains ~load uc m (config_of_version version)) run_modes
        in
        if json then print_endline (Cli.jlist row_json rows)
        else
          List.iter
            (fun r ->
              print_row ~verbose r;
              print_newline ())
            rows;
        `Ok ()
end
