(* The xenrepro command-line tool: run exploits, injections, campaigns
   and regenerate the paper's tables from the terminal. *)

open Cmdliner

module Registry = Ii_exploits.Registry
module Xen = Backend_cmd.Make (Registry.Xen)

let use_case_arg =
  let doc =
    Printf.sprintf
      "Use case to run — a name (%s) or an XSA id only one of them carries, like XSA-148."
      (String.concat ", " Ii_exploits.Use_cases.names)
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"USE-CASE" ~doc)

let with_use_case name k =
  match Registry.Xen.find name with Error e -> `Error (false, e) | Ok uc -> k uc

let run_one mode name version verbose =
  with_use_case name (fun uc ->
      Xen.print_row ~verbose (Campaign.run uc mode version);
      `Ok ())

let exploit_cmd =
  let doc = "Run a third-party exploit PoC against a simulated Xen version." in
  Cmd.v
    (Cmd.info "exploit" ~doc)
    Term.(ret (const (run_one Campaign.Real_exploit) $ use_case_arg $ Cli.version $ Cli.verbose))

let inject_cmd =
  let doc =
    "Reproduce a use case's erroneous state with the intrusion injector (arbitrary_access)."
  in
  Cmd.v
    (Cmd.info "inject" ~doc)
    Term.(ret (const (run_one Campaign.Injection) $ use_case_arg $ Cli.version $ Cli.verbose))

let campaign_cmd =
  let doc = "Run the full evaluation campaign and print Table III." in
  let trials_arg =
    let doc =
      "Also run N randomized trials per version through the batching scheduler \
       (versions x trials flattened into one work queue) and print the outcome tally \
       (Xen only)."
    in
    Arg.(value & opt int 0 & info [ "n"; "trials" ] ~docv:"N" ~doc)
  in
  let run verbose (module R : Registry.S) workers domains load trials =
    (* the random-campaign tally drives the Xen injector directly *)
    if trials > 0 && R.B.name <> Registry.Xen.B.name then
      `Error (false, Printf.sprintf "random campaigns (--trials) are Xen-only, not %s" R.B.name)
    else begin
      let module D = Backend_cmd.Make (R) in
      D.campaign ~verbose ~workers ~domains ~load;
      if trials > 0 then begin
        print_newline ();
        print_endline
          (Random_campaign.render (Campaign_scheduler.run ~workers ~trials Version.all))
      end;
      `Ok ()
    end
  in
  Cmd.v (Cmd.info "campaign" ~doc)
    Term.(
      ret
        (const run $ Cli.verbose $ Cli.backend $ Cli.workers $ Cli.domains $ Cli.load
        $ trials_arg))

let tables_cmd =
  let doc = "Regenerate the paper's tables (I, II, III)." in
  let run () =
    print_endline (Ii_advisory.Corpus.table1 ());
    print_newline ();
    print_endline (Campaign.table2 Ii_exploits.Use_cases.xen);
    print_newline ();
    let rows =
      Campaign.run_matrix Ii_exploits.Use_cases.xen ~versions:Version.all
        ~modes:[ Campaign.Injection ]
    in
    print_endline (Campaign.table3 rows)
  in
  Cmd.v (Cmd.info "tables" ~doc) Term.(const run $ const ())

let advisory_cmd =
  let doc = "Inspect the advisory corpus and classifier." in
  let run () =
    print_endline (Ii_advisory.Corpus.table1 ());
    Printf.printf "\ncorpus: %d CVEs, %d classifications, classifier accuracy %.1f%%\n"
      Ii_advisory.Corpus.size Ii_advisory.Corpus.classifications
      (100. *. Ii_advisory.Classify.accuracy ())
  in
  Cmd.v (Cmd.info "advisory" ~doc) Term.(const run $ const ())

(* Boot a Xen testbed and run one attempt of a use case on it. *)
let with_attempt name mode version k =
  with_use_case name (fun uc ->
      let tb = Testbed.create version in
      if mode = Campaign.Injection then Injector.install tb.Testbed.hv;
      ignore
        ((match mode with
         | Campaign.Real_exploit -> uc.Campaign.run_exploit
         | Campaign.Injection -> uc.Campaign.run_injection)
           tb);
      k tb;
      `Ok ())

let console_cmd =
  let doc = "Run a use case and dump the Xen console (crash dumps etc.)." in
  let run name mode version =
    with_attempt name mode version (fun tb ->
        List.iter print_endline (Hv.console_lines tb.Testbed.hv))
  in
  Cmd.v (Cmd.info "console" ~doc) Term.(ret (const run $ use_case_arg $ Cli.mode $ Cli.version))

let venom_cmd =
  let doc = "Run the VENOM device-model study (exploit vs injection across builds)." in
  let run () = print_endline (Ii_devicemodel.Venom_study.render (Ii_devicemodel.Venom_study.matrix ())) in
  Cmd.v (Cmd.info "venom" ~doc) Term.(const run $ const ())

let blk_cmd =
  let doc = "Run the block-backend study (off-by-one exploit vs injection over real grants)." in
  let run () = print_endline (Ii_devicemodel.Blk_study.render (Ii_devicemodel.Blk_study.matrix ())) in
  Cmd.v (Cmd.info "blk" ~doc) Term.(const run $ const ())

let fuzz_cmd =
  let doc =
    "Randomized erroneous-state campaign (fuzz the injector, §IV-C) across all versions."
  in
  let seed_arg =
    Arg.(value & opt int64 7L & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Campaign PRNG seed.")
  in
  let trials_arg =
    Arg.(value & opt int 200 & info [ "n"; "trials" ] ~docv:"N" ~doc:"Trials per version.")
  in
  let flips_arg =
    Arg.(value & flag & info [ "soft-errors" ] ~doc:"Include accidental single-bit flips.")
  in
  let run seed trials flips verbose workers =
    let targets =
      if flips then Random_campaign.all_targets else Random_campaign.intrusion_targets
    in
    let summaries = Campaign_scheduler.run ~seed ~trials ~targets ~workers Version.all in
    print_endline (Random_campaign.render summaries);
    if verbose then
      List.iter
        (fun s ->
          Printf.printf "\n--- Xen %s: noteworthy trials ---\n"
            (Version.to_string s.Random_campaign.s_version);
          List.iter
            (fun t ->
              if t.Random_campaign.outcome <> Random_campaign.State_only
                 && t.Random_campaign.outcome <> Random_campaign.No_effect
              then
                Printf.printf "trial %3d %-20s addr=0x%Lx -> %s%s\n" t.Random_campaign.index
                  (Random_campaign.target_to_string t.Random_campaign.target)
                  t.Random_campaign.t_addr
                  (Random_campaign.outcome_to_string t.Random_campaign.outcome)
                  (match t.Random_campaign.t_violations with
                  | [] -> ""
                  | vs ->
                      " [" ^ String.concat "; " (List.map Monitor.violation_to_string vs) ^ "]"))
            s.Random_campaign.trials)
        summaries
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(const run $ seed_arg $ trials_arg $ flips_arg $ Cli.verbose $ Cli.workers)

let bench_cmd =
  let doc =
    "Campaign scaling bench: time the batching scheduler (warm pools, COW forks, one \
     flattened work queue) against the sequential reference at each worker count."
  in
  let trials_arg =
    Arg.(value & opt int 2000 & info [ "n"; "trials" ] ~docv:"N" ~doc:"Trials per run.")
  in
  let sweep_arg =
    let doc = "Comma-separated worker counts to sweep (each a positive integer or $(b,auto))." in
    Arg.(value & opt string "1,auto" & info [ "w"; "workers" ] ~docv:"LIST" ~doc)
  in
  let streamed_arg =
    Arg.(value & flag & info [ "streamed" ]
           ~doc:"Use the streaming scheduler (flat memory; tallies only, no trial rows).")
  in
  let seconds f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let run trials sweep_spec streamed =
    let specs = String.split_on_char ',' sweep_spec in
    let parsed = List.map Shard.workers_of_string specs in
    match List.find_opt Result.is_error parsed with
    | Some (Error e) -> `Error (false, e)
    | _ ->
        let sweep =
          List.sort_uniq compare (List.filter_map Result.to_option parsed)
        in
        ignore (Testbed.create_pooled Version.V4_8) (* warm the pool *);
        let _, seq_s =
          seconds (fun () -> ignore (Random_campaign.run ~trials Version.V4_8))
        in
        Printf.printf "%d trials on 4.8; sequential reference (fresh boot): %.3f s\n\n" trials
          seq_s;
        Printf.printf "%8s %10s %12s %8s\n" "workers" "wall s" "trials/s" "speedup";
        List.iter
          (fun workers ->
            let _, s =
              seconds (fun () ->
                  if streamed then
                    ignore
                      (Campaign_scheduler.run_streamed ~trials ~workers [ Version.V4_8 ])
                  else ignore (Campaign_scheduler.run ~trials ~workers [ Version.V4_8 ]))
            in
            Printf.printf "%8d %10.3f %12.0f %7.2fx\n" workers s (float_of_int trials /. s)
              (seq_s /. s))
          sweep;
        `Ok ()
  in
  Cmd.v (Cmd.info "bench" ~doc) Term.(ret (const run $ trials_arg $ sweep_arg $ streamed_arg))

let cross_cmd =
  let doc = "Cross-system injection: the same IM into Xen and a KVM-style hypervisor (the cross-system scenario)." in
  let run () =
    Format.printf "%a@.@." Intrusion_model.pp_long Ii_exploits.Cross_system.im;
    print_endline (Ii_exploits.Cross_system.render (Ii_exploits.Cross_system.run ()))
  in
  Cmd.v (Cmd.info "cross" ~doc) Term.(const run $ const ())

let stats_cmd =
  let doc = "Run a use case and print a xentop-style host summary (domains, memory, hypercalls)." in
  let run name mode version =
    with_attempt name mode version (fun tb ->
        Testbed.tick_all tb;
        let hv = tb.Testbed.hv in
        Printf.printf "xentop - Xen %s%s\n" (Version.to_string version)
          (if Hv.is_crashed hv then "   *** HOST CRASHED ***" else "");
        Printf.printf "free frames: %d / %d\n" (Phys_mem.free_frames hv.Hv.mem)
          (Phys_mem.total_frames hv.Hv.mem);
        Printf.printf "%-5s %-10s %8s %8s %6s\n" "DOMID" "NAME" "PAGES" "VCPURUNS" "PROCS";
        List.iter
          (fun k ->
            let d = Kernel.dom k in
            Printf.printf "%-5d %-10s %8d %8d %6d\n" d.Domain.id d.Domain.name
              (List.length (Domain.populated_pfns d))
              (Sched.runs_of hv.Hv.sched ~dom:d.Domain.id)
              (List.length (Process.list (Kernel.processes k))))
          (Testbed.kernels tb);
        Printf.printf "hypercalls (nr: calls):";
        List.iter (fun (n, c) -> Printf.printf " %d:%d" n c) (Hv.hypercall_stats hv);
        Printf.printf "   failed: %d\n" (Hv.hypercalls_failed hv))
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(ret (const run $ use_case_arg $ Cli.mode $ Cli.version))

let field_study_cmd =
  let doc = "Render the advisory field study and the risk-driven campaign plan." in
  let run () = print_endline (Ii_advisory.Field_study.render ()) in
  Cmd.v (Cmd.info "field-study" ~doc) Term.(const run $ const ())

let defense_cmd =
  let doc =
    "Evaluate the page-table integrity guard with injected erroneous states."
  in
  let run version =
    print_endline (Ii_exploits.Defense_eval.render (Ii_exploits.Defense_eval.matrix ~version ()))
  in
  Cmd.v (Cmd.info "defense" ~doc) Term.(const run $ Cli.version)

let ims_cmd =
  let doc = "List the intrusion-model catalog and injector coverage." in
  let run verbose =
    print_endline (Im_catalog.render ());
    if verbose then
      List.iter
        (fun e ->
          List.iter
            (fun m -> Format.printf "@.%a@." Intrusion_model.pp_long m)
            e.Im_catalog.models)
        Im_catalog.catalog
  in
  Cmd.v (Cmd.info "ims" ~doc) Term.(const run $ Cli.verbose)

let trace_cmd =
  let doc =
    "Record a use case with the event tracer; print (or replay) the trace."
  in
  let uc_opt_arg =
    let doc =
      Printf.sprintf "Use case to record — a name (%s) or an XSA id like XSA-148."
        (String.concat ", " Ii_exploits.Use_cases.names)
    in
    Arg.(required & opt (some string) None & info [ "use-case" ] ~docv:"USE-CASE" ~doc)
  in
  let seed_arg =
    let doc = "Campaign seed (echoed in the header; the trial itself is deterministic)." in
    Arg.(value & opt int64 7L & info [ "s"; "seed" ] ~docv:"SEED" ~doc)
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit the recording as JSON.") in
  let replay_arg =
    Arg.(value & flag & info [ "replay" ] ~doc:"Replay the recording and check final-state equivalence.")
  in
  let cost_model_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "cost-model" ] ~docv:"FILE"
          ~doc:
            "Load per-operation virtual-clock costs from $(docv) (one 'key = ns' per line, \
             '#' comments); unknown keys keep their defaults out — the loader rejects them.")
  in
  let run use_case mode seed version json replay cost_model (module R : Registry.S) =
    let model =
      match cost_model with
      | None -> Ok None
      | Some f -> Result.map Option.some (Vclock.Cost_model.load f)
    in
    match model with
    | Error e -> `Error (false, "cost-model: " ^ e)
    | Ok model ->
        let module D = Backend_cmd.Make (R) in
        D.trace ~use_case ~mode ~seed ~version ~json ~replay ~model
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      ret
        (const run $ uc_opt_arg $ Cli.mode $ seed_arg $ Cli.version $ json_arg $ replay_arg
       $ cost_model_arg $ Cli.backend))

let vmi_cmd =
  let doc =
    "Run the VMI detector suite over every use case: coverage matrix, detection latencies \
     and the metrics registry. Exits non-zero when a use-case state escapes every detector \
     on a vulnerable version, or when a scan perturbs the machine."
  in
  let period_arg =
    Arg.(value & opt int 1 & info [ "p"; "period" ] ~docv:"N" ~doc:"Scan every N trial steps.")
  in
  let every_ns_arg =
    Arg.(
      value
      & opt (some int64) None
      & info [ "every-ns" ] ~docv:"NS"
          ~doc:
            "Rate-based scheduling: scan when $(docv) simulated ns have elapsed on the \
             machine's virtual clock (overrides $(b,--period)).")
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit per-trial latencies as JSON.") in
  let run mode period every_ns version json (module R : Registry.S) =
    let module D = Backend_cmd.Make (R) in
    D.vmi ~mode ~period ~every_ns ~version ~json
  in
  Cmd.v (Cmd.info "vmi" ~doc)
    Term.(
      const run $ Cli.mode $ period_arg $ every_ns_arg $ Cli.version $ json_arg $ Cli.backend)

let attribution_cmd =
  let doc =
    "Run every use case with byte-granular provenance attached and attribute each security \
     violation and VMI finding back to its originating action. Exits non-zero when any \
     violation or finding resolves to an empty origin set."
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the attribution reports (rows + causal graph) as JSON.")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit the causal graphs as Graphviz DOT.")
  in
  let run version json dot (module R : Registry.S) =
    let module D = Backend_cmd.Make (R) in
    D.attribution ~version ~json ~dot
  in
  Cmd.v (Cmd.info "attribution" ~doc)
    Term.(const run $ Cli.version $ json_arg $ dot_arg $ Cli.backend)

let backends_cmd =
  let doc = "List the hypervisor backends the injection stack can drive." in
  let run () =
    List.iter
      (fun (module R : Registry.S) -> Printf.printf "%-6s %s\n" R.B.name R.B.description)
      Registry.all
  in
  Cmd.v (Cmd.info "backends" ~doc) Term.(const run $ const ())

let main_cmd =
  let doc = "intrusion injection for virtualized systems (DSN'23 reproduction)" in
  Cmd.group
    (Cmd.info "xenrepro" ~version:"1.0.0" ~doc)
    [ exploit_cmd; inject_cmd; campaign_cmd; tables_cmd; advisory_cmd; console_cmd; venom_cmd; blk_cmd; fuzz_cmd; bench_cmd; ims_cmd; defense_cmd; field_study_cmd; stats_cmd; cross_cmd; trace_cmd; vmi_cmd; attribution_cmd; backends_cmd; Scenario_cmd.cmd; Coverage_cmd.cmd ]

let () = exit (Cmd.eval main_cmd)
