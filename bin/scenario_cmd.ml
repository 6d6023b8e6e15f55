(* The scenario subcommand: the .scn corpus as first-class input —
   list, check, compile, disassemble, run and cross-domain-gate use
   cases that are loadable data instead of OCaml modules. *)

open Cmdliner
module Registry = Ii_exploits.Registry

let jstr = Cli.jstr
let jlist = Cli.jlist

let backend_to_string = function
  | Scn_bytecode.Any -> "any"
  | Scn_bytecode.Xen_only -> "xen"
  | Scn_bytecode.Kvm_only -> "kvm"

let load_all files =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | f :: rest -> (
        match Scn_loader.load_file f with
        | Ok p -> go ((f, p) :: acc) rest
        | Error e -> Error e)
  in
  go [] files

(* Load-time gate: a program is checked against the action table of
   every backend its header admits. *)
let check_errors (file, p) =
  List.filter_map
    (fun (module R : Registry.S) ->
      if not (R.Vm.compatible p) then None
      else
        match R.Vm.check p with
        | Ok () -> None
        | Error msg -> Some (Printf.sprintf "%s [%s]: %s" file R.B.name msg))
    Registry.all

(* --- scenario list ------------------------------------------------------- *)

let corpus_files dir =
  match Sys.readdir dir with
  | exception Sys_error e -> Error e
  | entries ->
      let files =
        Array.to_list entries
        |> List.filter (fun f ->
               Filename.check_suffix f ".scn" || Filename.check_suffix f ".scnc")
        |> List.sort compare
        |> List.map (Filename.concat dir)
      in
      Ok files

let list_cmd =
  let doc = "List the scenarios in a corpus directory." in
  let dir_arg =
    Arg.(value & pos 0 dir "corpus" & info [] ~docv:"DIR" ~doc:"Corpus directory.")
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit the listing as JSON.") in
  let run dir json =
    match corpus_files dir with
    | Error e -> `Error (false, e)
    | Ok files -> (
        match load_all files with
        | Error e -> `Error (false, e)
        | Ok progs ->
            if json then
              print_endline
                (jlist
                   (fun (f, p) ->
                     Printf.sprintf
                       "{\"file\":%s,\"name\":%s,\"xsa\":%s,\"backend\":%s,\"instructions\":%d,\"expect\":%s}"
                       (jstr f)
                       (jstr (Scn_bytecode.name p))
                       (jstr (Scn_bytecode.xsa p))
                       (jstr (backend_to_string (Scn_bytecode.backend p)))
                       (Array.length p.Scn_bytecode.exploit
                       + Array.length p.Scn_bytecode.inject)
                       (jlist jstr (Scn_bytecode.expected_violations p)))
                   progs)
            else begin
              Printf.printf "%-14s %-8s %-7s %6s  %-22s %s\n" "NAME" "XSA" "BACKEND"
                "INSTRS" "EXPECT" "FILE";
              List.iter
                (fun (f, p) ->
                  Printf.printf "%-14s %-8s %-7s %6d  %-22s %s\n" (Scn_bytecode.name p)
                    (Scn_bytecode.xsa p)
                    (backend_to_string (Scn_bytecode.backend p))
                    (Array.length p.Scn_bytecode.exploit
                    + Array.length p.Scn_bytecode.inject)
                    (String.concat "," (Scn_bytecode.expected_violations p))
                    f)
                progs
            end;
            `Ok ())
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(ret (const run $ dir_arg $ json_arg))

(* --- scenario check ------------------------------------------------------ *)

let files_arg =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"Scenario files (.scn or .scnc).")

let check_cmd =
  let doc = "Parse, compile and gate scenarios against the backend action tables." in
  let run files =
    match load_all files with
    | Error e -> `Error (false, e)
    | Ok progs -> (
        match List.concat_map check_errors progs with
        | [] ->
            List.iter
              (fun (f, p) ->
                Printf.printf "%s: %s OK (%d instructions)\n" f (Scn_bytecode.name p)
                  (Array.length p.Scn_bytecode.exploit
                  + Array.length p.Scn_bytecode.inject))
              progs;
            `Ok ()
        | errs ->
            List.iter prerr_endline errs;
            `Error (false, Printf.sprintf "%d scenario(s) failed the load-time check" (List.length errs)))
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(ret (const run $ files_arg))

(* --- scenario compile / disasm ------------------------------------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Scenario file (.scn or .scnc).")

let compile_cmd =
  let doc = "Compile a scenario to flat bytecode (.scnc)." in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Output path.")
  in
  let run file out =
    match Scn_loader.load_file file with
    | Error e -> `Error (false, e)
    | Ok p ->
        let out =
          match out with
          | Some o -> o
          | None -> Filename.remove_extension file ^ ".scnc"
        in
        Scn_loader.save_bytecode out p;
        Printf.printf "%s: %s -> %s (%d bytes)\n" file (Scn_bytecode.name p) out
          (String.length (Scn_bytecode.encode p));
        `Ok ()
  in
  Cmd.v (Cmd.info "compile" ~doc) Term.(ret (const run $ file_arg $ out_arg))

let disasm_cmd =
  let doc = "Disassemble a scenario back to canonical surface text." in
  let run file =
    match Scn_loader.load_file file with
    | Error e -> `Error (false, e)
    | Ok p ->
        print_string (Scn_disasm.disasm p);
        `Ok ()
  in
  Cmd.v (Cmd.info "disasm" ~doc) Term.(ret (const run $ file_arg))

(* --- scenario run -------------------------------------------------------- *)

(* The backend a run uses: the header's constraint wins; a portable
   (any) scenario follows --backend, the first registered backend by
   default. *)
let effective_backend p backend_s =
  let fits (module R : Registry.S) = R.Vm.compatible p in
  let candidates =
    if backend_s = "" then Registry.all else Option.to_list (Registry.find backend_s)
  in
  match (List.filter fits candidates, Scn_bytecode.backend p) with
  | r :: _, _ -> Ok r
  | [], Scn_bytecode.Any -> Error (Cli.unknown "backend" backend_s Registry.names)
  | [], tag ->
      Error
        (Printf.sprintf "scenario %s is %s-only; it cannot run on backend %S"
           (Scn_bytecode.name p) (backend_to_string tag) backend_s)

let run_cmd =
  let doc = "Execute a compiled scenario in the bytecode VM against a backend." in
  let backend_arg =
    Arg.(value & opt string "" & info [ "b"; "backend" ] ~docv:"BACKEND"
           ~doc:"Backend for portable scenarios (xen|kvm); defaults to the header's constraint.")
  in
  let modes =
    Cli.parsed
      (Cli.choice "mode"
         [
           ("exploit", [ Campaign.Real_exploit ]);
           ("injection", [ Campaign.Injection ]);
           ("both", [ Campaign.Real_exploit; Campaign.Injection ]);
         ])
      Arg.(value & opt string "both" & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"exploit|injection|both.")
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit result rows as JSON.") in
  let run file backend_s modes version domains load json verbose =
    match Scn_loader.load_file file with
    | Error e -> `Error (false, e)
    | Ok p -> (
        match effective_backend p backend_s with
        | Error e -> `Error (false, e)
        | Ok (module R) ->
            let module D = Backend_cmd.Make (R) in
            D.scenario_run p modes ~version ~domains ~load ~json ~verbose)
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      ret
        (const run $ file_arg $ backend_arg $ modes $ Cli.version $ Cli.domains $ Cli.load
        $ json_arg $ Cli.verbose))

(* --- scenario crossdomain ------------------------------------------------ *)

(* The cross-domain gate behind the CI step: each scenario runs on an
   N-domain testbed under background load and must (a) produce its
   expected violation classes with at least one violation landing in a
   guest domain (the bystander casualty), (b) record and replay byte
   for byte with every domain live, and (c) attribute every violation
   to an originating action through the provenance graph — an intrusion
   found in a bystander domain that cannot be traced to the injector is
   a gate failure. Xen-capable scenarios only: the gate exercises the
   grant-table/event-channel/device-model surfaces. *)
let crossdomain_program ~domains ~load (file, p) =
  let errs = ref [] in
  let fail fmt =
    Printf.ksprintf (fun m -> errs := Printf.sprintf "%s: %s" file m :: !errs) fmt
  in
  (match Registry.Xen.Vm.check p with
  | Error e -> fail "%s" e
  | Ok () -> (
      let uc = Registry.Xen.Vm.use_case p in
      let version = Substrate_xen.rq1_config in
      (* (a) blast radius: expected classes, landing in a guest domain *)
      let row = Campaign.run ~domains ~load uc Campaign.Injection version in
      let classes = List.map Scn_ast.violation_class row.Campaign.r_violations in
      List.iter
        (fun c ->
          if not (List.mem c classes) then
            fail "expected violation class %s not observed at %d domains under %s load" c
              domains (Load_mix.to_string load))
        (Scn_bytecode.expected_violations p);
      if not (List.exists (fun (d, vs) -> d <> "host" && vs <> []) row.Campaign.r_domains)
      then fail "no violation landed in a guest domain (no bystander casualty)";
      (* (b) replay determinism with every domain live *)
      List.iter
        (fun mode ->
          let r = Trace_driver.record ~domains ~load uc mode version in
          let rp = Trace_driver.replay r in
          if not rp.Trace_driver.rp_equal then
            fail "replay diverged in final state (%s mode)" (Campaign.mode_to_string mode);
          if not rp.Trace_driver.rp_vts_equal then
            fail "replay diverged in virtual timestamps (%s mode)" (Campaign.mode_to_string mode))
        [ Campaign.Real_exploit; Campaign.Injection ];
      (* (c) attribution completeness *)
      let report = Attribution.attribute ~domains ~load uc Campaign.Injection version in
      if not (Attribution.complete report) then
        fail "a violation in the blast radius has no attributed origin";
      match !errs with
      | [] ->
          Printf.printf
            "%s: %s OK at %d domains / %s load (%d violation(s), %d affected domain(s))\n"
            file (Scn_bytecode.name p)
            domains (Load_mix.to_string load)
            (List.length row.Campaign.r_violations)
            (List.length row.Campaign.r_domains)
      | _ -> ()));
  List.rev !errs

let crossdomain_cmd =
  let doc =
    "Cross-domain gate: run each scenario on a multi-domain testbed under background load; \
     fail unless the blast radius, replay determinism and per-violation attribution all \
     hold (the CI cross-domain step)."
  in
  let run files domains load =
    if domains < 2 then `Error (false, "need at least 2 guest domains")
    else
      match load_all files with
      | Error e -> `Error (false, e)
      | Ok progs -> (
          match List.concat_map (crossdomain_program ~domains ~load) progs with
          | [] -> `Ok ()
          | errs ->
              List.iter prerr_endline errs;
              `Error (false, Printf.sprintf "%d cross-domain gate failure(s)" (List.length errs)))
  in
  Cmd.v
    (Cmd.info "crossdomain" ~doc)
    Term.(ret (const run $ files_arg $ Cli.domains $ Cli.load))

let cmd =
  let doc = "Work with compiled intrusion scenarios (.scn corpus)." in
  Cmd.group
    (Cmd.info "scenario" ~doc)
    [ list_cmd; check_cmd; compile_cmd; disasm_cmd; run_cmd; crossdomain_cmd ]
