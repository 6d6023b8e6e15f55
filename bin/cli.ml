(* Arguments, error wording and JSON helpers shared by the xenrepro
   subcommands. An argument whose value can be wrong (backend, mode,
   load mix, worker count) is parsed once, here, into the value the
   command runs with. *)

open Cmdliner
module Registry = Ii_exploits.Registry

let unknown what name available =
  Printf.sprintf "unknown %s %S; available: %s" what name (String.concat ", " available)

(* [raw] parsed by [parse]; an [Error] fails the command line. *)
let parsed parse raw =
  Term.(
    ret
      (const (fun s -> match parse s with Ok v -> `Ok v | Error e -> `Error (false, e)) $ raw))

let choice what options s =
  Option.to_result ~none:(unknown what s (List.map fst options)) (List.assoc_opt s options)

let backend =
  let doc =
    Printf.sprintf "Hypervisor backend to drive (%s)." (String.concat "|" Registry.names)
  in
  parsed
    (fun b -> Option.to_result ~none:(unknown "backend" b Registry.names) (Registry.find b))
    Arg.(value & opt string "xen" & info [ "b"; "backend" ] ~docv:"BACKEND" ~doc)

let mode =
  parsed
    (choice "mode" [ ("exploit", Campaign.Real_exploit); ("injection", Campaign.Injection) ])
    Arg.(
      value & opt string "injection" & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"exploit|injection")

let version =
  let parse s =
    match Version.of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown Xen version %S (use 4.6, 4.8 or 4.13)" s))
  in
  let doc = "Target Xen version (4.6, 4.8, 4.13)." in
  Arg.(
    value
    & opt (conv (parse, Version.pp)) Version.V4_6
    & info [ "x"; "xen-version" ] ~docv:"VER" ~doc)

let verbose =
  let doc = "Print transcripts and console output." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let workers =
  let doc =
    "Worker domains for sharded runs: a positive integer, or $(b,auto) to size to the \
     machine (never oversubscribes)."
  in
  parsed Shard.workers_of_string
    Arg.(value & opt string "1" & info [ "w"; "workers" ] ~docv:"N|auto" ~doc)

let domains =
  let doc = "Concurrent guest domains on each testbed (>= 2: victim + attacker)." in
  Arg.(value & opt int 2 & info [ "domains" ] ~docv:"N" ~doc)

let load =
  let doc =
    "Deterministic background workload every guest domain runs while trials execute \
     (none|default|heavy)."
  in
  parsed
    (choice "load mix" (List.map (fun l -> (Load_mix.to_string l, l)) Load_mix.all))
    Arg.(value & opt string "none" & info [ "load" ] ~docv:"MIX" ~doc)

let jstr s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let jlist f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"
