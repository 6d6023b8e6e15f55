(* Writes the corpus goldens to stdout, one line per corpus program x
   configuration x mode (see golden.ml):

     dune exec tools/goldgen/goldgen.exe > test/golden/corpus.golden

   Regenerate only when a change is meant to alter what the stack
   produces, and say why in the commit. *)

let () =
  List.iter
    (fun p -> List.iter print_endline (Golden.program_lines p))
    Ii_exploits.Use_cases.programs
