(* Corpus cells: one compiled scenario program x configuration x mode,
   runnable as a pooled campaign trial (corpus-matrix) or recorded and
   replayed under an instrument profile (record-replay).

   [Backend (O) (H)] builds the cells of one backend's programs over
   whatever substrate [O.B] is — the library's own, or the span-wrapped
   one from {!Timed} — and erases the backend's types behind closures,
   so the workloads drive Xen and KVM cells alike. *)

(* What the simulated machine did in a trial. These are deterministic
   in the trial's inputs and must not move under a change that only
   makes the simulator faster. *)
type counts = { vtime_ns : int64; hypercalls : int; faults : int; injector : int }

let zero = { vtime_ns = 0L; hypercalls = 0; faults = 0; injector = 0 }

let add a b =
  {
    vtime_ns = Int64.add a.vtime_ns b.vtime_ns;
    hypercalls = a.hypercalls + b.hypercalls;
    faults = a.faults + b.faults;
    injector = a.injector + b.injector;
  }

let counts_of ~vtime_ns (t : Trace.telemetry) =
  {
    vtime_ns;
    hypercalls = Trace.total_hypercalls t;
    faults = t.Trace.tm_faults;
    injector = t.Trace.tm_injector_accesses;
  }

(* The four instrument profiles the CLI records under: [trace --replay],
   [vmi], [attribution] and [coverage]. *)
type profile = Ring | Vmi | Prov | Cov

let profiles = [ Ring; Vmi; Prov; Cov ]
let profile_index = function Ring -> 0 | Vmi -> 1 | Prov -> 2 | Cov -> 3
let profile_name = function Ring -> "ring" | Vmi -> "vmi" | Prov -> "provenance" | Cov -> "coverage"

type replay = {
  diverged : string list;  (** replay checks that failed: state, vts, provenance, coverage *)
  ring_bytes : int;
  records : int;  (** decoded ring records; counted in the traced run only *)
  edges : int;  (** provenance graph edges of the recording *)
  cov_bits : int;  (** bits set in the recording's coverage map *)
  scans : int;  (** VMI scans run during the recording *)
  frames : int;  (** frames those scans read *)
  rr_counts : counts;
}

type cell = {
  label : string;  (** program/config/mode *)
  backend : string;
  rq1 : bool;  (** the configuration RQ1 validates on *)
  injection : bool;
  run : unit -> unit;  (** one campaign trial on the pooled testbed; the row is kept *)
  check_round : unit -> string option;
      (** the last row equals the cell's first one; [None] = pass *)
  check_final : unit -> string option;
      (** the first row equals a fresh-boot run's and shows the expected
          state and violations; [None] = pass *)
  counts : unit -> counts;  (** of the kept row *)
  record_replay : profile -> replay;  (** record on a fresh boot, replay on another *)
}

(* Testbed statistics read around trials in the traced run. *)
let tlb_hits = ref 0
let tlb_misses = ref 0
let dirty_frames : int list ref = ref []

let add_tlb ~(before : Paging.Tlb.stats) (after : Paging.Tlb.stats) =
  (* a testbed reset between the two reads restarts the counters *)
  let d x y = if y >= x then y - x else y in
  tlb_hits := !tlb_hits + d before.hits after.hits;
  tlb_misses := !tlb_misses + d before.misses after.misses

(* Injection cells that Table III shows as shielded (state present, no
   violation) and the pooled 4-domain corpus run must keep so. *)
let shielded = [ ("XSA-212-priv", "4.13"); ("XSA-182-test", "4.13") ]

module type HOOKS = sig
  type t

  val traced : bool
  val tlb_stats : t -> Paging.Tlb.stats option
  val dirty_frames : t -> int option
end

module type BACKEND = sig
  val check : Scn_bytecode.program -> (unit, string) result
  val warm : domains:int -> load:Load_mix.t -> unit
  (** Fork the pooled testbed each configuration's cells run on. *)

  val fork_all : domains:int -> load:Load_mix.t -> unit
  (** Fork one throwaway testbed per configuration (the fork probe). *)

  val cells : domains:int -> load:Load_mix.t -> Scn_bytecode.program -> cell list
end

module Backend (O : Scn_ops.OPS) (H : HOOKS with type t = O.B.t) : BACKEND = struct
  module B = O.B
  module V = Scn_vm.Make (O)
  module C = V.C
  module T = Trace_driver.Make (O.B)

  let check = V.check

  (* Keyed by configuration only: a process runs one workload, so one
     testbed shape. *)
  let pool : (B.config * B.t) list ref = ref []

  let pooled ~domains ~load config =
    match List.assoc_opt config !pool with
    | Some tb -> tb
    | None ->
        let tb = B.create_pooled ~domains ~load config in
        pool := (config, tb) :: !pool;
        tb

  let warm ~domains ~load = List.iter (fun c -> ignore (pooled ~domains ~load c)) B.configs

  let fork_all ~domains ~load =
    List.iter (fun c -> ignore (B.create_pooled ~domains ~load c)) B.configs

  let observe_tlb tb f =
    match if H.traced then H.tlb_stats tb else None with
    | None -> f ()
    | Some before ->
        let r = f () in
        Option.iter (add_tlb ~before) (H.tlb_stats tb);
        r

  let note_dirty tb =
    if H.traced then
      match H.dirty_frames tb with Some n -> dirty_frames := n :: !dirty_frames | None -> ()

  let use_case p =
    let uc = V.use_case p in
    if not H.traced then uc
    else
      {
        uc with
        C.run_exploit = (fun tb -> Spans.span Spans.Attempt (fun () -> uc.C.run_exploit tb));
        run_injection = (fun tb -> Spans.span Spans.Attempt (fun () -> uc.C.run_injection tb));
      }

  let row_counts (r : C.result_row) = counts_of ~vtime_ns:r.C.r_vtime_ns r.C.r_telemetry

  let make_cell ~domains ~load p uc config mode =
    let name = Scn_bytecode.name p in
    let config_s = B.config_to_string config in
    let injection = mode = Campaign.Injection in
    let first = ref None and last = ref None in
    let run () =
      let tb = pooled ~domains ~load config in
      let row = observe_tlb tb (fun () -> C.run ~tb uc mode config) in
      note_dirty tb;
      if !first = None then first := Some row;
      last := Some row
    in
    let check_round () =
      match (!first, !last) with
      | Some a, Some b when a = b -> None
      | _ -> Some "pooled row differs from the cell's first row"
    in
    (* the first row against a fresh boot, and the row's own properties *)
    let check_final () =
      match !first with
      | None -> Some "never ran"
      | Some r when r <> C.run ~domains ~load uc mode config ->
          Some "pooled row differs from fresh-boot row"
      | Some r ->
          let classes = List.map Scn_ast.violation_class r.C.r_violations in
          let missing =
            List.filter (fun c -> not (List.mem c classes)) (Scn_bytecode.expected_violations p)
          in
          if injection && config = B.rq1_config && not r.C.r_state then
            Some "erroneous state not established"
          else if injection && config = B.rq1_config && missing <> [] then
            Some ("expected violation classes not observed: " ^ String.concat "," missing)
          else if
            injection && List.mem (name, config_s) shielded
            && not (r.C.r_state && r.C.r_violations = [])
          then Some "no longer shielded"
          else None
    in
    let counts () = match !last with Some r -> row_counts r | None -> zero in
    let record_replay profile =
      let sched =
        match profile with Vmi -> Some (Vmi.Scheduler.create (B.detectors ())) | _ -> None
      in
      let recorded_on = ref None in
      let tlb_before = ref None in
      let prepare tb =
        recorded_on := Some tb;
        if H.traced then tlb_before := H.tlb_stats tb;
        Option.iter (fun s -> Vmi.Scheduler.arm s tb) sched
      in
      let observer =
        Option.map
          (fun s tb -> Spans.span Spans.Vmi_step (fun () -> Vmi.Scheduler.step s (B.trace tb) tb))
          sched
      in
      let r =
        Spans.span Spans.Record (fun () ->
            T.record ~provenance:(profile = Prov) ~coverage:(profile = Cov) ~prepare ?observer uc
              mode config)
      in
      let o = Spans.span Spans.Replay (fun () -> T.replay r) in
      Option.iter
        (fun tb ->
          note_dirty tb;
          match (!tlb_before, H.tlb_stats tb) with
          | Some before, Some after -> add_tlb ~before after
          | _ -> ())
        !recorded_on;
      let edges =
        match Option.bind !recorded_on B.provenance with
        | Some g -> Provenance.edge_count g
        | None -> 0
      in
      {
        diverged =
          List.filter_map
            (fun (n, ok) -> if ok then None else Some n)
            [
              ("state", o.T.rp_equal); ("vts", o.T.rp_vts_equal);
              ("provenance", o.T.rp_prov_equal); ("coverage", o.T.rp_cov_equal);
            ];
        ring_bytes = String.length r.T.rec_bytes;
        records = (if H.traced then List.length (T.events r) else 0);
        edges;
        cov_bits = (match r.T.rec_cov with Some m -> Coverage.popcount m | None -> 0);
        scans = (match sched with Some s -> Vmi.Scheduler.scans_run s | None -> 0);
        frames = (match sched with Some s -> Vmi.Scheduler.frames_read s | None -> 0);
        rr_counts = row_counts r.T.rec_row;
      }
    in
    {
      label = Printf.sprintf "%s/%s/%s" name config_s (Campaign.mode_to_string mode);
      backend = B.name;
      rq1 = config = B.rq1_config;
      injection;
      run;
      check_round;
      check_final;
      counts;
      record_replay;
    }

  let cells ~domains ~load p =
    let uc = use_case p in
    List.concat_map
      (fun config ->
        List.map
          (make_cell ~domains ~load p uc config)
          [ Campaign.Real_exploit; Campaign.Injection ])
      B.configs
end

module Xen_hooks (X : sig
  val traced : bool
end) =
struct
  type t = Testbed.t

  let traced = X.traced
  let tlb_stats (tb : t) = Some (Cpu.tlb_stats tb.Testbed.hv.Hv.cpu)
  let dirty_frames (tb : t) = Some (Phys_mem.dirty_count tb.Testbed.hv.Hv.mem)
end

module Kvm_hooks (X : sig
  val traced : bool
end) =
struct
  type t = Ii_backends.Backend_kvm.t

  let traced = X.traced
  let tlb_stats _ = None

  let dirty_frames (t : t) =
    Some (Phys_mem.dirty_count (Ii_kvm.Kvm.mem t.Ii_backends.Backend_kvm.kvm))
end

module Plain_on = struct
  let traced = false
end

module Traced_on = struct
  let traced = true
end

let plain_xen : (module BACKEND) =
  (module Backend (Ii_exploits.Scenario_xen) (Xen_hooks (Plain_on)))

let plain_kvm : (module BACKEND) =
  (module Backend (Ii_backends.Scenario_kvm) (Kvm_hooks (Plain_on)))

let traced_xen : (module BACKEND) =
  (module Backend (Timed.Ops (Ii_exploits.Scenario_xen)) (Xen_hooks (Traced_on)))

let traced_kvm : (module BACKEND) =
  (module Backend (Timed.Ops (Ii_backends.Scenario_kvm)) (Kvm_hooks (Traced_on)))

(* --- the corpus ---------------------------------------------------------- *)

type program = { prog : Scn_bytecode.program; on_kvm : bool }

(* Compile every [.scn] file of [dir] and gate it against its backend's
   action table. *)
let load_corpus ~xen ~kvm dir =
  let module X = (val xen : BACKEND) in
  let module K = (val kvm : BACKEND) in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".scn")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  if files = [] then failwith ("no .scn programs in " ^ dir);
  List.map
    (fun file ->
      match Spans.span Spans.Load (fun () -> Scn_loader.load_file file) with
      | Error e -> failwith e
      | Ok prog -> (
          let on_kvm = Scn_bytecode.backend prog = Scn_bytecode.Kvm_only in
          match if on_kvm then K.check prog else X.check prog with
          | Ok () -> { prog; on_kvm }
          | Error e -> failwith (file ^ ": " ^ e)))
    files

let cells ~xen ~kvm ~domains ~load programs =
  let module X = (val xen : BACKEND) in
  let module K = (val kvm : BACKEND) in
  List.concat_map
    (fun p ->
      if p.on_kvm then K.cells ~domains ~load p.prog else X.cells ~domains ~load p.prog)
    programs

let warm ~xen ~kvm ~domains ~load =
  let module X = (val xen : BACKEND) in
  let module K = (val kvm : BACKEND) in
  X.warm ~domains ~load;
  K.warm ~domains ~load

let fork_all ~xen ~kvm ~domains ~load =
  let module X = (val xen : BACKEND) in
  let module K = (val kvm : BACKEND) in
  X.fork_all ~domains ~load;
  K.fork_all ~domains ~load
