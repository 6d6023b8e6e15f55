type target_class =
  | Idt_gates
  | Page_table_entries
  | M2p_entries
  | Arbitrary_physical
  | Soft_error_bit_flip
  | Component_hooks

let target_to_string = function
  | Idt_gates -> "idt-gates"
  | Page_table_entries -> "page-table-entries"
  | M2p_entries -> "m2p-entries"
  | Arbitrary_physical -> "arbitrary-physical"
  | Soft_error_bit_flip -> "soft-error-bit-flip"
  | Component_hooks -> "component-hooks"

let all_targets =
  [
    Idt_gates; Page_table_entries; M2p_entries; Arbitrary_physical; Component_hooks;
    Soft_error_bit_flip;
  ]

let intrusion_targets =
  [ Idt_gates; Page_table_entries; M2p_entries; Arbitrary_physical; Component_hooks ]

let memory_targets = [ Idt_gates; Page_table_entries; M2p_entries; Arbitrary_physical ]

type outcome_class = Crashed | Violated | State_only | No_effect | Refused

let outcome_to_string = function
  | Crashed -> "crashed"
  | Violated -> "violated"
  | State_only -> "state-only (handled)"
  | No_effect -> "no effect"
  | Refused -> "refused"

let all_outcomes = [ Crashed; Violated; State_only; No_effect; Refused ]

type trial = {
  index : int;
  target : target_class;
  t_addr : int64;
  t_value : int64;
  outcome : outcome_class;
  t_violations : Monitor.violation list;
}

type summary = {
  s_version : Version.t;
  s_seed : int64;
  s_trials : int;
  tally : (outcome_class * int) list;
  trials : trial list;
}

(* One word-aligned machine address + value within the target class. *)
let synthesize rng (tb : Testbed.t) target =
  let hv = tb.Testbed.hv in
  let frames = Phys_mem.total_frames hv.Hv.mem in
  match target with
  | Idt_gates ->
      (* bias towards the exception vectors a running system exercises *)
      let vector = Prng.int rng ~bound:33 in
      let addr =
        Int64.add (Addr.maddr_of_mfn hv.Hv.idt_mfn) (Int64.of_int (Idt.handler_offset vector))
      in
      (addr, Prng.int64 rng)
  | Page_table_entries ->
      let dom = Kernel.dom tb.Testbed.attacker in
      let table = Prng.choose rng dom.Domain.pt_pages in
      let index = Prng.int rng ~bound:Addr.entries_per_table in
      let mfn = Prng.int rng ~bound:frames in
      let flags = Int64.of_int (Prng.int rng ~bound:0x1000) in
      let value = Int64.logor (Addr.maddr_of_mfn mfn) flags in
      (Int64.add (Addr.maddr_of_mfn table) (Int64.of_int (8 * index)), value)
  | M2p_entries ->
      let frame = hv.Hv.m2p_mfns.(Prng.int rng ~bound:(Array.length hv.Hv.m2p_mfns)) in
      let index = Prng.int rng ~bound:(Addr.page_size / 8) in
      (Int64.add (Addr.maddr_of_mfn frame) (Int64.of_int (8 * index)), Prng.int64 rng)
  | Arbitrary_physical | Soft_error_bit_flip ->
      let mfn = Prng.int rng ~bound:frames in
      let index = Prng.int rng ~bound:(Addr.page_size / 8) in
      (Int64.add (Addr.maddr_of_mfn mfn) (Int64.of_int (8 * index)), Prng.int64 rng)
  | Component_hooks ->
      (* addr selects the hook, value its parameter *)
      (Int64.of_int (Prng.int rng ~bound:4), Prng.int64 rng)

(* The activation workload: let every domain schedule, exercise guest
   memory, take a page fault (through the possibly-corrupted IDT) and a
   benign hypercall. *)
let activate (tb : Testbed.t) =
  Testbed.tick_all tb;
  let k = tb.Testbed.attacker in
  (* the timer fires on every scheduling round *)
  ignore (Hv.deliver_fault tb.Testbed.hv ~vector:32 ~detail:"timer interrupt");
  ignore (Kernel.write_u64 k (Domain.kernel_vaddr_of_pfn 6) 0xA11CEL);
  ignore (Kernel.read_u64 k (Domain.kernel_vaddr_of_pfn 6));
  ignore (Kernel.read_u64 k 0x0000_00ba_d000_0000L);
  ignore (Kernel.hypercall_rc k (Hypercall.Console_io "campaign tick"));
  Testbed.tick_all tb

(* Non-memory injector hooks, exercised through the catalog's component
   interfaces; hangs are released after observation so trials stay
   independent (a real campaign would reboot). *)
let run_hook (tb : Testbed.t) choice =
  let hv = tb.Testbed.hv in
  let victim = Kernel.dom tb.Testbed.victim in
  match Int64.to_int choice land 3 with
  | 0 ->
      ignore (Sched.hang_vcpu hv.Hv.sched ~dom:victim.Domain.id ~reason:"fuzzed hang");
      `Unhang_after victim.Domain.id
  | 1 ->
      ignore (Event_channel.force_pending_all victim.Domain.events);
      `Nothing
  | 2 ->
      Xenstore.inject_write hv.Hv.xenstore
        (Xenstore.domain_path victim.Domain.id "memory/target")
        "48";
      `Nothing
  | _ ->
      ignore (Hv.exhaust_memory hv ~leave:(Phys_mem.free_frames hv.Hv.mem / 4));
      `Nothing

let run_trial rng index (tb : Testbed.t) ~before target =
  let cache = tb.Testbed.scan_cache in
  let hv = tb.Testbed.hv in
  let addr, value = synthesize rng tb target in
  if target = Component_hooks then begin
    let cleanup = run_hook tb addr in
    activate tb;
    let after = Monitor.snapshot ~cache tb in
    let violations = Monitor.violations ~before ~after in
    (match cleanup with
    | `Unhang_after dom -> ignore (Sched.unhang_vcpu hv.Hv.sched ~dom)
    | `Nothing -> ());
    let crashed = List.exists (function Monitor.Hypervisor_crash _ -> true | _ -> false) violations in
    let outcome =
      if crashed then Crashed else if violations <> [] then Violated else No_effect
    in
    { index; target; t_addr = addr; t_value = value; outcome; t_violations = violations }
  end
  else
  let injected =
    match target with
    | Soft_error_bit_flip ->
        (* an accidental fault: flip one bit directly, no injector *)
        let bit = Int64.to_int (Int64.logand value 63L) in
        let word = Phys_mem.read_u64 hv.Hv.mem addr in
        Phys_mem.write_u64 hv.Hv.mem addr (Int64.logxor word (Int64.shift_left 1L bit));
        Ok ()
    | Component_hooks -> Ok () (* handled above *)
    | Idt_gates | Page_table_entries | M2p_entries | Arbitrary_physical -> (
        match
          Injector.write_u64 tb.Testbed.attacker ~addr
            ~action:Injector.Arbitrary_write_physical value
        with
        | Ok () -> Ok ()
        | Error e -> Error e)
  in
  match injected with
  | Error _ ->
      { index; target; t_addr = addr; t_value = value; outcome = Refused; t_violations = [] }
  | Ok () ->
      activate tb;
      let after = Monitor.snapshot ~cache tb in
      let violations = Monitor.violations ~before ~after in
      let crashed = List.exists (function Monitor.Hypervisor_crash _ -> true | _ -> false) violations in
      let outcome =
        if crashed then Crashed
        else if violations <> [] then Violated
        else if
          (* is the corruption still sitting in live state, or was it
             scrubbed/overwritten during activation? *)
          target <> Soft_error_bit_flip && Phys_mem.read_u64 hv.Hv.mem addr = value
        then State_only
        else No_effect
      in
      { index; target; t_addr = addr; t_value = value; outcome; t_violations = violations }

(* Per-trial PRNG seeding (a splitmix64-style mix of campaign seed and
   trial index): every trial owns an independent random stream, so
   trials can run in any order — or on any worker — and still draw
   exactly the sequential run's numbers. *)
let trial_seed seed index =
  let z = Int64.add seed (Int64.mul (Int64.of_int (index + 1)) 0x9E3779B97F4A7C15L) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Per-worker campaign state: one long-lived testbed, reset between
   trials (O(dirty pages), replacing the boot-per-crash of earlier
   revisions; its scan cache lives as long), and the pristine
   before-snapshot taken once — the state after reset + injector
   install is identical on every trial, so the snapshot is too. *)
type worker = { w_tb : Testbed.t; mutable w_before : Monitor.snapshot option }

let pristine w =
  Testbed.reset w.w_tb;
  Injector.install w.w_tb.Testbed.hv;
  match w.w_before with
  | Some before -> before
  | None ->
      let before = Monitor.snapshot ~cache:w.w_tb.Testbed.scan_cache w.w_tb in
      w.w_before <- Some before;
      before

let make_worker ?(pooled = false) version =
  {
    w_tb = (if pooled then Testbed.create_pooled version else Testbed.create version);
    w_before = None;
  }

(* Coverage-aware trial: when a {!Coverage} collector is attached to the
   worker testbed's trace, clear it at the pristine point — after reset
   and injector install, mirroring Campaign.run's protocol, so pooled
   and freshly-booted workers produce identical per-trial maps — then
   run the trial, feed the violation axis (these trials observe
   host-level violations), and snapshot. Collector-free workers pay
   nothing and get [None]. *)
let run_one_cov w ~seed ~targets index =
  let before = pristine w in
  let cov = Trace.coverage w.w_tb.Testbed.hv.Hv.trace in
  (match cov with Some c -> Coverage.clear c | None -> ());
  let rng = Prng.create ~seed:(trial_seed seed index) in
  let target = Prng.choose rng targets in
  let t = run_trial rng index w.w_tb ~before target in
  let m =
    match cov with
    | None -> None
    | Some c ->
        List.iter
          (fun v -> Coverage.note_violation c ~cls:(Monitor.class_index v) ~domain:"host")
          t.t_violations;
        Some (Coverage.snapshot c)
  in
  (t, m)

let run_one w ~seed ~targets index = fst (run_one_cov w ~seed ~targets index)

let attach_coverage w = Trace.set_coverage w.w_tb.Testbed.hv.Hv.trace (Some (Coverage.create ()))

let tally_of trials_list =
  List.map
    (fun o -> (o, List.length (List.filter (fun t -> t.outcome = o) trials_list)))
    all_outcomes

let run ?(seed = 42L) ?(trials = 60) ?(targets = intrusion_targets) ?workers version =
  if targets = [] then invalid_arg "Random_campaign.run: no targets";
  (* Sharded workers fork from the warm template pool; the sequential
     reference run keeps the historical fresh boot (it pays it once). *)
  let pooled = Shard.worker_count workers > 1 in
  let trials_list =
    Shard.map_init ?workers
      ~init:(fun () -> make_worker ~pooled version)
      (fun w index () -> run_one w ~seed ~targets index)
      (List.init trials (fun _ -> ()))
  in
  { s_version = version; s_seed = seed; s_trials = trials; tally = tally_of trials_list;
    trials = trials_list }

let compare_versions ?seed ?trials ?targets ?workers versions =
  List.map (fun v -> run ?seed ?trials ?targets ?workers v) versions

let render summaries =
  let header =
    "Version" :: List.map outcome_to_string all_outcomes
  in
  let rows =
    List.map
      (fun s ->
        Version.to_string s.s_version
        :: List.map (fun o -> string_of_int (List.assoc o s.tally)) all_outcomes)
      summaries
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Randomized injection campaign (%d trials per version, seed %Ld): outcome tally"
         (match summaries with s :: _ -> s.s_trials | [] -> 0)
         (match summaries with s :: _ -> s.s_seed | [] -> 0L))
    ~header rows
