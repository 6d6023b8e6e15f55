(* random-campaign: the §IV-C randomized intrusion-target campaign on
   Xen 4.8 with two guest domains and no instruments.

   The trial stream is cut into batches of [batch] trials; batch [b]
   runs trials [0, batch) under its own campaign seed derived from the
   benchmark seed, so a pass can stop at any batch boundary and two
   passes that ran the same batches must produce the same tallies. *)

module RC = Random_campaign

let version = Version.V4_8
let targets = RC.intrusion_targets
let batch = 2000

let batch_seed seed b =
  Int64.logxor (Int64.mul (Int64.of_int (b + 1)) 0x9E3779B97F4A7C15L) seed

(* Tally slots: the five outcome classes, then trials that raised. *)
let n_slots = List.length RC.all_outcomes + 1
let raised = n_slots - 1

let slot o =
  let rec go i = function
    | [] -> assert false
    | x :: rest -> if x = o then i else go (i + 1) rest
  in
  go 0 RC.all_outcomes

let make_worker () = RC.make_worker ~pooled:true version

type pass = {
  tallies : int array list;  (** per batch, in batch order *)
  trials : int;
  wall_ns : int;
  latencies_us : float array;  (** per trial; empty for the parallel passes *)
}

(* Run [run_batch b] for b = 0, 1, ... until [deadline]; each returns
   its tally. *)
let batches ~deadline run_batch =
  let tallies = ref [] and b = ref 0 in
  let t0 = Spans.now () in
  while Spans.now () < deadline do
    tallies := run_batch !b :: !tallies;
    incr b
  done;
  {
    tallies = List.rev !tallies;
    trials = !b * batch;
    wall_ns = Spans.now () - t0;
    latencies_us = [||];
  }

(* One worker runs whole batches, one [run_one] at a time, until
   [deadline]; each trial's host time is a latency sample. *)
let w1_pass w ~seed ~deadline =
  let lat = ref [] in
  let p =
    batches ~deadline (fun b ->
        let counts = Array.make n_slots 0 in
        let cs = batch_seed seed b in
        for i = 0 to batch - 1 do
          let s = Spans.now () in
          let k =
            match RC.run_one w ~seed:cs ~targets i with
            | t -> slot t.RC.outcome
            | exception _ -> raised
          in
          lat := (float_of_int (Spans.now () - s) /. 1e3) :: !lat;
          counts.(k) <- counts.(k) + 1
        done;
        counts)
  in
  { p with latencies_us = Array.of_list !lat }

(* [workers] domains through the campaign scheduler's streamed path,
   one call per batch, until [deadline]. A batch whose run raises is
   tallied as raised in full. *)
let wn_pass ~workers ~seed ~deadline =
  batches ~deadline (fun b ->
      let counts = Array.make n_slots 0 in
      (match
         Campaign_scheduler.run_streamed ~seed:(batch_seed seed b) ~targets ~workers
           ~trials:batch [ version ]
       with
      | [ s ] -> List.iter (fun (o, n) -> counts.(slot o) <- n) s.Campaign_scheduler.st_tally
      | _ | (exception _) -> counts.(raised) <- batch);
      counts)

(* The traced parallel pass: the same batches, driven through
   [Shard.fold_init] directly so every [run_one] is a span in its
   domain's buffer, and every worker fork a [Fork] span. *)
let wn_traced_pass ~workers ~seed ~deadline ~poll =
  batches ~deadline (fun b ->
      let cs = batch_seed seed b in
      let counts =
        Shard.fold_init ~workers ~n:batch
          ~init:(fun () -> Spans.span Spans.Fork make_worker)
          ~f:(fun w i ->
            Spans.set_trial i;
            match Spans.span Spans.Trial (fun () -> RC.run_one w ~seed:cs ~targets i) with
            | t -> slot t.RC.outcome
            | exception _ -> raised)
          ~merge:(fun counts k ->
            counts.(k) <- counts.(k) + 1;
            counts)
          (Array.make n_slots 0)
      in
      poll ();
      counts)

(* Batches both passes ran must agree; returns the indices that differ. *)
let tally_mismatches a b =
  let rec go i xs ys acc =
    match (xs, ys) with
    | x :: xs, y :: ys -> go (i + 1) xs ys (if x = y then acc else i :: acc)
    | _ -> List.rev acc
  in
  go 0 a.tallies b.tallies []

let raised_trials p = List.fold_left (fun n c -> n + c.(raised)) 0 p.tallies

(* --- the phase replica ---------------------------------------------------

   [Random_campaign] exports [run_one] only, so the traced run times a
   trial's phases by re-running it, after [run_one], on a second pooled
   testbed through the same public calls [run_one] makes — reset,
   injector install, the injection or component hook, the activation
   workload, snapshot and diff — with each call a span. The trial
   record supplies the target, address and value; the replica's
   outcome and violations must equal the trial's, so a replica that
   drifts from [run_one] fails the run rather than timing something
   else. *)

type replica = {
  tb : Testbed.t;
  cache : Monitor.scan_cache;
  before : Monitor.snapshot;
}

let pristine tb =
  Spans.span Spans.Reset (fun () -> Testbed.reset tb);
  Spans.span Spans.Install (fun () -> Injector.install tb.Testbed.hv)

let make_replica () =
  let tb = Testbed.create_pooled version in
  let cache = Monitor.create_scan_cache () in
  pristine tb;
  { tb; cache; before = Monitor.snapshot ~cache tb }

let activate (tb : Testbed.t) =
  Spans.span Spans.Tick_all (fun () -> Testbed.tick_all tb);
  let k = tb.Testbed.attacker in
  ignore (Hv.deliver_fault tb.Testbed.hv ~vector:32 ~detail:"timer interrupt");
  ignore (Kernel.write_u64 k (Domain.kernel_vaddr_of_pfn 6) 0xA11CEL);
  ignore (Kernel.read_u64 k (Domain.kernel_vaddr_of_pfn 6));
  ignore (Kernel.read_u64 k 0x0000_00ba_d000_0000L);
  ignore (Kernel.hypercall_rc k (Hypercall.Console_io "campaign tick"));
  Spans.span Spans.Tick_all (fun () -> Testbed.tick_all tb)

let run_hook (tb : Testbed.t) choice =
  let hv = tb.Testbed.hv in
  let victim = Kernel.dom tb.Testbed.victim in
  match Int64.to_int choice land 3 with
  | 0 ->
      ignore (Sched.hang_vcpu hv.Hv.sched ~dom:victim.Domain.id ~reason:"fuzzed hang");
      Some victim.Domain.id
  | 1 ->
      ignore (Event_channel.force_pending_all victim.Domain.events);
      None
  | 2 ->
      Xenstore.inject_write hv.Hv.xenstore
        (Xenstore.domain_path victim.Domain.id "memory/target")
        "48";
      None
  | _ ->
      ignore (Hv.exhaust_memory hv ~leave:(Phys_mem.free_frames hv.Hv.mem / 4));
      None

(* Whether the replica reproduced the trial, and what the machine did.
   The dirty frames its reset restored and its TLB lookups go to the
   testbed statistics in {!Cells}. *)
type replayed = { agrees : bool; counts : Cells.counts }

let replicate r (t : RC.trial) =
  let hv = r.tb.Testbed.hv in
  Cells.dirty_frames := Phys_mem.dirty_count hv.Hv.mem :: !Cells.dirty_frames;
  Spans.span Spans.Trial (fun () ->
      pristine r.tb;
      let counters = Trace.Counters.snapshot (Trace.counters hv.Hv.trace) in
      let vts = Trace.vts hv.Hv.trace in
      let tlb0 = Cpu.tlb_stats hv.Hv.cpu in
      let observe () =
        let after = Spans.span Spans.Snapshot (fun () -> Monitor.snapshot ~cache:r.cache r.tb) in
        Spans.span Spans.Violations (fun () -> Monitor.violations ~before:r.before ~after)
      in
      let crashed = List.exists (function Monitor.Hypervisor_crash _ -> true | _ -> false) in
      let outcome, violations =
        if t.RC.target = RC.Component_hooks then begin
          let hung = Spans.span Spans.Attempt (fun () -> run_hook r.tb t.RC.t_addr) in
          activate r.tb;
          let vs = observe () in
          Option.iter (fun dom -> ignore (Sched.unhang_vcpu hv.Hv.sched ~dom)) hung;
          ((if crashed vs then RC.Crashed else if vs <> [] then RC.Violated else RC.No_effect), vs)
        end
        else
          match
            Spans.span Spans.Attempt (fun () ->
                Spans.span Spans.Inject_write (fun () ->
                    Injector.write_u64 r.tb.Testbed.attacker ~addr:t.RC.t_addr
                      ~action:Injector.Arbitrary_write_physical t.RC.t_value))
          with
          | Error _ -> (RC.Refused, [])
          | Ok () ->
              activate r.tb;
              let vs = observe () in
              let outcome =
                if crashed vs then RC.Crashed
                else if vs <> [] then RC.Violated
                else if
                  Spans.span Spans.Audit (fun () ->
                      Phys_mem.read_u64 hv.Hv.mem t.RC.t_addr = t.RC.t_value)
                then RC.State_only
                else RC.No_effect
              in
              (outcome, vs)
      in
      let tm =
        Trace.delta ~before:counters ~after:(Trace.Counters.snapshot (Trace.counters hv.Hv.trace))
      in
      Cells.add_tlb ~before:tlb0 (Cpu.tlb_stats hv.Hv.cpu);
      {
        agrees = outcome = t.RC.outcome && violations = t.RC.t_violations;
        counts = Cells.counts_of ~vtime_ns:(Int64.sub (Trace.vts hv.Hv.trace) vts) tm;
      })
