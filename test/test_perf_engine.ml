(* Tests for the campaign throughput engine: the software TLB must be
   invisible under the architectural invalidation discipline (and
   faithfully stale outside it), O(dirty) testbed reset must be
   observably identical to a fresh boot, the cross-trial monitor scan
   cache must never change a snapshot, and sharded campaigns must be
   byte-identical to sequential ones. *)

open Ii_xen
open Ii_guest
open Ii_core
module All = Ii_exploits.All_exploits

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let attacker_cr3 tb = (Kernel.dom tb.Testbed.attacker).Domain.l4_mfn

(* Locate the L1 entry backing a kernel vaddr so tests can rewrite raw
   PTE bytes the way an exploit would — beneath every software layer. *)
let l1_slot mem ~cr3 va =
  match List.find_opt (fun s -> s.Paging.level = 1) (Paging.walk_path mem ~cr3 va) with
  | Some s -> (s.Paging.table_mfn, s.Paging.index)
  | None -> Alcotest.fail "no L1 entry on the walk path"

(* --- Software TLB --------------------------------------------------------- *)

(* Under the architectural contract — every PTE rewrite followed by
   invlpg, plus arbitrary interleaved flushes — a cached walk must be
   indistinguishable from a fresh one, for any operation sequence. *)
let prop_tlb_transparent_under_invalidation =
  QCheck.Test.make ~name:"tlb: cached walk = fresh walk under invlpg discipline" ~count:20
    QCheck.(list_of_size (Gen.int_range 1 25) (pair (int_bound 89) (int_bound 2)))
    (fun ops ->
      let tb = Testbed.create Version.V4_8 in
      let mem = tb.Testbed.hv.Hv.mem in
      let cr3 = attacker_cr3 tb in
      let tlb = Paging.Tlb.create () in
      List.for_all
        (fun (pfn, op) ->
          let va = Domain.kernel_vaddr_of_pfn pfn in
          (match op with
          | 0 -> () (* plain lookup below *)
          | 1 ->
              (* rewrite the PTE (toggle RW) and invalidate, as a
                 well-behaved kernel would *)
              let table_mfn, index = l1_slot mem ~cr3 va in
              let frame = Phys_mem.frame mem table_mfn in
              let e = Frame.get_entry frame index in
              let e' = if Pte.test Pte.Rw e then Pte.clear Pte.Rw e else Pte.set Pte.Rw e in
              Frame.set_entry frame index e';
              Paging.Tlb.invlpg tlb ~cr3 va
          | _ -> Paging.Tlb.flush_all tlb);
          Paging.walk_cached tlb mem ~cr3 va = Paging.walk mem ~cr3 va
          && Paging.translate_cached tlb mem ~cr3 ~kind:Paging.Write ~user:false va
             = Paging.translate mem ~cr3 ~kind:Paging.Write ~user:false va)
        ops)

(* The other half of faithfulness: a raw PTE rewrite *without* invlpg
   must keep serving the stale translation — the window real XSA
   exploits race — until an explicit flush. *)
let test_stale_tlb_without_invlpg () =
  let tb = Testbed.create Version.V4_8 in
  let mem = tb.Testbed.hv.Hv.mem in
  let cr3 = attacker_cr3 tb in
  let va = Domain.kernel_vaddr_of_pfn 5 in
  let tlb = Paging.Tlb.create () in
  let cached_before = Paging.walk_cached tlb mem ~cr3 va in
  let table_mfn, index = l1_slot mem ~cr3 va in
  let frame = Phys_mem.frame mem table_mfn in
  let old = Frame.get_entry frame index in
  let mfn6 =
    match Domain.mfn_of_pfn (Kernel.dom tb.Testbed.attacker) 6 with
    | Some m -> m
    | None -> Alcotest.fail "pfn 6 unpopulated"
  in
  Frame.set_entry frame index (Pte.make ~mfn:mfn6 ~flags:(Pte.flags old));
  let fresh = Paging.walk mem ~cr3 va in
  check_bool "fresh walk sees the rewrite" true (fresh <> cached_before);
  check_bool "cached walk is stale" true (Paging.walk_cached tlb mem ~cr3 va = cached_before);
  Paging.Tlb.flush_all tlb;
  check_bool "flush restores agreement" true (Paging.walk_cached tlb mem ~cr3 va = fresh)

(* Testbed.reset recycles frames (generation bump), so even a TLB that
   saw pre-reset state must agree with fresh walks afterwards with no
   explicit flush. *)
let test_tlb_survives_reset () =
  let tb = Testbed.create Version.V4_8 in
  let mem = tb.Testbed.hv.Hv.mem in
  let cr3 = attacker_cr3 tb in
  let tlb = Paging.Tlb.create () in
  let vas = List.init 8 (fun i -> Domain.kernel_vaddr_of_pfn (3 * i)) in
  List.iter (fun va -> ignore (Paging.walk_cached tlb mem ~cr3 va)) vas;
  Testbed.reset tb;
  let cr3' = attacker_cr3 tb in
  List.iter
    (fun va ->
      check_bool "post-reset agreement" true
        (Paging.walk_cached tlb mem ~cr3:cr3' va = Paging.walk mem ~cr3:cr3' va))
    vas

(* --- Reset = create ------------------------------------------------------- *)

(* The contract on Testbed.reset: a reset testbed is observably
   equivalent to a freshly created one. Campaign.run with a reused
   testbed must therefore return the exact row a full boot returns, for
   every use case and both modes. *)
let test_reset_equals_create_campaign () =
  let tb = Testbed.create Version.V4_6 in
  List.iter
    (fun uc ->
      List.iter
        (fun mode ->
          let fresh = Campaign.run uc mode Version.V4_6 in
          let reused = Campaign.run ~tb uc mode Version.V4_6 in
          check_bool (uc.Campaign.uc_name ^ "/" ^ Campaign.mode_to_string mode) true
            (fresh = reused))
        [ Campaign.Real_exploit; Campaign.Injection ])
    All.use_cases

let test_reset_equals_create_snapshot () =
  let pristine = Monitor.snapshot (Testbed.create Version.V4_8) in
  let tb = Testbed.create Version.V4_8 in
  let hv = tb.Testbed.hv in
  Injector.install hv;
  ignore
    (Injector.write_u64 tb.Testbed.attacker ~addr:0x9000L
       ~action:Injector.Arbitrary_write_physical 0xBEEFL);
  Testbed.reset tb;
  check_bool "snapshot of reset testbed = snapshot of fresh testbed" true
    (Monitor.snapshot tb = pristine)

(* --- Monitor scan cache --------------------------------------------------- *)

(* The cache's one guarantee: passing it never changes a snapshot. Hit
   it with randomized physical-memory corruption and resets — exactly
   the traffic a randomized campaign generates. *)
let prop_scan_cache_transparent =
  QCheck.Test.make ~name:"monitor: snapshot with cache = snapshot without" ~count:10
    QCheck.(list_of_size (Gen.int_range 1 8) (pair (int_bound 0x1F_FFF8) small_int))
    (fun writes ->
      let tb = Testbed.create Version.V4_8 in
      let cache = Monitor.create_scan_cache () in
      List.for_all
        (fun (off, v) ->
          (* align to the u64 containment contract; a straddling write
             raises Bad_maddr, which is Phys_mem's business, not the
             cache's *)
          let off = off land lnot 7 in
          Phys_mem.write_u64 tb.Testbed.hv.Hv.mem (Int64.of_int off) (Int64.of_int v);
          let agree = Monitor.snapshot ~cache tb = Monitor.snapshot tb in
          if v mod 3 = 0 then Testbed.reset tb;
          agree && Monitor.snapshot ~cache tb = Monitor.snapshot tb)
        writes)

(* --- Warm pools and COW forks --------------------------------------------- *)

(* The contract on Testbed.create_pooled: a COW fork of the frozen
   template is observably equivalent to a fresh boot. Every use case,
   both modes, must return the exact row a full build returns. *)
let test_pooled_equals_fresh_campaign () =
  let tb = Testbed.create_pooled Version.V4_6 in
  List.iter
    (fun uc ->
      List.iter
        (fun mode ->
          let fresh = Campaign.run uc mode Version.V4_6 in
          let pooled = Campaign.run ~tb uc mode Version.V4_6 in
          check_bool (uc.Campaign.uc_name ^ "/" ^ Campaign.mode_to_string mode ^ " pooled") true
            (fresh = pooled))
        [ Campaign.Real_exploit; Campaign.Injection ])
    All.use_cases

(* The same contract with extra domains and background load live: the
   pool keys on the domain count, the template stays load-free, and the
   fork installs its own per-domain streams — so a loaded four-domain
   fork must return the exact row a loaded four-domain fresh boot
   returns, per-domain violation rows included. *)
let test_pooled_equals_fresh_multidomain () =
  let load = Ii_trace.Load_mix.default in
  let tb = Testbed.create_pooled ~domains:4 ~load Version.V4_6 in
  List.iter
    (fun uc ->
      List.iter
        (fun mode ->
          let fresh = Campaign.run ~domains:4 ~load uc mode Version.V4_6 in
          let pooled = Campaign.run ~tb uc mode Version.V4_6 in
          check_bool
            (uc.Campaign.uc_name ^ "/" ^ Campaign.mode_to_string mode
           ^ " multi-domain pooled")
            true (fresh = pooled))
        [ Campaign.Real_exploit; Campaign.Injection ])
    All.use_cases

let test_pooled_equals_fresh_kvm () =
  let module BK = Ii_backends.Backend_kvm in
  let module KC = Ii_backends.Backends.Kvm_campaign in
  let tb = BK.create_pooled BK.Stock in
  List.iter
    (fun uc ->
      List.iter
        (fun mode ->
          let fresh = KC.run uc mode BK.Stock in
          let pooled = KC.run ~tb uc mode BK.Stock in
          check_bool (uc.KC.uc_name ^ "/" ^ Campaign.mode_to_string mode ^ " kvm pooled") true
            (fresh = pooled))
        [ Campaign.Real_exploit; Campaign.Injection ])
    Ii_backends.Kvm_use_cases.use_cases

(* Out-of-band observers on a forked testbed: interleaved monitor scans
   (through the scan cache, whose anchoring rides the baseline epoch the
   fork inherits) must not change the row, and the row must still equal
   the fresh-boot one. *)
let test_pooled_interleaved_scans () =
  let uc = Option.get (All.find "XSA-148-priv") in
  let row_with tb =
    let cache = Monitor.create_scan_cache () in
    Campaign.run ~tb
      ~observer:(fun tb -> ignore (Monitor.snapshot ~cache tb))
      uc Campaign.Injection Version.V4_6
  in
  let fresh = row_with (Testbed.create Version.V4_6) in
  let pooled = row_with (Testbed.create_pooled Version.V4_6) in
  check_bool "interleaved scans: pooled = fresh" true (fresh = pooled)

(* The provenance shadow attaches to a fork exactly as to a fresh boot:
   same causal graph, same taint. *)
let test_pooled_provenance () =
  let uc = Option.get (All.find "XSA-182-test") in
  let stats tb =
    Substrate_xen.enable_provenance tb;
    ignore (Campaign.run ~tb uc Campaign.Injection Version.V4_6);
    let p = Option.get (Substrate_xen.provenance tb) in
    (Ii_trace.Provenance.edge_count p, Ii_trace.Provenance.tainted_bytes p)
  in
  let fresh = stats (Testbed.create Version.V4_6) in
  let pooled = stats (Testbed.create_pooled Version.V4_6) in
  check_bool "provenance on fork = on fresh boot" true (fresh = pooled)

(* Scan-cache anchoring survives the fork: the cache keys on
   (baseline epoch, page-info generation), both of which the fork
   copies, so passing a cache never changes a snapshot — across
   corruption and resets. *)
let test_fork_scan_cache_anchoring () =
  let tb = Testbed.create_pooled Version.V4_8 in
  let cache = Monitor.create_scan_cache () in
  let agree () = Monitor.snapshot ~cache tb = Monitor.snapshot tb in
  check_bool "initial agreement" true (agree ());
  Phys_mem.write_u64 tb.Testbed.hv.Hv.mem 0x9000L 0xBEEFL;
  check_bool "after corruption" true (agree ());
  Testbed.reset tb;
  check_bool "after reset" true (agree ())

let test_fork_template_isolation () =
  let t = Phys_mem.create ~frames:8 in
  Phys_mem.capture_baseline t;
  Phys_mem.freeze t;
  let f = Phys_mem.fork t in
  check_int "all frames shared at birth" 8 (Phys_mem.shared_frames f);
  Phys_mem.write_u64 f 0x1008L 0xDEADL;
  check_int "first write unshares its frame" 7 (Phys_mem.shared_frames f);
  check_bool "fork sees its write" true (Phys_mem.read_u64 f 0x1008L = 0xDEADL);
  check_bool "template untouched" true (Phys_mem.read_u64 t 0x1008L = 0L);
  ignore (Phys_mem.reset_to_baseline f : int);
  check_bool "fork resets to template state" true (Phys_mem.read_u64 f 0x1008L = 0L);
  (* a sibling fork never sees the other's divergence *)
  let g = Phys_mem.fork t in
  check_bool "sibling fork pristine" true (Phys_mem.read_u64 g 0x1008L = 0L)

let test_frozen_template_immutable () =
  let t = Phys_mem.create ~frames:4 in
  Phys_mem.capture_baseline t;
  Phys_mem.freeze t;
  check_bool "frozen template rejects writes" true
    (match Phys_mem.write_u64 t 0L 1L with
    | exception Invalid_argument _ -> true
    | () -> false);
  check_bool "fork requires a frozen template" true
    (match Phys_mem.fork (Phys_mem.create ~frames:4) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Shared zero page -------------------------------------------------------- *)

(* A fresh memory is a fork of "all zeroes": every frame aliases one
   read-only zero page until its first content write. [frame_ro] on a
   still-shared frame of any fresh memory hands back that very page. *)
let zero_page () = Phys_mem.frame_ro (Phys_mem.create ~frames:1) 0

let check_zero_page_intact what =
  let z = zero_page () in
  check_bool (what ^ ": one page shared by every fresh memory") true (z == zero_page ());
  check_bool (what ^ ": zero page hashes as an all-zero page") true
    (Frame.fnv64 z = Frame.fnv64 (Frame.create ()))

let test_fresh_memory_shares_every_frame () =
  let mem = Phys_mem.create ~frames:64 in
  check_int "every frame shared at birth" 64 (Phys_mem.shared_frames mem);
  check_bool "frames alias the zero page" true (Phys_mem.frame_ro mem 17 == zero_page ());
  Phys_mem.write_u64 mem 0x3008L 0xFEEDL;
  check_int "first content write unshares exactly one frame" 63 (Phys_mem.shared_frames mem);
  Phys_mem.write_u64 mem 0x3010L 0xBEEFL;
  check_int "a second write to that frame unshares nothing" 63 (Phys_mem.shared_frames mem);
  check_bool "the write landed" true (Phys_mem.read_u64 mem 0x3008L = 0xFEEDL);
  check_bool "its neighbour still reads zero" true (Phys_mem.read_u64 mem 0x4008L = 0L);
  check_zero_page_intact "after a content write"

let test_alloc_free_never_write_shared () =
  (* fresh memory: allocating and freeing never-written frames keeps
     them on the zero page *)
  let mem = Phys_mem.create ~frames:16 in
  let ms = Phys_mem.alloc_many mem Phys_mem.Xen 5 in
  check_int "alloc keeps known-zero frames shared" 16 (Phys_mem.shared_frames mem);
  List.iter (Phys_mem.free mem) ms;
  check_int "free keeps known-zero frames shared" 16 (Phys_mem.shared_frames mem);
  check_zero_page_intact "after alloc/free";
  (* fork: freeing and re-allocating a frame whose shared template
     page holds data swaps in a private zero frame *)
  let t = Phys_mem.create ~frames:4 in
  let m = Phys_mem.alloc t Phys_mem.Xen in
  Phys_mem.write_u64 t (Addr.maddr_of_mfn m) 0xC0FFEEL;
  Phys_mem.capture_baseline t;
  Phys_mem.freeze t;
  let f = Phys_mem.fork t in
  Phys_mem.free f m;
  check_int "free detaches the data frame" 3 (Phys_mem.shared_frames f);
  check_bool "the fork's frame is scrubbed" true (Phys_mem.read_u64 f (Addr.maddr_of_mfn m) = 0L);
  check_bool "the template keeps its data" true
    (Phys_mem.read_u64 t (Addr.maddr_of_mfn m) = 0xC0FFEEL);
  check_int "re-alloc hands back the scrubbed frame" m (Phys_mem.alloc f Phys_mem.Xen);
  ignore (Phys_mem.reset_to_baseline f : int);
  check_bool "reset restores the template data" true
    (Phys_mem.read_u64 f (Addr.maddr_of_mfn m) = 0xC0FFEEL);
  check_bool "template still intact" true
    (Phys_mem.read_u64 t (Addr.maddr_of_mfn m) = 0xC0FFEEL);
  check_zero_page_intact "after fork alloc/free"

(* Resetting a fresh memory to its birth baseline is observably a new
   [create]: same owners, free count and bytes in every frame — over
   several trials, so recycled pre-image buffers are exercised too. *)
let test_reset_equals_create_memory () =
  let frames = 32 in
  let observe mem =
    ( Phys_mem.free_frames mem,
      List.init frames (fun i -> (Phys_mem.owner mem i, Phys_mem.frame_hash mem i)) )
  in
  let pristine = observe (Phys_mem.create ~frames) in
  let mem = Phys_mem.create ~frames in
  Phys_mem.capture_baseline mem;
  for trial = 1 to 3 do
    let a = Phys_mem.alloc mem Phys_mem.Xen in
    let b = Phys_mem.alloc mem (Phys_mem.Dom trial) in
    Phys_mem.write_u64 mem (Addr.maddr_of_mfn a) (Int64.of_int trial);
    Phys_mem.write_string mem (Int64.add (Addr.maddr_of_mfn b) 100L) "payload";
    Phys_mem.write_u8 mem (Addr.maddr_of_mfn (20 + trial)) 0xff;
    Phys_mem.free mem a;
    ignore (Phys_mem.reset_to_baseline mem : int);
    check_bool (Printf.sprintf "trial %d: reset = create" trial) true (observe mem = pristine)
  done;
  check_zero_page_intact "after resets"

(* Every use case, both modes, on fresh and pooled testbeds of both
   backends, with provenance and coverage attached (and replayed on
   fresh boots): none of it may write into the shared zero page. *)
let test_zero_page_survives_use_cases () =
  let module BK = Ii_backends.Backend_kvm in
  let module KB = Ii_backends.Backends in
  let modes = [ Campaign.Real_exploit; Campaign.Injection ] in
  let attach_coverage trace =
    Ii_trace.Trace.set_coverage trace (Some (Ii_trace.Coverage.create ()))
  in
  let xen_pool = Testbed.create_pooled Version.V4_6 in
  Substrate_xen.enable_provenance xen_pool;
  attach_coverage xen_pool.Testbed.hv.Hv.trace;
  List.iter
    (fun uc ->
      List.iter
        (fun mode ->
          let r = Trace_driver.record ~provenance:true ~coverage:true uc mode Version.V4_6 in
          ignore (Trace_driver.replay r : Trace_driver.replay_outcome);
          ignore (Campaign.run ~tb:xen_pool uc mode Version.V4_6 : Campaign.result_row))
        modes)
    All.use_cases;
  let kvm_pool = BK.create_pooled BK.Stock in
  BK.enable_provenance kvm_pool;
  attach_coverage (BK.trace kvm_pool);
  List.iter
    (fun uc ->
      List.iter
        (fun mode ->
          let r = KB.Kvm_trace.record ~provenance:true ~coverage:true uc mode BK.Stock in
          ignore (KB.Kvm_trace.replay r : KB.Kvm_trace.replay_outcome);
          ignore (KB.Kvm_campaign.run ~tb:kvm_pool uc mode BK.Stock : KB.Kvm_campaign.result_row))
        modes)
    Ii_backends.Kvm_use_cases.use_cases;
  check_zero_page_intact "after every use case"

(* --- Batching scheduler ---------------------------------------------------- *)

(* The flattened versions x trials queue must regroup into summaries
   byte-identical to running each version's campaign on its own,
   whatever the worker count; the streaming variant must agree on the
   tallies it keeps. *)
let test_scheduler_matches_per_version () =
  let versions = [ Version.V4_6; Version.V4_8 ] in
  let seq = List.map (Random_campaign.run ~seed:7L ~trials:10) versions in
  check_bool "scheduler w1 = per-version runs" true
    (Campaign_scheduler.run ~seed:7L ~trials:10 ~workers:1 versions = seq);
  check_bool "scheduler w3 = per-version runs" true
    (Campaign_scheduler.run ~seed:7L ~trials:10 ~workers:3 versions = seq);
  let streamed = Campaign_scheduler.run_streamed ~seed:7L ~trials:10 ~workers:3 versions in
  check_bool "streamed tallies = materialized tallies" true
    (List.for_all2
       (fun (s : Random_campaign.summary) t ->
         s.Random_campaign.tally = t.Campaign_scheduler.st_tally)
       seq streamed)

(* --- Shard engine ---------------------------------------------------------- *)

exception Boom of int

let test_shard_exception_propagation () =
  match
    Shard.map_init ~workers:2
      ~init:(fun () -> ())
      (fun () i () -> if i = 5 then raise (Boom i) else i)
      (List.init 32 (fun _ -> ()))
  with
  | _ -> Alcotest.fail "worker exception was swallowed"
  | exception Boom 5 -> ()

let test_shard_fold_sum () =
  let sum w =
    Shard.fold_init ~workers:w ~n:1000 ~init:(fun () -> ()) ~f:(fun () i -> i) ~merge:( + ) 0
  in
  check_int "sequential fold" (999 * 1000 / 2) (sum 1);
  check_int "3-worker fold agrees" (sum 1) (sum 3)

let test_workers_of_string () =
  check_bool "auto resolves within [1,8]" true
    (match Shard.workers_of_string "auto" with Ok n -> n >= 1 && n <= 8 | Error _ -> false);
  check_bool "literal count" true (Shard.workers_of_string "3" = Ok 3);
  check_bool "zero rejected" true (Result.is_error (Shard.workers_of_string "0"));
  check_bool "negative rejected" true (Result.is_error (Shard.workers_of_string "-4"));
  check_bool "junk rejected" true (Result.is_error (Shard.workers_of_string "lots"));
  check_bool "empty rejected" true (Result.is_error (Shard.workers_of_string ""));
  check_bool "float rejected" true (Result.is_error (Shard.workers_of_string "2.5"));
  check_bool "whitespace rejected" true (Result.is_error (Shard.workers_of_string " 3"));
  (* every rejection names the flag the string came from *)
  List.iter
    (fun s ->
      match Shard.workers_of_string s with
      | Ok _ -> Alcotest.failf "%S unexpectedly accepted" s
      | Error msg ->
          check_bool
            (Printf.sprintf "error for %S names --workers" s)
            true
            (String.length msg >= 9 && String.sub msg 0 9 = "--workers"))
    [ "0"; "-1"; "junk"; "" ]

(* --- Sharding determinism ------------------------------------------------- *)

let test_random_campaign_shard_identical () =
  let seq = Random_campaign.run ~seed:7L ~trials:30 Version.V4_8 in
  let sharded = Random_campaign.run ~seed:7L ~trials:30 ~workers:3 Version.V4_8 in
  check_bool "sequential = 3-worker summary" true (seq = sharded)

let test_run_matrix_shard_identical () =
  let seq = Campaign.run_matrix All.use_cases ~versions:[ Version.V4_6 ] ~modes:[ Campaign.Injection ] in
  let sharded =
    Campaign.run_matrix ~workers:2 All.use_cases ~versions:[ Version.V4_6 ]
      ~modes:[ Campaign.Injection ]
  in
  check_bool "sequential = 2-worker matrix" true (seq = sharded)

(* --- Phys_mem allocator --------------------------------------------------- *)

let test_alloc_lowest_free () =
  let mem = Phys_mem.create ~frames:16 in
  let a = Phys_mem.alloc mem Phys_mem.Xen in
  let b = Phys_mem.alloc mem Phys_mem.Xen in
  let c = Phys_mem.alloc mem (Phys_mem.Dom 1) in
  check_int "first" 0 a;
  check_int "second" 1 b;
  check_int "third" 2 c;
  Phys_mem.free mem b;
  check_int "freed slot is reused first" b (Phys_mem.alloc mem Phys_mem.Xen)

let test_alloc_zeroed_after_dirty_free () =
  let mem = Phys_mem.create ~frames:8 in
  let m = Phys_mem.alloc mem Phys_mem.Xen in
  Frame.set_u64 (Phys_mem.frame mem m) 0 0xDEAD_BEEFL;
  Phys_mem.free mem m;
  let m' = Phys_mem.alloc mem (Phys_mem.Dom 3) in
  check_int "same frame" m m';
  check_bool "scrubbed on reallocation" true
    (Frame.to_bytes (Phys_mem.frame_ro mem m') = Bytes.make 4096 '\000')

let test_free_frames_counter () =
  let mem = Phys_mem.create ~frames:12 in
  check_int "all free" 12 (Phys_mem.free_frames mem);
  let ms = Phys_mem.alloc_many mem Phys_mem.Xen 5 in
  check_int "after alloc_many" 7 (Phys_mem.free_frames mem);
  List.iter (Phys_mem.free mem) ms;
  check_int "after freeing" 12 (Phys_mem.free_frames mem)

(* --- Page_info generation and checkpointing ------------------------------- *)

let test_page_info_generation () =
  let pages = Page_info.create ~frames:8 in
  let g0 = Page_info.generation pages in
  Page_info.get_page pages 3;
  check_int "plain refcounting does not move the generation" g0 (Page_info.generation pages);
  (match Page_info.get_page_type pages 3 Page_info.PGT_l1 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "typing a fresh frame");
  check_bool "typing bumps the generation" true (Page_info.generation pages > g0)

let test_page_info_checkpoint_restore () =
  let pages = Page_info.create ~frames:8 in
  let ck = Page_info.checkpoint pages in
  let g0 = Page_info.generation pages in
  (match Page_info.get_page_type pages 2 Page_info.PGT_l2 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "typing a fresh frame");
  Page_info.touch pages 5;
  (Page_info.get pages 5).Page_info.ptype <- Page_info.PGT_seg;
  Page_info.restore pages ck;
  check_bool "type rolled back" true ((Page_info.get pages 2).Page_info.ptype = Page_info.PGT_none);
  check_int "type count rolled back" 0 (Page_info.get pages 2).Page_info.type_count;
  check_bool "out-of-band write rolled back" true
    ((Page_info.get pages 5).Page_info.ptype = Page_info.PGT_none);
  check_int "generation rolled back" g0 (Page_info.generation pages);
  check_bool "counts consistent" true (Page_info.counts_consistent pages)

let () =
  Alcotest.run "perf_engine"
    [
      ( "tlb",
        [
          Alcotest.test_case "stale without invlpg" `Quick test_stale_tlb_without_invlpg;
          Alcotest.test_case "coherent across reset" `Quick test_tlb_survives_reset;
        ]
        @ qsuite [ prop_tlb_transparent_under_invalidation ] );
      ( "reset",
        [
          Alcotest.test_case "campaign rows: reset = create" `Quick
            test_reset_equals_create_campaign;
          Alcotest.test_case "snapshots: reset = create" `Quick test_reset_equals_create_snapshot;
        ] );
      ("scan_cache", qsuite [ prop_scan_cache_transparent ]);
      ( "pool",
        [
          Alcotest.test_case "campaign rows: pooled = fresh (xen)" `Quick
            test_pooled_equals_fresh_campaign;
          Alcotest.test_case "campaign rows: pooled = fresh (kvm)" `Quick
            test_pooled_equals_fresh_kvm;
          Alcotest.test_case "campaign rows: pooled = fresh (4 domains, loaded)" `Quick
            test_pooled_equals_fresh_multidomain;
          Alcotest.test_case "interleaved scans on a fork" `Quick test_pooled_interleaved_scans;
          Alcotest.test_case "provenance on a fork" `Quick test_pooled_provenance;
          Alcotest.test_case "scan-cache anchoring on a fork" `Quick
            test_fork_scan_cache_anchoring;
        ] );
      ( "cow_fork",
        [
          Alcotest.test_case "template isolation" `Quick test_fork_template_isolation;
          Alcotest.test_case "frozen template immutable" `Quick test_frozen_template_immutable;
        ] );
      ( "zero_page",
        [
          Alcotest.test_case "fresh memory shares every frame" `Quick
            test_fresh_memory_shares_every_frame;
          Alcotest.test_case "alloc/free never write shared frames" `Quick
            test_alloc_free_never_write_shared;
          Alcotest.test_case "reset = create" `Quick test_reset_equals_create_memory;
          Alcotest.test_case "intact after every use case" `Quick
            test_zero_page_survives_use_cases;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "flattened queue = per-version runs" `Quick
            test_scheduler_matches_per_version;
        ] );
      ( "shard",
        [
          Alcotest.test_case "exception propagation" `Quick test_shard_exception_propagation;
          Alcotest.test_case "streaming fold" `Quick test_shard_fold_sum;
          Alcotest.test_case "workers_of_string" `Quick test_workers_of_string;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "random campaign" `Quick test_random_campaign_shard_identical;
          Alcotest.test_case "run_matrix" `Quick test_run_matrix_shard_identical;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "lowest free first" `Quick test_alloc_lowest_free;
          Alcotest.test_case "zeroed after dirty free" `Quick test_alloc_zeroed_after_dirty_free;
          Alcotest.test_case "free counter" `Quick test_free_frames_counter;
        ] );
      ( "page_info",
        [
          Alcotest.test_case "generation" `Quick test_page_info_generation;
          Alcotest.test_case "checkpoint/restore" `Quick test_page_info_checkpoint_restore;
        ] );
    ]
