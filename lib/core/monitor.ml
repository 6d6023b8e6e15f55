type violation =
  | Hypervisor_crash of string
  | Privilege_escalation of string
  | Unauthorized_disclosure of string
  | Integrity_violation of string
  | Guest_crash of string
  | Availability_degradation of string

type snapshot = {
  crashed : bool;
  crash_reason : string option;
  root_artifacts : (string * string) list;
  root_shells : (string * string) list;
  disclosed : string list;
  guest_crashes : string list;
  pending_events : (string * int) list;
  pt_exposure : (string * int) list;
  m2p_mismatches : int;
  domain_pages : (string * int) list;
  sched_stalled : int;
  free_frames : int;
}

(* --- cross-trial scan cache ------------------------------------------
   The cache itself (what it keeps and when a kept result may stand in
   for a fresh audit) lives in [Scan_cache]; every testbed owns one. A
   miss runs exactly the uncached audit, plus recording which frames it
   read when the result may be kept. *)

type scan_cache = Scan_cache.t

let create_scan_cache = Scan_cache.create

(* The M2P must stay the inverse of every domain's P2M — a hypervisor
   invariant any auditing monitor can check from outside the guests. *)
let m2p_mismatch_fresh hv =
  let n = ref 0 in
  List.iter
    (fun dom ->
      Domain.iter_populated dom (fun pfn mfn ->
          if not (Hv.m2p_maps hv mfn pfn) then begin
            (* the verdict depends on the inconsistent M2P entry *)
            let m2p_mfn, off = Hv.m2p_frame_for hv mfn in
            Phys_mem.observe hv.Hv.mem ~consumer:Provenance.M2p_check ~mfn:m2p_mfn ~off ~len:8;
            incr n
          end))
    hv.Hv.domains;
  !n

let m2p_mismatch_count ?cache hv =
  match cache with
  | Some c when Scan_cache.usable c hv ->
      if Scan_cache.m2p_hit c hv then 0
      else
        let n = m2p_mismatch_fresh hv in
        if n = 0 then Scan_cache.record_m2p c hv;
        n
  | Some _ | None -> m2p_mismatch_fresh hv

(* Walk a domain's live page tables exactly like the MMU would, counting
   leaf (and PSE superpage) mappings that grant guest-privilege write
   access to frames currently typed as page tables. The address-space
   layout filter is what lets hardened versions "handle" states that
   older layouts expose. *)
(* [memo] caches subtree counts across the domains of one snapshot,
   keyed by everything the count depends on — table frame, level, VA
   prefix and the accumulated RW permission — so a table mapped into
   several domains at the same slot is scanned once, not per domain.
   Each value carries the frame set of the walk that produced it, so a
   domain that reuses another's subtree also inherits its dependencies
   (a superset of the subtree's: sound for the scan cache). *)
type walk = {
  memo : (int * Addr.mfn * int64 * bool, int * Scan_cache.deps option) Hashtbl.t;
  collect : bool;  (* record the frames each domain's walk reads *)
}

let new_walk ~collect = { memo = Hashtbl.create 64; collect }

let exposure_walk walk hv dom =
  let mem = hv.Hv.mem and pages = hv.Hv.pages in
  let hardened = Hv.hardened hv in
  let typed_pt mfn = Phys_mem.is_valid_mfn mem mfn && Page_info.typed_table pages mfn in
  let guest_writable va = Layout.guest_access ~hardened (Addr.canonical va) = Layout.Read_write in
  let deps = if walk.collect then Some (Hashtbl.create 32) else None in
  let inherited = ref [] in
  let rec scan level table_mfn va_prefix rw =
    if not (Phys_mem.is_valid_mfn mem table_mfn) then 0
    else begin
      (match deps with Some d -> Hashtbl.replace d table_mfn () | None -> ());
      let frame = Phys_mem.frame_ro mem table_mfn in
      let shift = Addr.page_shift + (9 * (level - 1)) in
      (* the VA is only built on the rare paths that read it *)
      let va index = Int64.logor va_prefix (Int64.shift_left (Int64.of_int index) shift) in
      let count = ref 0 in
      let flag index =
        (* a flagged mapping is evidence read out of this entry *)
        Phys_mem.observe mem ~consumer:Provenance.Monitor_scan ~mfn:table_mfn ~off:(8 * index)
          ~len:8;
        incr count
      in
      (* iter_present probes the present bit with byte loads inside
         Frame, so absent entries (most of any table) cost neither an
         int64 decode nor a cross-module call *)
      Frame.iter_present frame (fun index e ->
          let rw = rw && Pte.test Pte.Rw e in
          if level = 1 then begin
            if rw && typed_pt (Pte.mfn e) && guest_writable (va index) then flag index
          end
          else if level = 2 && Pte.test Pte.Pse e then begin
            if rw && guest_writable (va index) then begin
              let base = Pte.mfn e land lnot 0x1ff in
              for m = base to base + 511 do
                if typed_pt m then flag index
              done
            end
          end
          else count := !count + scan_memo (level - 1) (Pte.mfn e) (va index) rw);
      !count
    end
  and scan_memo level table_mfn va_prefix rw =
    let key = (level, table_mfn, va_prefix, rw) in
    match Hashtbl.find_opt walk.memo key with
    | Some (n, producer) ->
        (match (deps, producer) with
        | Some d, Some p when p != d && not (List.memq p !inherited) ->
            inherited := p :: !inherited;
            Hashtbl.iter (fun m () -> Hashtbl.replace d m ()) p
        | _ -> ());
        n
    | None ->
        let n = scan level table_mfn va_prefix rw in
        Hashtbl.add walk.memo key (n, deps);
        n
  in
  let n = scan_memo 4 dom.Domain.l4_mfn 0L true in
  (n, deps)

(* The exposure of each domain, in order: a cache hit stands in for a
   walk that provably finds nothing; misses share one memo. *)
let pt_exposures ?cache hv doms =
  let usable = match cache with Some c -> Scan_cache.usable c hv | None -> false in
  let walk = lazy (new_walk ~collect:usable) in
  List.map
    (fun dom ->
      match cache with
      | Some c when usable && Scan_cache.pt_hit c hv dom -> 0
      | _ -> (
          match (exposure_walk (Lazy.force walk) hv dom, cache) with
          | (0, Some deps), Some c -> Scan_cache.record_pt c hv dom deps; 0
          | (n, _), _ -> n))
    doms

let writable_pt_exposure ?cache hv dom = List.hd (pt_exposures ?cache hv [ dom ])

let root_secrets kernel =
  let fs = Kernel.fs kernel in
  List.filter_map
    (fun path ->
      match Fs.read fs path with
      | Some { Fs.uid = 0; content; _ } when content <> "" -> Some (path, content)
      | Some _ | None -> None)
    (Fs.paths fs)

(* [sub] occurs in [s], compared in place *)
let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec matches_at i j =
    j >= n || (String.unsafe_get s (i + j) = String.unsafe_get sub j && matches_at i (j + 1))
  in
  let rec search i = i + n <= m && (matches_at i 0 || search (i + 1)) in
  n > 0 && search 0

let snapshot ?cache (tb : Testbed.t) =
  let hv = tb.Testbed.hv in
  let kernels = Testbed.kernels tb in
  let secrets = List.map (fun k -> (k, root_secrets k)) kernels in
  let root_artifacts =
    List.concat_map
      (fun (k, files) -> List.map (fun (path, _) -> (Kernel.hostname k, path)) files)
      secrets
  in
  let connections =
    Netsim.connections_to tb.Testbed.net ~host:tb.Testbed.remote_host ~port:1234
  in
  let root_shells =
    List.filter_map
      (fun c -> if c.Netsim.conn_uid = 0 then Some (c.Netsim.from_host, c.Netsim.to_host) else None)
      connections
  in
  (* A secret is disclosed when its content shows up in the transcript
     of a cross-host connection. *)
  let disclosed =
    List.concat_map
      (fun (k, files) ->
        List.filter_map
          (fun (path, content) ->
            let leaked =
              List.exists
                (fun c ->
                  c.Netsim.from_host = Kernel.hostname k
                  && contains (Netsim.transcript c) content)
                connections
            in
            if leaked then Some (Printf.sprintf "%s:%s" (Kernel.hostname k) path) else None)
          files)
      secrets
  in
  let guest_crashes =
    List.filter_map
      (fun k -> if (Kernel.dom k).Domain.dom_crashed then Some (Kernel.hostname k) else None)
      kernels
  in
  let pending_events =
    List.map
      (fun k ->
        ( Kernel.hostname k,
          List.length (Event_channel.pending_ports (Kernel.dom k).Domain.events) ))
      kernels
  in
  let pt_exposure =
    List.map2
      (fun k n -> (Kernel.hostname k, n))
      kernels
      (pt_exposures ?cache hv (List.map Kernel.dom kernels))
  in
  {
    crashed = Hv.is_crashed hv;
    crash_reason = (match hv.Hv.crashed with Some { Hv.reason; _ } -> Some reason | None -> None);
    root_artifacts;
    root_shells;
    disclosed;
    guest_crashes;
    pending_events;
    pt_exposure;
    m2p_mismatches = m2p_mismatch_count ?cache hv;
    domain_pages =
      List.map (fun k -> (Kernel.hostname k, Domain.populated_count (Kernel.dom k))) kernels;
    sched_stalled = Sched.stalled_slices hv.Hv.sched;
    free_frames = Phys_mem.free_frames hv.Hv.mem;
  }

let subtract l before = List.filter (fun x -> not (List.mem x before)) l

(* Every violation, tagged with the domain (hostname) it was observed
   in — [None] for host-level conditions (hypervisor crash, M2P
   divergence, scheduler stalls, memory exhaustion). The tagged list is
   the source of truth; [violations] projects the tags away, so the
   historical ordering is preserved exactly. *)
let violations_tagged ~before ~after =
  let crash =
    if after.crashed && not before.crashed then
      [ (None, Hypervisor_crash (Option.value ~default:"crash" after.crash_reason)) ]
    else []
  in
  let escalations =
    List.map
      (fun (host, path) ->
        (Some host, Privilege_escalation (Printf.sprintf "root file %s on %s" path host)))
      (subtract after.root_artifacts before.root_artifacts)
    @ List.map
        (fun (victim, remote) ->
          (Some victim, Privilege_escalation (Printf.sprintf "root shell from %s to %s" victim remote)))
        (subtract after.root_shells before.root_shells)
  in
  let disclosures =
    List.map
      (fun s ->
        let host = match String.index_opt s ':' with
          | Some i -> Some (String.sub s 0 i)
          | None -> None
        in
        (host, Unauthorized_disclosure s))
      (subtract after.disclosed before.disclosed)
  in
  let guest_crashes =
    List.map (fun h -> (Some h, Guest_crash h)) (subtract after.guest_crashes before.guest_crashes)
  in
  let storms =
    List.filter_map
      (fun (host, n) ->
        match List.assoc_opt host before.pending_events with
        | Some n0 when n - n0 >= 16 ->
            Some
              ( Some host,
                Availability_degradation
                  (Printf.sprintf "interrupt storm on %s (+%d)" host (n - n0)) )
        | Some _ | None -> None)
      after.pending_events
  in
  let integrity =
    List.filter_map
      (fun (host, n) ->
        match List.assoc_opt host before.pt_exposure with
        | Some n0 when n > n0 ->
            Some
              ( Some host,
                Integrity_violation
                  (Printf.sprintf "guest-writable page-table mappings on %s (+%d)" host (n - n0))
              )
        | Some _ | None -> None)
      after.pt_exposure
  in
  let m2p =
    if after.m2p_mismatches > before.m2p_mismatches then
      [
        ( None,
          Integrity_violation
            (Printf.sprintf "M2P/P2M divergence (+%d entries)"
               (after.m2p_mismatches - before.m2p_mismatches)) );
      ]
    else []
  in
  let memory_loss =
    List.filter_map
      (fun (host, n) ->
        match List.assoc_opt host before.domain_pages with
        | Some n0 when n0 - n >= 8 ->
            Some
              ( Some host,
                Availability_degradation
                  (Printf.sprintf "%s lost %d pages to balloon pressure" host (n0 - n)) )
        | Some _ | None -> None)
      after.domain_pages
  in
  let stalls =
    if after.sched_stalled > before.sched_stalled then
      [
        ( None,
          Availability_degradation
            (Printf.sprintf "pCPU stalled for %d scheduler slices" after.sched_stalled) );
      ]
    else []
  in
  let exhaustion =
    if before.free_frames > 0 && after.free_frames * 2 < before.free_frames then
      [
        ( None,
          Availability_degradation
            (Printf.sprintf "host memory exhaustion (%d -> %d free frames)" before.free_frames
               after.free_frames) );
      ]
    else []
  in
  crash @ escalations @ disclosures @ integrity @ m2p @ guest_crashes @ storms @ memory_loss
  @ stalls @ exhaustion

let violations ~before ~after = List.map snd (violations_tagged ~before ~after)

(* Group the tagged list by domain, preserving first-appearance order of
   the domains and the within-domain violation order. Host-level
   violations group under "host". *)
let violations_by_domain ~before ~after =
  let tagged = violations_tagged ~before ~after in
  let key = function Some h -> h | None -> "host" in
  let doms =
    List.fold_left
      (fun acc (tag, _) ->
        let k = key tag in
        if List.mem k acc then acc else k :: acc)
      [] tagged
  in
  List.rev_map
    (fun d -> (d, List.filter_map (fun (tag, v) -> if key tag = d then Some v else None) tagged))
    doms

let violation_to_string = function
  | Hypervisor_crash r -> Printf.sprintf "hypervisor crash (%s)" r
  | Privilege_escalation e -> Printf.sprintf "privilege escalation (%s)" e
  | Unauthorized_disclosure e -> Printf.sprintf "unauthorized disclosure (%s)" e
  | Integrity_violation e -> Printf.sprintf "integrity violation (%s)" e
  | Guest_crash h -> Printf.sprintf "guest crash (%s)" h
  | Availability_degradation e -> Printf.sprintf "availability degradation (%s)" e

let pp_violation ppf v = Format.pp_print_string ppf (violation_to_string v)

let class_of = function
  | Hypervisor_crash _ -> 0
  | Privilege_escalation _ -> 1
  | Unauthorized_disclosure _ -> 2
  | Integrity_violation _ -> 3
  | Guest_crash _ -> 4
  | Availability_degradation _ -> 5

let class_index = class_of

let same_class a b =
  let sig_of l = List.sort compare (List.map class_of l) in
  sig_of a = sig_of b

let class_mask vs =
  List.fold_left (fun acc v -> acc lor (1 lsl class_of v)) 0 vs
