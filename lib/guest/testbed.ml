type t = {
  hv : Hv.t;
  mutable net : Netsim.t;
  mutable dom0 : Kernel.t;
  mutable attacker : Kernel.t;
  mutable victim : Kernel.t;
  mutable extras : Kernel.t list;
  dm : Devmodel.t;
  mutable load : Load_mix.t;
  mutable load_streams : (int * Load_mix.stream) list;
  remote_host : string;
  checkpoint : Hv.checkpoint;
  scan_cache : Scan_cache.t;
}

let guest_kernels t = t.victim :: t.attacker :: t.extras

(* Background-load streams are pure functions of the domain id, re-seeded
   whenever the machine returns to its boot state (create, fork, reset) —
   the determinism contract that keeps loaded testbeds replayable. *)
let reseed_load t =
  t.load_streams <-
    List.map
      (fun k ->
        (Kernel.domid k, Load_mix.stream ~seed:(Load_mix.seed_for_domain (Kernel.domid k))))
      (guest_kernels t)

(* Extra guest domains beyond the paper's attacker/victim pair follow
   the same naming scheme: guest05, guest07, ... *)
let extra_name i = Printf.sprintf "guest%02d" (5 + (2 * i))

let create ?(frames = 2048) ?(dom0_pages = 128) ?(guest_pages = 96) ?(domains = 2)
    ?(load = Load_mix.none) version =
  if domains < 2 then invalid_arg "Testbed.create: need at least victim + attacker";
  let hv = Hv.boot ~version ~frames in
  let net = Netsim.create () in
  Netsim.set_tracer net hv.Hv.trace;
  let dom0 = Builder.create_domain hv ~name:"xen3" ~privileged:true ~pages:dom0_pages in
  let victim = Builder.create_domain hv ~name:"guest01" ~privileged:false ~pages:guest_pages in
  let attacker = Builder.create_domain hv ~name:"guest03" ~privileged:false ~pages:guest_pages in
  let extras =
    List.init (domains - 2) (fun i ->
        Builder.create_domain hv ~name:(extra_name i) ~privileged:false ~pages:guest_pages)
  in
  let t =
    {
      hv;
      net;
      dom0 = Kernel.create hv dom0 net;
      victim = Kernel.create hv victim net;
      attacker = Kernel.create hv attacker net;
      extras = List.map (fun d -> Kernel.create hv d net) extras;
      dm = Devmodel.create hv ~served:victim.Domain.id;
      load;
      load_streams = [];
      remote_host = "xen2";
      checkpoint = Hv.checkpoint hv;
      scan_cache = Scan_cache.create ();
    }
  in
  reseed_load t;
  t

(* Fork a new testbed from [template] without re-running the builder:
   the hypervisor is an {!Hv.fork} (memory shared copy-on-write), and the
   kernels are rebuilt around the forked domains exactly as [reset] does.
   The fork shares the template's checkpoint record — restores only read
   it — so [reset] on a forked testbed works unchanged. *)
let fork ?load template =
  let hv = Hv.fork template.hv template.checkpoint in
  let net = Netsim.create () in
  Netsim.set_tracer net hv.Hv.trace;
  let rebuild stale =
    match Hv.find_domain hv (Kernel.domid stale) with
    | Some dom -> Kernel.create hv dom net
    | None -> invalid_arg "Testbed.fork: template lost a domain"
  in
  let t =
    {
      hv;
      net;
      dom0 = rebuild template.dom0;
      victim = rebuild template.victim;
      attacker = rebuild template.attacker;
      extras = List.map rebuild template.extras;
      (* the device model is process state outside the checkpoint: a
         fork of a pristine template starts with a pristine one *)
      dm = Devmodel.create hv ~served:(Kernel.domid template.victim);
      load = (match load with Some l -> l | None -> template.load);
      load_streams = [];
      remote_host = template.remote_host;
      checkpoint = template.checkpoint;
      (* never the template's: a cache's anchor names a baseline, not
         the hypervisor it was read from *)
      scan_cache = Scan_cache.create ();
    }
  in
  reseed_load t;
  t

(* The warm pool: one frozen template per configuration, built on first
   use and shared by every subsequent [create_pooled] — including forks
   requested concurrently from worker domains, hence the mutex. The load
   mix is runtime-only state (it never touches boot), so templates are
   pooled load-free and each fork installs its own mix. *)
let pool_lock = Mutex.create ()
let pool : (Version.t * int * int * int * int, t) Hashtbl.t = Hashtbl.create 8

let template ~frames ~dom0_pages ~guest_pages ~domains version =
  let key = (version, frames, dom0_pages, guest_pages, domains) in
  Mutex.lock pool_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock pool_lock) @@ fun () ->
  match Hashtbl.find_opt pool key with
  | Some tmpl -> tmpl
  | None ->
      let tmpl = create ~frames ~dom0_pages ~guest_pages ~domains version in
      Phys_mem.freeze tmpl.hv.Hv.mem;
      Hashtbl.replace pool key tmpl;
      tmpl

let create_pooled ?(frames = 2048) ?(dom0_pages = 128) ?(guest_pages = 96) ?(domains = 2)
    ?(load = Load_mix.none) version =
  fork ~load (template ~frames ~dom0_pages ~guest_pages ~domains version)

let reset t =
  Hv.restore t.hv t.checkpoint;
  (* the restore replaced the Domain.t records inside the hypervisor, so
     the kernels (which hold the old records) must be rebuilt around the
     restored ones — by domid, exactly as after [create] *)
  let net = Netsim.create () in
  Netsim.set_tracer net t.hv.Hv.trace;
  let rebuild stale =
    match Hv.find_domain t.hv (Kernel.domid stale) with
    | Some dom -> Kernel.create t.hv dom net
    | None -> invalid_arg "Testbed.reset: checkpoint lost a domain"
  in
  t.net <- net;
  t.dom0 <- rebuild t.dom0;
  t.victim <- rebuild t.victim;
  t.attacker <- rebuild t.attacker;
  t.extras <- List.map rebuild t.extras;
  Devmodel.reset t.dm;
  reseed_load t

let kernels t = t.dom0 :: t.victim :: t.attacker :: t.extras
let domains t = List.length (guest_kernels t)
let domain_names t = List.map Kernel.hostname (guest_kernels t)

let kernel_of t domid =
  List.find_opt (fun k -> Kernel.domid k = domid) (kernels t)

(* One background-load operation, drawn from the domain's stream: a mix
   of guest memory traffic, event-channel round trips and grant-table
   round trips, all through the ordinary instrumented (and vclock-
   charged) paths. Grant refs 48-63 are reserved for load so scenarios
   using low refs never collide. *)
let load_op k rnd =
  match Int64.to_int (Int64.logand rnd 3L) with
  | 0 | 1 -> ignore (Kernel.read_u64 k (Kernel.start_info_vaddr k))
  | 2 -> (
      match
        Kernel.hypercall k (Hypercall.Event_channel_op (Hypercall.Evtchn_bind_virq { virq = 0 }))
      with
      | Ok port ->
          let port = Int64.to_int port in
          ignore
            (Kernel.hypercall k (Hypercall.Event_channel_op (Hypercall.Evtchn_send { port })));
          ignore (Event_channel.consume (Kernel.dom k).Domain.events port);
          ignore
            (Kernel.hypercall k (Hypercall.Event_channel_op (Hypercall.Evtchn_close { port })))
      | Error _ -> ())
  | _ -> (
      let gref = 48 + Int64.to_int (Int64.logand (Int64.shift_right_logical rnd 2) 15L) in
      match
        Kernel.hypercall k
          (Hypercall.Grant_table_op
             (Hypercall.Gnttab_grant_access { gref; grantee = 0; pfn = 3; readonly = true }))
      with
      | Ok _ ->
          ignore
            (Kernel.hypercall k (Hypercall.Grant_table_op (Hypercall.Gnttab_end_access { gref })))
      | Error _ -> ())

let run_load t =
  let n = Load_mix.ops_per_tick t.load in
  if n > 0 then
    List.iter
      (fun k ->
        match List.assoc_opt (Kernel.domid k) t.load_streams with
        | Some st ->
            for _ = 1 to n do
              load_op k (Load_mix.next st)
            done
        | None -> ())
      (guest_kernels t)

(* One scheduling round: every vcpu gets (at most) one slice; a hung
   vcpu pins the pCPU and nobody else runs. Background load and the
   device-model turn run inside the round, so a replayed [Sched_round]
   regenerates them deterministically. *)
let tick_all t =
  let tr = t.hv.Hv.trace in
  if Trace.recording tr && Trace.top_level tr then Trace.emit tr Trace.Sched_round;
  Trace.enter tr;
  Fun.protect ~finally:(fun () -> Trace.leave tr) @@ fun () ->
  for _ = 1 to List.length (kernels t) do
    match Hv.sched_tick t.hv with
    | Sched.Scheduled domid -> (
        match kernel_of t domid with Some k -> Kernel.tick k | None -> ())
    | Sched.Cpu_stalled _ | Sched.Idle -> ()
  done;
  run_load t;
  Devmodel.kick t.dm

let remote_listen t ~port =
  (* the boundary emit happens inside Netsim.listen, where replay also
     goes through *)
  Netsim.listen t.net ~host:t.remote_host ~port
