(** The 4-level page walker.

    The walker decodes page-table bytes exactly as the MMU would: it
    never consults hypervisor bookkeeping, so a forged entry written by
    an exploit (or by the intrusion injector) translates just like a
    legitimate one. *)

type access_kind = Read | Write | Exec

type fault_reason =
  | Not_present of int  (** walk stopped at this level (4..1) *)
  | Write_to_readonly
  | User_access_to_supervisor
  | Nx_violation
  | Non_canonical
  | Layout_denied of Layout.region
      (** guest-privilege access into a region the hypervisor keeps
          unreachable (models the hardened address space) *)
  | Bad_physical of Addr.mfn
      (** the walk reached a present leaf whose frame lies outside
          installed RAM — a forged PTE; real hardware aborts the bus
          access, so the walk faults instead of the simulator *)

type fault = { fault_vaddr : Addr.vaddr; fault_kind : access_kind; reason : fault_reason }

type step = {
  level : int;  (** 4..1 *)
  table_mfn : Addr.mfn;  (** page-table page holding the entry *)
  index : int;  (** entry index within the table *)
  entry : Pte.t;
}

type translation = {
  t_maddr : Addr.maddr;
  writable : bool;  (** AND of RW along the path *)
  user : bool;  (** AND of US along the path *)
  executable : bool;
  superpage : bool;  (** terminated by a PSE entry at L2 *)
  path : step list;  (** outermost (L4) first *)
}

val walk :
  Phys_mem.t -> cr3:Addr.mfn -> Addr.vaddr -> (translation, fault_reason) result
(** Pure translation: decode entries from physical memory, no permission
    check beyond presence. An L2 entry with [Pse] terminates the walk as
    a 2 MiB superpage whose base frame is the entry's MFN rounded down to
    a 512-frame boundary (hardware alignment). *)

val walk_path : Phys_mem.t -> cr3:Addr.mfn -> Addr.vaddr -> step list
(** The steps actually decoded, even when the walk faults — the audit
    primitive used to certify injected erroneous states. *)

val translate :
  Phys_mem.t ->
  cr3:Addr.mfn ->
  kind:access_kind ->
  user:bool ->
  Addr.vaddr ->
  (translation, fault) result
(** Full check: canonicality, walk, then RW/US/NX permissions. [user]
    selects guest-privilege semantics. *)

val pp_fault : Format.formatter -> fault -> unit
val pp_fault_reason : Format.formatter -> fault_reason -> unit

(** {1 The allocation-free walker}

    {!walk} conses a {!step} per level and boxes every entry. Callers
    that need only the machine address use {!walk_code}: it reads the
    same entries, calls {!Phys_mem.observe} for the same bytes in the
    same order (so provenance graphs do not move), and packs the
    outcome into one immediate int, a {e walk code}, read with {!Code}.
    It allocates nothing. The TLB's miss path and the KVM EPT walk
    ([Nested.ept_translate]) use it; {!walk} and {!walk_path}, which
    build the path, stay the reference. *)

val walk_code : Phys_mem.t -> cr3:Addr.mfn -> Addr.vaddr -> int
(** [walk mem ~cr3 va], encoded: on success the frame and permission
    bits of the result, on a fault the same [Not_present level] or
    [Bad_physical mfn] (a superpage's included) — and, either way, the
    number of levels read, which is the length of {!walk_path}. *)

module Code : sig
  (** Reading a walk code. A success is the page-aligned machine address
      of the translated 4 KiB page (inside a superpage, the page [va]
      falls in) OR'd with four permission bits; a fault is negative. *)

  val is_ok : int -> bool

  val page : int -> int
  (** Machine address of the translated page (success only). *)

  val writable : int -> bool
  val user : int -> bool
  val executable : int -> bool
  val superpage : int -> bool

  val steps : int -> int
  (** Levels the walk read (= [List.length (walk_path mem ~cr3 va)]). *)

  val fault_reason : int -> fault_reason
  (** The fault behind a negative code (from {!walk_code} or
      {!resolve_cached}). *)
end

(** {1 Software TLB}

    A walk cache keyed by [(cr3, virtual page number)], mirroring what
    the hardware TLB keeps per address space. The model is faithful in
    both directions: a hit returns exactly what a fresh walk would (and
    auto-invalidates when {!Phys_mem.generation} moves, i.e. when frames
    are recycled), while a PTE rewritten {e without} the architectural
    invalidation ([invlpg] / CR3 reload) keeps serving the stale
    translation — real XSA exploits interact with exactly that window.

    The key packs [cr3] above bits 12..47 of the canonical address into
    one int, so [cr3] must be below 2{^26} (far above any installed
    frame count); caching a translation under a larger [cr3] raises
    [Invalid_argument]. Entries live in an open-addressing int table
    that starts empty and grows on demand, so {!Tlb.create} allocates
    only a small record. A hit allocates nothing; a miss allocates
    nothing beyond the table's own growth. *)

module Tlb : sig
  type t

  type stats = { hits : int; misses : int; flushes : int; invlpgs : int }

  val create : ?capacity:int -> unit -> t
  (** Default capacity 4096 cached pages; on overflow the whole cache is
      flushed before the new page is inserted (a coarse but faithful
      capacity eviction). *)

  val set_tracer : t -> Trace.t -> unit
  (** Report flushes and invlpgs to a tracer (counters always, ring
      records while it is recording), and charge TLB/page-walk virtual
      time against its clock. *)

  val tracer : t -> Trace.t option
  (** The tracer installed by {!set_tracer}, if any — the CPU charges
      its memory-access costs through the same handle. *)

  val flush_all : t -> unit
  (** CR3 load / global flush. *)

  val invlpg : t -> cr3:Addr.mfn -> Addr.vaddr -> unit
  (** Drop one page's cached translation in address space [cr3]. *)

  val stats : t -> stats
  val size : t -> int
end

val walk_cached :
  Tlb.t -> Phys_mem.t -> cr3:Addr.mfn -> Addr.vaddr -> (translation, fault_reason) result
(** {!walk} through the cache. Faults are never cached. A hit charges
    [Tlb_hit]; a miss charges [Tlb_miss] and then one [Page_walk_step]
    per level read. A hit returns the path the filling walk read, so a
    stale entry reports its stale path. *)

val translate_cached :
  Tlb.t ->
  Phys_mem.t ->
  cr3:Addr.mfn ->
  kind:access_kind ->
  user:bool ->
  Addr.vaddr ->
  (translation, fault) result
(** {!translate} through the cache. Permission checks always rerun on
    the cached bits, so a hit faults exactly when a fresh walk would. *)

val resolve_cached :
  Tlb.t -> Phys_mem.t -> cr3:Addr.mfn -> kind:access_kind -> user:bool -> Addr.vaddr -> int
(** The CPU's hot path: {!translate_cached} for a canonical address,
    returning only the machine address as an int (>= 0), or a negative
    code for {!Code.fault_reason}. Same lookups, charges and
    permission order; a TLB hit allocates nothing. *)
