(** CPU-level memory access and exception delivery.

    Three privilege contexts exist:
    - [Hyp]: hypervisor code; resolves addresses through Xen's direct
      map, bypassing guest page tables (this is the privilege the
      intrusion injector executes with);
    - [Kernel]: PV guest kernel; walks the guest's CR3 with supervisor
      semantics, filtered by the address-space layout;
    - [User]: guest user space; additionally requires the US flag.

    Exception delivery reads gates from the in-memory IDT. A corrupted
    gate makes the first fault escalate to a double fault; Xen's double
    fault handler panics — reproducing the XSA-212-crash violation. *)

type ring = Hyp | Kernel | User

type t

val create : ?tracer:Trace.t -> Phys_mem.t -> hardened:bool -> t
(** [tracer] is wired into the software TLB so flushes and invlpgs
    are counted, and recorded while the ring is enabled. *)

val mem : t -> Phys_mem.t
val hardened : t -> bool
val set_idt : t -> Addr.mfn -> unit
val idt_mfn : t -> Addr.mfn option

val sidt : t -> Addr.vaddr
(** Linear (direct-map) address of the IDT, as the unprivileged [sidt]
    instruction leaks it. Raises [Failure] when no IDT is installed. *)

val register_handler : t -> Addr.vaddr -> string -> unit
(** Declare a handler address valid (Xen installs its entry points). *)

val handler_name : t -> Addr.vaddr -> string option

val handlers_dump : t -> (Addr.vaddr * string) list
(** The registered handler table, for checkpointing. *)

val handlers_restore : t -> (Addr.vaddr * string) list -> unit

(** {1 Software TLB}

    Guest-privilege translations ([Kernel]/[User] rings) go through a
    per-CPU walk cache; [Hyp] accesses use the direct map and never
    touch it. The MMU code invalidates through these hooks exactly where
    real Xen issues [invlpg]/CR3 reloads. *)

val tlb : t -> Paging.Tlb.t
val tlb_flush_all : t -> unit
val tlb_invlpg : t -> cr3:Addr.mfn -> Addr.vaddr -> unit
val tlb_stats : t -> Paging.Tlb.stats

(** {1 Memory access}

    Every access charges one [Guest_mem_op] and translates each page it
    touches once (a TLB hit, or a miss and a walk). Translation works on
    int machine addresses ({!Paging.resolve_cached}), so a guest-ring
    access that hits the TLB allocates only its result: nothing for a
    write, the [Ok] and the boxed value for a [read_u64]. A fault record
    is built only when the access faults; its [fault_vaddr] is the
    canonical address of the page that faulted. *)

type 'a access_result = ('a, Paging.fault) result

val read_u64 : t -> ring:ring -> cr3:Addr.mfn -> Addr.vaddr -> int64 access_result
(** An access whose last byte lies on the next page translates both
    pages (in address order) before reading: a fault on either page
    fails the access. *)

val write_u64 : t -> ring:ring -> cr3:Addr.mfn -> Addr.vaddr -> int64 -> unit access_result
(** Like {!read_u64}; a page-straddling store translates both pages
    first, so a fault on either leaves memory untouched. *)

val read_bytes : t -> ring:ring -> cr3:Addr.mfn -> Addr.vaddr -> int -> bytes access_result
(** Translates and copies page by page; a range crossing into a page
    that faults fails the access. *)

val write_bytes : t -> ring:ring -> cr3:Addr.mfn -> Addr.vaddr -> bytes -> unit access_result
(** Translates and stores page by page: pages before a faulting one
    have already been written. *)

val resolve :
  t -> ring:ring -> cr3:Addr.mfn -> kind:Paging.access_kind -> Addr.vaddr ->
  Addr.maddr access_result
(** Translation only, no data transfer. *)

(** {1 Exceptions} *)

type exception_outcome =
  | Handled of { vector : int; handler : Addr.vaddr; handler_label : string }
  | Double_fault_panic of { first_vector : int; bad_handler : int64 }
      (** the first handler was corrupt; Xen's double-fault handler ran
          and the hypervisor must panic *)
  | Triple_fault
      (** both the first and the double-fault gates were corrupt *)

val deliver_exception : t -> vector:int -> exception_outcome
