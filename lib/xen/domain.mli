(** A Xen domain's hypervisor-side state.

    Guest-kernel structures (processes, filesystem, console) live in the
    guest library; this record is what Xen itself knows: identity,
    privilege, the P2M map, the page-table root and the pages the domain
    builder handed over. *)

type t = {
  id : int;
  name : string;  (** also used as the guest hostname in transcripts *)
  privileged : bool;  (** true for dom0 *)
  p2m : Addr.mfn option array;  (** pfn -> mfn; [None] = no page *)
  mutable l4_mfn : Addr.mfn;  (** page-table root (start_info.pt_base) *)
  mutable pt_pages : Addr.mfn list;  (** builder-installed table pages *)
  start_info_pfn : Addr.pfn;
  vdso_pfn : Addr.pfn;
  grant : Grant_table.t;
  events : Event_channel.t;
  mutable dom_crashed : bool;
}

val make :
  id:int -> name:string -> privileged:bool -> max_pfn:int ->
  start_info_pfn:Addr.pfn -> vdso_pfn:Addr.pfn -> t

val deep_copy : t -> t
(** Structural copy — P2M, grant table and event channels included —
    so a checkpointed domain is immune to later mutation. *)

val max_pfn : t -> int
val mfn_of_pfn : t -> Addr.pfn -> Addr.mfn option
val pfn_of_mfn : t -> Addr.mfn -> Addr.pfn option
(** Linear scan of the P2M; Xen proper uses the M2P, which the
    hypervisor maintains — this is a testing aid. *)

val set_p2m : t -> Addr.pfn -> Addr.mfn option -> unit
val populated_pfns : t -> Addr.pfn list

val populated_count : t -> int
(** [List.length (populated_pfns t)], without building the list. *)

val iter_populated : t -> (Addr.pfn -> Addr.mfn -> unit) -> unit
(** [f pfn mfn] for every populated P2M entry, in pfn order, in place. *)

val owned : t -> Phys_mem.owner
val kernel_vaddr_of_pfn : Addr.pfn -> Addr.vaddr
(** Where the builder maps guest page [pfn] in the PV kernel area. *)

val pfn_of_kernel_vaddr : Addr.vaddr -> Addr.pfn option
val pp : Format.formatter -> t -> unit
