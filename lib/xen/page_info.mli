(** Per-frame hypervisor bookkeeping: owner, type and reference counts.

    This is Xen's [struct page_info] discipline: a frame has exactly one
    type at a time (writable data or page table of a given level), the
    type is pinned by a use count, and page-table validation promotes a
    frame to a table type only when it can take the type exclusively.

    The type system is what hypercall validation enforces — and what the
    exploits and the injector bypass when they plant raw bytes. The
    divergence between these counts and the actual page-table bytes in
    memory is precisely an {e erroneous state}.

    {2 Layout}

    The state is packed into one immediate int per frame (a flat
    [int array], 8 bytes a frame, no per-frame heap block): ptype in
    bits 0–2, the validated and pinned flags in bits 3–4, the owner in
    bits 5–20 (Free, Xen or a domid up to 65533), the type count in
    bits 21–41 and the reference count in bits 42–62 (each at most
    [2^21 - 1]). {!create}, {!checkpoint} and {!of_checkpoint} are
    [Array.make]/[Array.copy]; the accessors below never allocate
    (except {!owner} of a domain frame and {!view}).

    Every mutation goes through the setters, which record the frame in
    the touched set {!restore} replays and move {!generation} when the
    frame's type state changes — no caller has to remember either. *)

type ptype =
  | PGT_none  (** no type yet *)
  | PGT_writable  (** plain data, guest-writable *)
  | PGT_l1
  | PGT_l2
  | PGT_l3
  | PGT_l4
  | PGT_seg  (** descriptor-table page *)

type t

val create : frames:int -> t
(** Every frame Free, untyped, with zero counts. *)

(** {1 Accessors}

    All raise [Invalid_argument] on an mfn outside [0, frames). *)

val owner : t -> Addr.mfn -> Phys_mem.owner
val owned_by_domain : t -> Addr.mfn -> bool
(** The owner is some [Dom _]. *)

val owned_by_domid : t -> Addr.mfn -> int -> bool
(** [owned_by_domid t mfn d] is [owner t mfn = Dom d], without allocating. *)

val ptype : t -> Addr.mfn -> ptype
val type_count : t -> Addr.mfn -> int
(** Uses of the current type. *)

val ref_count : t -> Addr.mfn -> int
(** General references (existence). *)

val validated : t -> Addr.mfn -> bool
(** The table contents were validated. *)

val pinned : t -> Addr.mfn -> bool
(** The guest pinned the type (vcpu pagetable). *)

val typed_table : t -> Addr.mfn -> bool
(** The frame is a page table in use: a table type with a live type
    count — what the direct-paging rule forbids writable mappings of. *)

(** {1 Setters}

    Each records the frame as touched and, when the owner, type or type
    count changes, moves {!generation}. Counts outside [0, 2^21) raise
    [Invalid_argument]. *)

val set_type_count : t -> Addr.mfn -> int -> unit
val set_validated : t -> Addr.mfn -> bool -> unit
val set_pinned : t -> Addr.mfn -> bool -> unit

val set_type : t -> Addr.mfn -> ptype -> count:int -> unit
(** Type and type count at once (builder marking, promotion rollback). *)

val assign : t -> Addr.mfn -> Phys_mem.owner -> unit
(** A fresh allocation: the given owner, untyped, one reference, flags
    clear. *)

val release : t -> Addr.mfn -> unit
(** Back to Free: no references, flags clear (the dead type stays). *)

(** {1 The type discipline} *)

val table_level : ptype -> int option
(** [Some 1..4] for page-table types. *)

val ptype_of_level : int -> ptype

val ptype_code : ptype -> int
(** A stable small-integer encoding (the one trace [Page_type] records
    carry, and the packed layout's). *)

val ptype_to_string : ptype -> string

val get_page : t -> Addr.mfn -> unit
(** Take a general reference. *)

val put_page : t -> Addr.mfn -> unit

val get_page_type : t -> Addr.mfn -> ptype -> (unit, Errno.t) result
(** Take a typed reference: succeeds when the frame already has this
    type, or has no live type (count 0) and can be promoted. A frame
    whose current type is in use by something else is refused — the rule
    that keeps page tables unwritable. *)

val put_page_type : t -> Addr.mfn -> unit

val counts_consistent : t -> bool
(** [type_count = 0] implies no pin on every frame — the invariant
    checked by property tests (the packed counts are never negative). *)

(** {1 Views} *)

type view = {
  owner : Phys_mem.owner;
  ptype : ptype;
  type_count : int;
  ref_count : int;
  validated : bool;
  pinned : bool;
}
(** An immutable copy of one frame's state, for tests and diagnostics;
    hot paths use the accessors. *)

val view : t -> Addr.mfn -> view

(** {1 Type-state generation} *)

val generation : t -> int
(** Counter over type-state changes: it moves exactly when some frame's
    owner, type or type count changes, and {!restore} puts it back to
    the checkpointed value. *)

val at_checkpoint : t -> bool
(** No frame's owner, type or type count changed since the last
    {!checkpoint}, {!restore}, {!create} or {!of_checkpoint}: the type
    state is that baseline's — the validity test for cached
    page-table scans. *)

val base_generation : t -> int
(** The {!generation} that baseline left; identifies it. *)

(** {1 Checkpointing} *)

type checkpoint

val checkpoint : t -> checkpoint

val restore : t -> checkpoint -> unit
(** Restore in O(frames touched since the checkpoint). *)

val of_checkpoint : checkpoint -> t
(** A complete fresh instance holding the checkpointed state — the
    forked-testbed construction path. ({!restore} cannot initialize a
    fresh instance: it only replays the target's own touched set, which
    is empty after {!create}.) The checkpoint is read, never aliased, so
    one checkpoint can seed many forks. *)
