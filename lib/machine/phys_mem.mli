(** Simulated host physical memory: a finite array of 4 KiB frames.

    Ownership here is only an allocation tag (who asked for the frame);
    access control is enforced elsewhere (page tables + hypervisor
    validation). An attacker holding a forged mapping can therefore read
    and write frames they do not own, which is the whole point.

    Beyond raw storage, this module carries the campaign engine's two
    fast-reset primitives: a dirty-frame bitmap with lazy pre-image
    capture (so a testbed resets in O(frames touched) instead of
    rebuilding everything) and a generation counter that lets cached
    translations (the software TLB) self-invalidate whenever frames are
    recycled. *)

type owner =
  | Free
  | Xen  (** owned by the hypervisor *)
  | Dom of int  (** owned by domain [id] *)

type t

exception Bad_maddr of Addr.maddr
(** Raised on access outside the installed physical memory. *)

val create : frames:int -> t
(** Fresh memory of [frames] zeroed frames, all [Free]. A fresh memory
    is a fork of "all zeroes": every frame aliases one shared,
    read-only zero page ({!shared_frames} [= frames]) and gets a private
    page on its first content write, through the same copy-on-write
    path as {!fork}. Creation therefore costs the metadata arrays, and
    a memory only ever holds the frames it has written. *)

val total_frames : t -> int

val frame : t -> Addr.mfn -> Frame.t
(** Raw frame access. The frame is conservatively marked dirty, since
    the caller receives a mutable view. Use {!frame_ro} on provably
    read-only paths. *)

val frame_ro : t -> Addr.mfn -> Frame.t
(** Like {!frame} but does not mark the frame dirty. The caller promises
    not to write through the returned view. *)

val frame_hash : t -> Addr.mfn -> int64
(** {!Frame.fnv64} of the frame via the read-only path — the VMI
    integrity primitive. Never marks the frame dirty. *)

(** {1 Allocation} *)

val alloc : t -> owner -> Addr.mfn
(** Allocate the lowest free frame, zeroed. Raises [Failure] when memory
    is exhausted and [Invalid_argument] when asked to allocate [Free]. *)

val alloc_many : t -> owner -> int -> Addr.mfn list
val free : t -> Addr.mfn -> unit
val owner : t -> Addr.mfn -> owner
val set_owner : t -> Addr.mfn -> owner -> unit

val free_frames : t -> int
(** O(1): the allocator maintains a live count. *)

val frames_owned_by : t -> owner -> Addr.mfn list
val is_valid_mfn : t -> Addr.mfn -> bool

(** {1 Dirty tracking and baseline reset} *)

val generation : t -> int
(** Bumped whenever a cached physical translation may have gone stale:
    on [free] (frame recycling) and on {!reset_to_baseline}. The
    software TLB compares this against the generation each entry was
    filled under. *)

val dirty_count : t -> int
(** Frames touched since the last {!capture_baseline} (or creation). *)

val dirty_list : t -> Addr.mfn list
(** The frames behind {!dirty_count}: everything touched since the last
    {!capture_baseline} or {!reset_to_baseline}. Monitors intersect this
    with a cached scan's frame dependencies to decide whether the cache
    is still valid. *)

val baseline_epoch : t -> int
(** Bumped on every {!capture_baseline}; unchanged by
    {!reset_to_baseline} (reset returns to the {e same} baseline).
    Caches anchored to a baseline carry this to detect re-captures. *)

val capture_baseline : t -> unit
(** Declare the current contents the baseline. Subsequent writes save a
    lazy pre-image of each frame on first touch; {!reset_to_baseline}
    replays only those. Recapturing discards the previous baseline. *)

val reset_to_baseline : t -> int
(** Restore every frame (contents and ownership) touched since
    {!capture_baseline}, in O(dirty). Returns the number of frames
    restored. Raises [Invalid_argument] if no baseline was captured.
    The page-sized pre-image buffers are kept for reuse by the next
    trial's first writes, so steady-state trials allocate none. *)

(** {1 Copy-on-write forking}

    The warm-pool primitive: building a testbed once, freezing its
    memory and forking it hands every new shard (or matrix cell) a
    testbed in O(metadata) instead of a full rebuild. Frozen templates
    are immutable — every mutation path raises — so one template can be
    shared, read-only, by forks running on concurrent domains. *)

val freeze : t -> unit
(** Declare the memory an immutable fork template. Requires a captured
    baseline with no divergence ([dirty_count t = 0]); after freezing,
    any mutation raises [Invalid_argument]. Irreversible. *)

val is_frozen : t -> bool

val fork : t -> t
(** [fork template] is a new memory whose frames physically alias the
    frozen template's. The first content write to a frame detaches it
    with a private copy; frames never written are never copied, and
    {!reset_to_baseline} skips still-shared frames. The fork is born
    with an armed baseline equal to the template state (same
    {!baseline_epoch}), so it resets like a freshly checkpointed
    testbed. Raises [Invalid_argument] unless [template] is frozen. *)

val shared_frames : t -> int
(** Frames still physically shared — with the fork's template, or with
    the zero page for a memory made by {!create}. Equals [total_frames]
    right after {!create} or {!fork}; the first content write to a
    frame unshares exactly that frame. [alloc] and [free] of a
    known-zero frame keep it shared. *)

(** {1 Byte access by machine address}

    These primitives cross frame boundaries transparently. *)

val read_u8 : t -> Addr.maddr -> int
val write_u8 : t -> Addr.maddr -> int -> unit
val read_u64 : t -> Addr.maddr -> int64
val write_u64 : t -> Addr.maddr -> int64 -> unit
val read_bytes : t -> Addr.maddr -> int -> bytes
val write_bytes : t -> Addr.maddr -> bytes -> unit
val write_string : t -> Addr.maddr -> string -> unit

val read_into : t -> Addr.maddr -> bytes -> int -> int -> unit
(** [read_into t ma buf pos len] blits [len] bytes starting at [ma] into
    [buf] at [pos], one frame-sized chunk at a time. *)

val write_from : t -> Addr.maddr -> bytes -> int -> int -> unit
(** [write_from t ma buf pos len]: the bulk store counterpart. *)

(** {1 Provenance}

    An optional byte-granular taint shadow (see {!Provenance}). When
    attached, every byte-path write ({!write_u8}, {!write_u64},
    {!write_from} and friends) taints the written range with the origin
    installed by {!with_origin}; the shadow checkpoints and restores
    with {!capture_baseline}/{!reset_to_baseline} and is cleared
    per-frame whenever a frame is scrubbed. Writes that go through a
    mutable {!frame} view bypass the byte paths and must call {!taint}
    explicitly. Detached (the default), every hook below is a single
    option match. *)

val set_provenance : t -> Provenance.t option -> unit
val provenance : t -> Provenance.t option

val with_origin : t -> Provenance.origin -> (unit -> 'a) -> 'a
(** Label writes in [f]'s dynamic extent; identity when detached. *)

val taint : t -> mfn:Addr.mfn -> off:int -> len:int -> unit
(** Explicit taint for writes that bypass the byte paths
    ([Frame.set_entry] through a mutable {!frame} view). *)

val observe : t -> consumer:Provenance.consumer -> mfn:Addr.mfn -> off:int -> len:int -> unit
(** Record that [consumer] interpreted the byte range (no-op when
    detached or untainted). *)
