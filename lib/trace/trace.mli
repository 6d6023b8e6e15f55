(** A xentrace-style event tracer: typed records in a binary ring
    buffer, plus a set of always-on scalar counters.

    The design splits observability in two tiers:

    - {b Counters} are always on. They are plain integer increments
      (hypercalls by number, faults, TLB flushes, page-type
      transitions, ...), cheap enough to leave enabled on every
      campaign trial. {!Hv.hypercall_stats} and the per-trial telemetry
      columns are views over them.

    - The {b ring} is off by default. When enabled ({!enable}), every
      instrumentation point also serializes a typed record into a
      circular byte buffer that grows on demand up to its capacity;
      when the ring is full, the oldest whole records are evicted
      (xentrace keeps the newest). A disabled ring
      costs one boolean load per instrumentation point.

    Records carry a monotonically increasing sequence number plus a
    {e virtual} timestamp — the machine's deterministic {!Vclock}
    reading in simulated nanoseconds — instead of a wall-clock stamp,
    so a trace of a deterministic run is itself byte-deterministic:
    the same trial recorded twice produces bit-identical {!to_bytes}
    output, virtual timestamps included.

    {b Boundary vs. internal events.} Events subdivide into {e
    boundary} events — crossings from a script into the testbed
    (hypercalls with full argument payloads, guest memory accesses,
    kernel ticks, network commands) — and {e internal} events, the
    consequences the machine produces on its own (faults, flushes,
    page-type transitions, verdicts). A recorded boundary stream is
    sufficient to re-execute the trial ({!Trace_driver} in [ii_core]);
    internal events are pure observability. The {!enter}/{!leave} depth
    counter suppresses boundary records for nested crossings (a balloon
    hypercall issued from inside a recorded kernel tick is a
    consequence of the tick, not an input), which is what makes replay
    apply each input exactly once. *)

type t

(** {1 Events} *)

(** Guest memory access flavours, in the encoding used by
    [Guest_mem.op]. *)
type mem_op =
  | Op_read_u64
  | Op_write_u64
  | Op_read_bytes
  | Op_write_bytes
  | Op_user_read_u64
  | Op_user_write_u64
  | Op_probe_u64
      (** a page-table probe read ({!Kernel.pt_entry}): translated like
          a kernel read but never delivers a fault *)

val mem_op_code : mem_op -> int
val mem_op_of_code : int -> mem_op option
val mem_op_name : mem_op -> string

type event =
  (* boundary events (replayable inputs) *)
  | Hypercall of { domid : int; number : int; digest : int64; payload : string }
      (** [payload] is the {!Hypercall.encode_call} serialization when
          the call was recorded at top level, [""] for nested calls
          (which replay regenerates). [digest] is {!digest} of the
          payload. *)
  | Guest_mem of { domid : int; op : mem_op; va : int64; len : int; data : string }
      (** [data] carries the written bytes for write flavours, [""] for
          reads. *)
  | Guest_invlpg of { domid : int; va : int64 }
  | Kernel_tick of { domid : int }
  | Sched_round
  | Net_listen of { host : string; port : int }
  | Net_cmd of { to_host : string; port : int; conn_id : int; cmd : string }
  | Xenstore_write of { caller : int; injected : bool; path : string; value : string }
  (* internal events (observability only; replay regenerates them) *)
  | Hypercall_ret of { domid : int; number : int; rc : int64; failed : bool }
  | Fault of { vector : int; escalation : int }
      (** [escalation]: 0 handled, 1 double-fault panic, 2 triple fault *)
  | Tlb_flush_all
  | Tlb_invlpg of { va : int64 }
  | Page_type of { mfn : int; from_type : int; to_type : int }
      (** a [Page_info] type transition, as {!Page_info.ptype}
          constructor indices *)
  | Grant_op of { domid : int; op : int }
  | Evtchn_op of { domid : int; op : int }
  | Injector_access of { action : int; addr : int64; len : int }
  | Console of { len : int; digest : int64 }
  | Monitor_verdict of { violations : int; classes : int }
      (** [classes] is a bitmask of violation classes (see
          {!Monitor.class_mask}) *)
  | Panic of { reason : string }
  | Vmi_scan of { detector : string; findings : int; frames : int }
      (** one out-of-band detector scan: how many anomalies it reported
          and how many frames it read (the deterministic cost proxy).
          Internal — scans are side-effect-free, so replay never needs
          to re-run them. *)
  | Backend_op of { op : int; arg1 : int64; arg2 : int64; data : string }
      (** a backend-specific boundary crossing for substrates without
          Xen's guest-kernel instrumentation (the KVM ioctl, a VM
          entry, a fault delivery). [op] is interpreted by the backend
          that recorded it; [data] carries write payloads so replay can
          re-drive them. Boundary. *)
  | Provenance_edge of { consumer : int; mfn : int; off : int; len : int; labels : int list }
      (** a taint-aware consumer (page walker, PTE validator, IDT gate
          reader, VMCS check, monitor scan — see {!Provenance.consumer})
          interpreted bytes carrying the given origin labels. Links this
          record's seq to the producers it causally depends on.
          Internal — replay regenerates edges by re-driving the
          boundary stream. *)
  | Scn_edge of { section : int; prev : int; pc : int }
      (** one executed scenario-bytecode instruction: the
          (section, prev-pc → pc) control-flow edge, where [section] is
          0 for [exploit] and 1 for [inject] and the entry edge uses
          [prev = 0xffffff]. Only emitted while a {!Coverage} collector
          is attached. Boundary — the bytecode VM does not run during
          replay, so replay refeeds the coverage map from these
          records. *)

val is_boundary : event -> bool
(** True for the events replay applies: every boundary constructor,
    except [Hypercall] records with an empty payload. *)

val event_name : event -> string
val pp_event : Format.formatter -> event -> unit

type record = { seq : int; vts : int64; event : event }
(** [vts] is the machine's virtual time (ns) when the record was
    emitted; {!Trace_driver.replay} reproduces it byte-for-byte. *)

(** {1 Lifecycle} *)

val create : unit -> t
(** Counters armed, ring disabled. *)

val enable : ?capacity_bytes:int -> t -> unit
(** Clear the ring and start recording, with [capacity_bytes] (default
    4 MiB, at least 64) as the eviction bound. Sequence numbers restart
    at 0. Memory grows on demand: the buffer starts small (4 KiB) and
    doubles as records arrive until it reaches the bound; only then
    are the oldest whole records evicted. The live records, {!dropped}
    and {!seq} are exactly those of a ring allocated at the full
    capacity up front. *)

val disable : t -> unit
(** Stop recording. The recorded contents stay readable. *)

val recording : t -> bool

val coverage : t -> Coverage.t option
val set_coverage : t -> Coverage.t option -> unit
(** Attach/detach a coverage collector. Detached (the default) every
    instrumented site pays one option match; attached, {!emit} also
    feeds the record-code axis (except the records only a recording
    side produces: VMI scans, the closing monitor verdict). *)

val clear : t -> unit
(** Drop the ring contents and reset [seq]/[dropped]; recording state
    and counters are unchanged. *)

(** {1 Recording} *)

val emit : t -> event -> unit
(** Append a record (no-op when the ring is disabled). Call sites on
    hot paths guard with [if Trace.recording t then ...] so the event
    payload is never even allocated while tracing is off. *)

val enter : t -> unit
val leave : t -> unit
(** Bracket the execution of a recorded boundary event, so boundary
    records for nested crossings are suppressed. *)

val top_level : t -> bool
(** No enclosing boundary event is executing. *)

val dropped : t -> int
(** Records evicted by wraparound since {!enable}/{!clear}. *)

val seq : t -> int
(** Sequence number the next record will get (= records emitted so
    far). *)

(** {1 Virtual time}

    Each trace owns the machine's {!Vclock}: instrumentation points
    charge per-operation costs against it, and {!emit} stamps its
    reading into every record. Unlike the ring, the clock advances
    whether or not recording is on (neutrality: a traced and an
    untraced trial read the same virtual time). *)

val vclock : t -> Vclock.t
(** The machine's virtual clock (checkpoint/restore goes through
    {!Vclock.now}/{!Vclock.set} on this handle). *)

val vts : t -> int64
(** [Vclock.now (vclock t)]: current virtual time in nanoseconds. *)

val charge : t -> Vclock.op -> unit
val charge_n : t -> Vclock.op -> int -> unit
(** Advance the clock by the cost model's price for an operation
    (no-ops when the clock is detached). *)

(** {1 Reading a trace} *)

val to_bytes : t -> string
(** The live records, oldest first, in the framed binary layout
    ([u32 len | u32 seq | i64 vts | u8 code | payload],
    little-endian). Two recordings of the same deterministic run are
    byte-identical. *)

val records : t -> record list
(** Decoded view of {!to_bytes}, oldest first. *)

val records_of_string : string -> record list
(** Decode a {!to_bytes} image (e.g. one held by a
    [Trace_driver.recording]). *)

val strip_vts : string -> string
(** Re-frame a {!to_bytes} image into the pre-vts v1 layout
    ([u32 len | u32 seq | u8 code | payload]): drops each frame's
    [vts] word and fixes the length prefix, leaving every other byte
    verbatim. Lets fixtures captured under v1 keep pinning the
    seq/code/payload content of current recordings. *)

val detection_latency : record list -> int option
(** Sequence distance from the first injector access to the first
    non-empty monitor verdict after it — the trace-level
    detection-latency metric (None when either end is missing). *)

val detection_latency_ns : record list -> int64 option
(** Same two endpoints as {!detection_latency}, measured on the
    virtual clock: how long (simulated ns) the injected state survived
    before a monitor saw it. *)

(** {1 Counters} *)

module Counters : sig
  type t

  (** An immutable copy, for checkpoint/restore and for computing
      per-trial deltas. *)
  type snapshot

  val snapshot : t -> snapshot
  val restore : t -> snapshot -> unit
  val hypercalls : t -> (int * int) list
  (** (hypercall number, calls), ascending by number. *)

  val hypercalls_failed : t -> int
  val faults : t -> int
  val double_faults : t -> int
  val flushes : t -> int
  val invlpgs : t -> int
  val page_type_changes : t -> int
  val grant_ops : t -> int
  val evtchn_ops : t -> int
  val injector_accesses : t -> int
  val console_lines : t -> int
  val vmi_scans : t -> int
  val vmi_findings : t -> int

  val vmi_frames : t -> int
  (** Frames read across all VMI scans — the detectors' cost in
      deterministic units. *)
end

val counters : t -> Counters.t

val note_hypercall : t -> number:int -> failed:bool -> unit
val note_fault : t -> double:bool -> unit
val note_flush : t -> unit
val note_invlpg : t -> unit
val note_page_type : t -> unit
val note_grant : t -> unit
val note_evtchn : t -> unit
val note_injector : t -> unit
val note_console : t -> unit

val note_vmi_scan : t -> findings:int -> frames:int -> unit
(** One detector scan: bumps the scan count and accumulates findings
    and frames-read. *)

(** {1 Per-trial telemetry} *)

(** The counter delta over one campaign trial. *)
type telemetry = {
  tm_hypercalls : (int * int) list;  (** by hypercall number, ascending *)
  tm_hypercalls_failed : int;
  tm_faults : int;
  tm_double_faults : int;
  tm_flushes : int;
  tm_invlpgs : int;
  tm_page_type_changes : int;
  tm_grant_ops : int;
  tm_evtchn_ops : int;
  tm_injector_accesses : int;
  tm_vmi_scans : int;
  tm_vmi_findings : int;
  tm_vmi_frames : int;
}

val delta : before:Counters.snapshot -> after:Counters.snapshot -> telemetry
val total_hypercalls : telemetry -> int

(** {1 Helpers} *)

val digest : string -> int64
(** FNV-1a (64-bit) — the argument digest attached to hypercall and
    console records. *)

val json_of_records : record list -> string
(** A JSON array of record objects (hand-rolled, stable field order). *)
