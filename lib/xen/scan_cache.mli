(** Cross-snapshot cache for the monitor's expensive audits: the
    page-table exposure walk of each domain and the M2P inverse check.

    Campaign loops snapshot the same reset-to-baseline testbed thousands
    of times, and almost every trial leaves the page-table trees and the
    M2P untouched. The cache remembers baseline results and stands in
    for a fresh audit only when it can prove the audit's inputs are the
    baseline's:

    - the type state is the checkpoint's ({!Page_info.at_checkpoint});
      every P2M change is an allocation or a release, so this also pins
      the P2M;
    - none of the frames the audit read was written since the baseline
      ({!Phys_mem.dirty_list}): for a page-table walk, the table frames
      it visited; for the M2P check, the M2P frames;
    - for a walk, the domain's page-table root is the same.

    Only audits that found nothing (exposure 0, no mismatch) are kept,
    so a hit also stands in for the provenance a fresh audit emits:
    none.

    Every testbed owns one cache ([Testbed.create] and [Testbed.fork]
    make it; it survives reset). A cache must not be shared across
    testbeds: its anchor identifies a baseline, not a hypervisor. *)

type deps = (Addr.mfn, unit) Hashtbl.t
(** The table frames a page-table walk read. *)

type t

val create : unit -> t

val usable : t -> Hv.t -> bool
(** True iff the type state is the baseline's, so cached results may
    stand in. Drops every cached result first when the baseline itself
    moved (a new checkpoint, a different memory baseline). *)

val pt_hit : t -> Hv.t -> Domain.t -> bool
(** A baseline walk of this domain found no exposure and none of its
    inputs changed since. Only meaningful after {!usable} returned
    true. *)

val record_pt : t -> Hv.t -> Domain.t -> deps -> unit
(** Keep a walk that found no exposure, if none of the frames it read
    was written since the baseline. Only call after {!usable}. *)

val m2p_hit : t -> Hv.t -> bool
(** The baseline M2P check found no mismatch and no M2P frame was
    written since. Only meaningful after {!usable} returned true. *)

val record_m2p : t -> Hv.t -> unit
(** Keep an M2P check that found no mismatch, if no M2P frame was
    written since the baseline. Only call after {!usable}. *)

val cached_domains : t -> int
(** Domains with a kept walk (for tests). *)
