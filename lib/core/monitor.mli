(** System monitoring (the final stage of Fig 2).

    A security violation "may happen or not, depending on the capacity
    of the system to deal with intrusions" (§IV-A); the monitor decides
    which by comparing snapshots of the whole testbed taken before and
    after an exploit or an injection. *)

type violation =
  | Hypervisor_crash of string  (** panic reason *)
  | Privilege_escalation of string  (** evidence *)
  | Unauthorized_disclosure of string
  | Integrity_violation of string
      (** a hypervisor integrity invariant broke: a guest holds a
          reachable writable mapping of a page-table page *)
  | Guest_crash of string
  | Availability_degradation of string

type snapshot = {
  crashed : bool;
  crash_reason : string option;
  root_artifacts : (string * string) list;  (** (host, path) of root-owned files *)
  root_shells : (string * string) list;  (** (victim host, remote host) *)
  disclosed : string list;  (** secrets visible outside their domain *)
  guest_crashes : string list;
  pending_events : (string * int) list;
  pt_exposure : (string * int) list;
      (** per host: guest-reachable writable mappings of page-table
          frames, found by walking the live tables like the MMU would
          and filtering by the version's address-space layout *)
  m2p_mismatches : int;
      (** populated P2M entries whose M2P inverse disagrees — the
          hypervisor invariant randomized M2P corruption breaks *)
  domain_pages : (string * int) list;
      (** per host: populated pages; a sharp drop between snapshots is
          balloon pressure (the management-interface violation) *)
  sched_stalled : int;
      (** consecutive scheduler slices lost to a hung vcpu *)
  free_frames : int;
      (** free host frames; halving between snapshots is exhaustion *)
}

type scan_cache = Scan_cache.t
(** Cross-snapshot cache for the expensive audits (page-table walks and
    the M2P inverse check); see {!Scan_cache} for when a kept result
    stands in for a fresh audit. Every testbed owns one
    ([tb.Testbed.scan_cache]), which {!Substrate_xen.snapshot} passes,
    so every campaign, matrix and trace-driver trial goes through it. *)

val create_scan_cache : unit -> scan_cache
(** A fresh, empty cache, for callers that manage their own. *)

val snapshot : ?cache:scan_cache -> Testbed.t -> snapshot
(** [snapshot ?cache tb] is independent of [cache]: passing one changes
    only the cost, never the result (nor the provenance the audits
    emit). Without [cache] it is the uncached reference. *)

val writable_pt_exposure : ?cache:scan_cache -> Hv.t -> Domain.t -> int
(** The integrity audit behind [pt_exposure]: how many leaf (or
    superpage) mappings give this domain, at guest privilege, write
    access to frames currently typed as page tables. Always 0 on a
    healthy direct-paging system. [cache] reuses baseline walks across
    snapshots of a resettable testbed. *)

val violations : before:snapshot -> after:snapshot -> violation list
(** Violations that appeared between the two snapshots, most severe
    first. An empty list means the system handled the state (the
    shield of Table III). *)

val violations_by_domain :
  before:snapshot -> after:snapshot -> (string * violation list) list
(** The same violations as {!violations}, grouped by the domain
    (hostname) each one was observed in. Host-level conditions — a
    hypervisor crash, M2P divergence, scheduler stalls, frame
    exhaustion — group under ["host"]. Domains appear in
    first-violation order; within a domain the {!violations} order is
    preserved. Domains with no violations do not appear. *)

val violation_to_string : violation -> string
val pp_violation : Format.formatter -> violation -> unit

val same_class : violation list -> violation list -> bool
(** Same multiset of violation classes (ignoring evidence strings) —
    the comparison RQ1 makes between exploit and injection runs. *)

val class_mask : violation list -> int
(** Bitmask of the violation classes present (bit 0 = hypervisor crash,
    … bit 5 = availability degradation) — the compact form trace
    [Monitor_verdict] records carry. *)

val class_index : violation -> int
(** The class number behind {!class_mask}'s bits (0–5): the violation
    axis of {!Coverage} maps. *)
