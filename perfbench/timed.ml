(* The instrumented substrate and scenario dispatch of the traced run.

   [Make (B)] is [B] with every layer entry point the campaign engine,
   the trace driver and the scenario VM call wrapped in a span; its
   types are [B]'s, so testbeds, configs and snapshots pass between the
   two unchanged. [Ops (O)] does the same for a backend's scenario
   dispatch table, over [Make (O.B)]. Applying [Campaign.Make],
   [Trace_driver.Make] and [Scn_vm.Make] to these gives the same
   program with spans at each layer boundary, measured from outside:
   no library file knows it is being timed. *)

open Spans

module Make (B : Substrate.S) = struct
  include B

  let create ?frames ?domains ?load c = span Create (fun () -> B.create ?frames ?domains ?load c)

  let create_pooled ?frames ?domains ?load c =
    span Fork (fun () -> B.create_pooled ?frames ?domains ?load c)

  let reset t = span Reset (fun () -> B.reset t)
  let install_injector t = span Install (fun () -> B.install_injector t)
  let inject_write t ~addr a data = span Inject_write (fun () -> B.inject_write t ~addr a data)
  let inject_read t ~addr a ~len = span Inject_read (fun () -> B.inject_read t ~addr a ~len)
  let snapshot t = span Snapshot (fun () -> B.snapshot t)
  let violations ~before ~after = span Violations (fun () -> B.violations ~before ~after)
  let audit t s = span Audit (fun () -> B.audit t s)
  let tick_all t = span Tick_all (fun () -> B.tick_all t)
end

module Ops (O : Scn_ops.OPS) = struct
  module B = Make (O.B)

  let caps = O.caps
  let env t name arg = span Env (fun () -> O.env t name arg)
  let hypercall t name args = span Hypercall (fun () -> O.hypercall t name args)
  let guest_op t name args = span Guest_op (fun () -> O.guest_op t name args)
  let payload t ~say name args = span Payload (fun () -> O.payload t ~say name args)
  let state = O.state
  let host_write = O.host_write
end
