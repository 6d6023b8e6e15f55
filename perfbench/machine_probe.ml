(* Machine-layer probes on a workload-shaped testbed: the page walk with
   and without the software TLB, and 4 KiB bulk copies in and out of
   physical memory as callers use them (the read allocates its result,
   so its allocation is reported beside its time). Every figure is a
   set of samples, each the mean of a short burst of calls, in ns. *)

let per_call ~samples ~calls f =
  Array.init samples (fun _ ->
      let t0 = Spans.now () in
      for j = 0 to calls - 1 do
        f j
      done;
      float_of_int (Spans.now () - t0) /. float_of_int calls)

type t = {
  walk_uncached : float array;
  walk_cached : float array;
  bulk_read : float array;
  bulk_read_words : float;
  bulk_write : float array;
}

let run (tb : Testbed.t) =
  let mem = tb.Testbed.hv.Hv.mem in
  let cr3 = (Kernel.dom tb.Testbed.attacker).Domain.l4_mfn in
  let vas = Array.init 64 Domain.kernel_vaddr_of_pfn in
  let walk j = ignore (Paging.walk mem ~cr3 vas.(j)) in
  let walk_uncached = per_call ~samples:300 ~calls:64 walk in
  let tlb = Paging.Tlb.create () in
  let walk_cached j = ignore (Paging.walk_cached tlb mem ~cr3 vas.(j)) in
  Array.iteri (fun j _ -> walk_cached j) vas;
  let walk_cached = per_call ~samples:300 ~calls:64 walk_cached in
  let addr = 0x5000L in
  let read _ = ignore (Phys_mem.read_bytes mem addr 4096) in
  let bulk_read = per_call ~samples:400 ~calls:16 read in
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  for j = 1 to 1000 do
    read j
  done;
  let bulk_read_words = (words () -. w0) /. 1000. in
  let buf = Bytes.make 4096 'x' in
  let bulk_write = per_call ~samples:400 ~calls:16 (fun _ -> Phys_mem.write_bytes mem addr buf) in
  { walk_uncached; walk_cached; bulk_read; bulk_read_words; bulk_write }
