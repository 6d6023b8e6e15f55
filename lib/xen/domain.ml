type t = {
  id : int;
  name : string;
  privileged : bool;
  p2m : Addr.mfn option array;
  mutable l4_mfn : Addr.mfn;
  mutable pt_pages : Addr.mfn list;
  start_info_pfn : Addr.pfn;
  vdso_pfn : Addr.pfn;
  grant : Grant_table.t;
  events : Event_channel.t;
  mutable dom_crashed : bool;
}

let make ~id ~name ~privileged ~max_pfn ~start_info_pfn ~vdso_pfn =
  {
    id;
    name;
    privileged;
    p2m = Array.make max_pfn None;
    l4_mfn = -1;
    pt_pages = [];
    start_info_pfn;
    vdso_pfn;
    grant = Grant_table.create ~grefs:64;
    events = Event_channel.create ~max_ports:64;
    dom_crashed = false;
  }

(* Structural copy for hypervisor checkpointing. *)
let deep_copy t =
  {
    t with
    p2m = Array.copy t.p2m;
    grant = Grant_table.deep_copy t.grant;
    events = Event_channel.deep_copy t.events;
  }

let max_pfn t = Array.length t.p2m
let mfn_of_pfn t pfn = if pfn >= 0 && pfn < max_pfn t then t.p2m.(pfn) else None

let pfn_of_mfn t mfn =
  let n = max_pfn t in
  let rec go i =
    if i >= n then None else match t.p2m.(i) with Some m when m = mfn -> Some i | _ -> go (i + 1)
  in
  go 0

let set_p2m t pfn mfn =
  if pfn < 0 || pfn >= max_pfn t then invalid_arg "Domain.set_p2m: pfn out of range";
  t.p2m.(pfn) <- mfn

let populated_pfns t =
  let acc = ref [] in
  for i = max_pfn t - 1 downto 0 do
    if t.p2m.(i) <> None then acc := i :: !acc
  done;
  !acc

let populated_count t =
  let n = ref 0 in
  Array.iter (function Some _ -> incr n | None -> ()) t.p2m;
  !n

let iter_populated t f =
  Array.iteri (fun pfn -> function Some mfn -> f pfn mfn | None -> ()) t.p2m

let owned t = Phys_mem.Dom t.id

let kernel_vaddr_of_pfn pfn =
  Int64.add Layout.guest_kernel_base (Int64.of_int (pfn * Addr.page_size))

let pfn_of_kernel_vaddr va =
  let va = Addr.canonical va in
  if va >= Layout.guest_kernel_base then
    let delta = Int64.sub va Layout.guest_kernel_base in
    let pfn = Int64.to_int (Int64.shift_right_logical delta Addr.page_shift) in
    Some pfn
  else None

let pp ppf t =
  Format.fprintf ppf "dom%d(%s%s, %d pages)" t.id t.name
    (if t.privileged then ", privileged" else "")
    (populated_count t)
