type gpa = int64

type fault = Ept_violation of gpa | Guest_not_present of int | Guest_protection

(* The EPT is a normal 4-level table over the guest-physical space, so
   the machine walker applies verbatim (guest-physical plays the role
   of the virtual address). Only the frame matters here, so this takes
   the walker that builds no path. *)
let ept_translate mem ~ept_root gpa =
  let c = Paging.walk_code mem ~cr3:ept_root gpa in
  if Paging.Code.is_ok c then Ok (Int64.of_int (Paging.Code.page c + Addr.page_offset gpa))
  else Error (Ept_violation gpa)

let guest_index level va =
  match level with
  | 4 -> Addr.l4_index va
  | 3 -> Addr.l3_index va
  | 2 -> Addr.l2_index va
  | 1 -> Addr.l1_index va
  | _ -> invalid_arg "Nested.guest_index"

let translate mem ~ept_root ~guest_cr3_gpa ~write va =
  let va = Addr.canonical va in
  let read_gpa_u64 gpa =
    match ept_translate mem ~ept_root gpa with
    | Ok ma -> Ok (Phys_mem.read_u64 mem ma)
    | Error f -> Error f
  in
  let rec walk level table_gpa rw =
    let entry_gpa = Int64.add table_gpa (Int64.of_int (8 * guest_index level va)) in
    match read_gpa_u64 entry_gpa with
    | Error f -> Error f
    | Ok entry ->
        if not (Pte.is_present entry) then Error (Guest_not_present level)
        else
          let rw = rw && Pte.test Pte.Rw entry in
          let next_gpa = Addr.maddr_of_mfn (Pte.mfn entry) in
          if level = 1 then
            if write && not rw then Error Guest_protection
            else
              let leaf_gpa = Int64.add next_gpa (Int64.of_int (Addr.page_offset va)) in
              ept_translate mem ~ept_root leaf_gpa
          else walk (level - 1) next_gpa rw
  in
  walk 4 (Addr.align_down guest_cr3_gpa) true

let map_gpa mem ~alloc ~ept_root gpa mfn =
  let gpa = Addr.canonical gpa in
  let rec go level table_mfn =
    let index = guest_index level gpa in
    let frame = Phys_mem.frame mem table_mfn in
    if level = 1 then
      Frame.set_entry frame index (Pte.make ~mfn ~flags:[ Pte.Present; Pte.Rw; Pte.User ])
    else
      let entry = Frame.get_entry frame index in
      let next =
        if Pte.is_present entry then Pte.mfn entry
        else begin
          let fresh = alloc () in
          Frame.set_entry frame index
            (Pte.make ~mfn:fresh ~flags:[ Pte.Present; Pte.Rw; Pte.User ]);
          fresh
        end
      in
      go (level - 1) next
  in
  go 4 ept_root
