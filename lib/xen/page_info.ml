type ptype = PGT_none | PGT_writable | PGT_l1 | PGT_l2 | PGT_l3 | PGT_l4 | PGT_seg

(* --- packed layout -----------------------------------------------------
   One immediate OCaml int per frame, so an instance is a single flat
   [int array] (8 bytes a frame) with no per-frame heap block, and
   checkpointing is an [Array.copy]:

     bits  0-2   ptype ([ptype_code])
     bit   3     validated
     bit   4     pinned
     bits  5-20  owner: 0 = Free, 1 = Xen, 2 + d = Dom d
     bits 21-41  type_count
     bits 42-62  ref_count

   A fresh frame (Free, no type, counts 0, flags clear) is the word 0. *)

let ptype_mask = 0x7
let validated_bit = 1 lsl 3
let pinned_bit = 1 lsl 4
let owner_shift = 5
let owner_mask = 0xFFFF
let tc_shift = 21
let rc_shift = 42
let count_mask = 0x1F_FFFF
let max_count = count_mask
let max_domid = owner_mask - 2

(* The bits the monitor's type-dependent audits read (ownership, type,
   type count): a change to any of them moves [generation]. *)
let type_state_bits = ptype_mask lor (owner_mask lsl owner_shift) lor (count_mask lsl tc_shift)

let ptype_code = function
  | PGT_none -> 0
  | PGT_writable -> 1
  | PGT_l1 -> 2
  | PGT_l2 -> 3
  | PGT_l3 -> 4
  | PGT_l4 -> 5
  | PGT_seg -> 6

let ptype_of_code = [| PGT_none; PGT_writable; PGT_l1; PGT_l2; PGT_l3; PGT_l4; PGT_seg |]

let owner_code = function
  | Phys_mem.Free -> 0
  | Phys_mem.Xen -> 1
  | Phys_mem.Dom d ->
      if d < 0 || d > max_domid then invalid_arg "Page_info: domid out of range";
      d + 2

let owner_of_code = function 0 -> Phys_mem.Free | 1 -> Phys_mem.Xen | c -> Phys_mem.Dom (c - 2)

type t = {
  words : int array;
  (* Bumped on every change to a frame's [type_state_bits]; monitors use
     it to tell whether cached type-dependent scans are still valid.
     [restore] puts it back to the checkpointed value — sound because
     the whole array returns to exactly that state. *)
  mutable gen : int;
  (* the generation the last checkpoint (or restore, create,
     of_checkpoint) left: [gen = base_gen] iff no type-state change
     happened since *)
  mutable base_gen : int;
  (* frames whose word changed since the last [checkpoint], so
     [restore] replays O(touched) entries instead of the whole array *)
  touched : Bytes.t;
  mutable touched_stack : int array;
  mutable touched_n : int;
}

let make words ~gen =
  {
    words;
    gen;
    base_gen = gen;
    touched = Bytes.make (Array.length words) '\000';
    touched_stack = [||];
    touched_n = 0;
  }

let create ~frames = make (Array.make frames 0) ~gen:0

let word t mfn =
  if mfn < 0 || mfn >= Array.length t.words then invalid_arg "Page_info: bad mfn";
  Array.unsafe_get t.words mfn

let mark t mfn =
  if Bytes.unsafe_get t.touched mfn = '\000' then begin
    Bytes.unsafe_set t.touched mfn '\001';
    if t.touched_n = Array.length t.touched_stack then begin
      let grown = Array.make (max 64 (2 * t.touched_n)) 0 in
      Array.blit t.touched_stack 0 grown 0 t.touched_n;
      t.touched_stack <- grown
    end;
    t.touched_stack.(t.touched_n) <- mfn;
    t.touched_n <- t.touched_n + 1
  end

(* The single write path: every mutation lands here, so the touched set
   (what [restore] replays) and the generation (what the scan cache
   anchors on) can never be forgotten by a caller. *)
let store t mfn w =
  let old = word t mfn in
  if w <> old then begin
    mark t mfn;
    if (w lxor old) land type_state_bits <> 0 then t.gen <- t.gen + 1;
    Array.unsafe_set t.words mfn w
  end

let generation t = t.gen
let at_checkpoint t = t.gen = t.base_gen
let base_generation t = t.base_gen

(* --- accessors ------------------------------------------------------- *)

let ptype_bits w = w land ptype_mask
let type_count_of w = (w lsr tc_shift) land count_mask
let ptype t mfn = Array.unsafe_get ptype_of_code (ptype_bits (word t mfn))
let type_count t mfn = type_count_of (word t mfn)
let ref_count t mfn = (word t mfn lsr rc_shift) land count_mask
let validated t mfn = word t mfn land validated_bit <> 0
let pinned t mfn = word t mfn land pinned_bit <> 0
let owner t mfn = owner_of_code ((word t mfn lsr owner_shift) land owner_mask)
let owned_by_domain t mfn = (word t mfn lsr owner_shift) land owner_mask >= 2

let owned_by_domid t mfn domid =
  (word t mfn lsr owner_shift) land owner_mask = domid + 2

(* codes 2-5 are PGT_l1..PGT_l4 *)
let is_table_code c = c >= 2 && c <= 5

let typed_table t mfn =
  let w = word t mfn in
  is_table_code (ptype_bits w) && type_count_of w > 0

(* --- setters ---------------------------------------------------------- *)

let with_field w ~shift ~mask v = w land lnot (mask lsl shift) lor (v lsl shift)

let check_count name n =
  if n < 0 || n > max_count then invalid_arg ("Page_info." ^ name ^ ": count out of range")

let set_type_count t mfn n =
  check_count "set_type_count" n;
  store t mfn (with_field (word t mfn) ~shift:tc_shift ~mask:count_mask n)

let set_ref_count t mfn n =
  check_count "set_ref_count" n;
  store t mfn (with_field (word t mfn) ~shift:rc_shift ~mask:count_mask n)

let set_flag t mfn bit v =
  let w = word t mfn in
  store t mfn (if v then w lor bit else w land lnot bit)

let set_validated t mfn v = set_flag t mfn validated_bit v
let set_pinned t mfn v = set_flag t mfn pinned_bit v

let set_type t mfn p ~count =
  check_count "set_type" count;
  let w = with_field (word t mfn) ~shift:0 ~mask:ptype_mask (ptype_code p) in
  store t mfn (with_field w ~shift:tc_shift ~mask:count_mask count)

let assign t mfn o =
  store t mfn ((owner_code o lsl owner_shift) lor (1 lsl rc_shift))

let release t mfn =
  (* owner Free, no references, flags clear; the (dead) type stays *)
  let w = word t mfn in
  store t mfn (w land (ptype_mask lor (count_mask lsl tc_shift)))

(* --- the type discipline ---------------------------------------------- *)

let table_level = function
  | PGT_l1 -> Some 1
  | PGT_l2 -> Some 2
  | PGT_l3 -> Some 3
  | PGT_l4 -> Some 4
  | PGT_none | PGT_writable | PGT_seg -> None

let ptype_of_level = function
  | 1 -> PGT_l1
  | 2 -> PGT_l2
  | 3 -> PGT_l3
  | 4 -> PGT_l4
  | _ -> invalid_arg "Page_info.ptype_of_level"

let ptype_to_string = function
  | PGT_none -> "none"
  | PGT_writable -> "writable"
  | PGT_l1 -> "l1_table"
  | PGT_l2 -> "l2_table"
  | PGT_l3 -> "l3_table"
  | PGT_l4 -> "l4_table"
  | PGT_seg -> "seg_desc"

let get_page t mfn =
  let n = ref_count t mfn + 1 in
  check_count "get_page" n;
  set_ref_count t mfn n

let put_page t mfn =
  let n = ref_count t mfn in
  if n <= 0 then invalid_arg "Page_info.put_page: refcount underflow";
  set_ref_count t mfn (n - 1)

let get_page_type t mfn p =
  let w = word t mfn in
  let count = type_count_of w in
  if ptype_bits w = ptype_code p && count > 0 then begin
    set_type_count t mfn (count + 1);
    Ok ()
  end
  else if count = 0 then begin
    let w = with_field w ~shift:0 ~mask:ptype_mask (ptype_code p) in
    let w = with_field w ~shift:tc_shift ~mask:count_mask 1 in
    store t mfn (w land lnot validated_bit);
    Ok ()
  end
  else Error Errno.EBUSY

let put_page_type t mfn =
  let w = word t mfn in
  let count = type_count_of w in
  if count <= 0 then invalid_arg "Page_info.put_page_type: type count underflow";
  let w = with_field w ~shift:tc_shift ~mask:count_mask (count - 1) in
  store t mfn (if count = 1 then w land lnot (validated_bit lor pinned_bit) else w)

(* --- views ------------------------------------------------------------ *)

type view = {
  owner : Phys_mem.owner;
  ptype : ptype;
  type_count : int;
  ref_count : int;
  validated : bool;
  pinned : bool;
}

let view t mfn =
  {
    owner = owner t mfn;
    ptype = ptype t mfn;
    type_count = type_count t mfn;
    ref_count = ref_count t mfn;
    validated = validated t mfn;
    pinned = pinned t mfn;
  }

let counts_consistent t =
  (* the packed counts cannot go negative; what is left to check is
     that a pin implies a live type *)
  Array.for_all (fun w -> w land pinned_bit = 0 || type_count_of w > 0) t.words

(* --- checkpointing ---------------------------------------------------- *)

type checkpoint = { ck_words : int array; ck_gen : int }

let clear_touched t =
  for i = 0 to t.touched_n - 1 do
    Bytes.unsafe_set t.touched (Array.unsafe_get t.touched_stack i) '\000'
  done;
  t.touched_n <- 0

let checkpoint t =
  (* also resets the touched set: from here on it records divergence
     from exactly this checkpoint, which is what [restore] replays *)
  clear_touched t;
  t.base_gen <- t.gen;
  { ck_words = Array.copy t.words; ck_gen = t.gen }

let restore t ck =
  if Array.length ck.ck_words <> Array.length t.words then
    invalid_arg "Page_info.restore: size mismatch";
  (* only frames mutated since [checkpoint] can differ *)
  for i = 0 to t.touched_n - 1 do
    let mfn = Array.unsafe_get t.touched_stack i in
    Array.unsafe_set t.words mfn (Array.unsafe_get ck.ck_words mfn)
  done;
  clear_touched t;
  (* state is back to exactly the checkpointed one, so the generation
     returns too: equal generations mean equal type state *)
  t.gen <- ck.ck_gen;
  t.base_gen <- ck.ck_gen

(* A full instance built from a checkpoint — the forked-testbed path,
   where [restore] does not apply (a fresh [create] has an empty touched
   set, so replaying it would copy nothing). *)
let of_checkpoint ck = make (Array.copy ck.ck_words) ~gen:ck.ck_gen
