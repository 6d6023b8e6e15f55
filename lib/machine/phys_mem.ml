type owner = Free | Xen | Dom of int

(* Free frames are tracked in a bitmap, 62 frames per word (OCaml ints
   are 63-bit; the top bit stays clear so a full word is [max_int]), so
   [alloc] finds the lowest free frame with a word scan + bit scan
   instead of an O(frames) owner-array rescan. *)
let bits_per_word = 62

type baseline = {
  (* pre-images of frames dirtied since capture, indexed by mfn and
     valid exactly for the frames on [dirty_frames]: copied lazily on
     the first write to each frame; [no_image] means the frame was a
     scrubbed (all-zero) frame at capture time, so no bytes need
     storing *)
  b_img : Frame.t array;
  b_owner : owner array;
  b_free_count : int;
  mutable b_spare : Frame.t list;
      (* page-sized pre-image buffers handed back by [reset_to_baseline];
         the next trial's [mark_dirty] blits into them instead of
         allocating a fresh page per dirtied frame *)
}

let no_image = Frame.create ()

let new_baseline ~frames ~free_count ~spare =
  {
    b_img = Array.make frames no_image;
    b_owner = Array.make frames Free;
    b_free_count = free_count;
    b_spare = spare;
  }

type t = {
  frames : Frame.t array;
  owners : owner array;
  free_bits : int array;  (* bit [b] of word [w] set iff frame [w*62+b] is Free *)
  mutable free_count : int;
  mutable next_hint : int;  (* no word below this index has a free bit *)
  dirty : Bytes.t;  (* one byte per frame: '\001' = touched since baseline *)
  scrubbed : Bytes.t;
  (* '\001' = the frame is known to hold all zeroes ([create]/[free]
     scrub; content writes clear the flag). Lets [alloc] skip the
     zero-fill and lets baseline capture/reset skip 4 KiB copies for
     frames that merely changed owner — the memory-exhaustion trials
     allocate thousands of frames they never write. *)
  mutable dirty_frames : int list;
  mutable gen : int;  (* bumped when cached translations may go stale (free/reset) *)
  mutable baseline : baseline option;
  mutable baseline_epoch : int;  (* identifies which baseline is current *)
  mutable prov : Provenance.t option;
      (* byte-granular taint shadow; detached (None) by default so the
         provenance-off cost is one option match per write path *)
  mutable frozen : bool;
      (* an immutable fork template: any mutation raises. Frozen
         memories are safe to share between domains (all reads). *)
  cow : Bytes.t;
  (* '\001' = the frame's [Frame.t] is still physically shared — with
     the frozen template this memory was forked from, or with
     [zero_page] in a fresh memory; the first content write replaces it
     with a private copy (see [unshare]) *)
  mutable cow_count : int;
}

exception Bad_maddr of Addr.maddr

(* The all-zero page every frame of a fresh memory aliases: a fresh
   memory is a fork of "all zeroes", so it costs the metadata arrays
   plus the frames actually written. Never written — every content
   write path unshares first — so domains may share it freely. *)
let zero_page = Frame.create ()

let create ~frames =
  if frames <= 0 then invalid_arg "Phys_mem.create: frames must be positive";
  let words = ((frames + bits_per_word - 1) / bits_per_word) in
  let free_bits =
    Array.init words (fun w ->
        let base = w * bits_per_word in
        let n = min bits_per_word (frames - base) in
        if n = bits_per_word then max_int else (1 lsl n) - 1)
  in
  {
    frames = Array.make frames zero_page;
    owners = Array.make frames Free;
    free_bits;
    free_count = frames;
    next_hint = 0;
    dirty = Bytes.make frames '\000';
    scrubbed = Bytes.make frames '\001';
    dirty_frames = [];
    gen = 0;
    baseline = None;
    baseline_epoch = 0;
    prov = None;
    frozen = false;
    cow = Bytes.make frames '\001';
    cow_count = frames;
  }

let total_frames t = Array.length t.frames
let is_valid_mfn t mfn = mfn >= 0 && mfn < total_frames t
let generation t = t.gen

(* --- provenance -------------------------------------------------------- *)

let set_provenance t p =
  if t.frozen then invalid_arg "Phys_mem.set_provenance: template is frozen";
  t.prov <- p
let provenance t = t.prov

let taint t ~mfn ~off ~len =
  match t.prov with None -> () | Some p -> Provenance.taint p ~mfn ~off ~len

let observe t ~consumer ~mfn ~off ~len =
  match t.prov with None -> () | Some p -> Provenance.observe p ~consumer ~mfn ~off ~len

let with_origin t origin f =
  match t.prov with None -> f () | Some p -> Provenance.with_origin p origin f

let prov_clear_frame t mfn =
  match t.prov with None -> () | Some p -> Provenance.clear_frame p mfn

(* --- dirty tracking --------------------------------------------------- *)

(* Conservative: anything that can mutate a frame marks it dirty first,
   so the pre-image under [baseline] is taken before the write lands. *)
let mark_dirty t mfn =
  if t.frozen then invalid_arg "Phys_mem: frozen fork template is immutable";
  if Bytes.unsafe_get t.dirty mfn = '\000' then begin
    Bytes.unsafe_set t.dirty mfn '\001';
    t.dirty_frames <- mfn :: t.dirty_frames;
    match t.baseline with
    | Some b ->
        if Bytes.unsafe_get t.scrubbed mfn = '\000' then begin
          let buf =
            match b.b_spare with
            | buf :: rest ->
                b.b_spare <- rest;
                buf
            | [] -> Frame.create ()
          in
          Frame.blit ~src:t.frames.(mfn) ~dst:buf;
          b.b_img.(mfn) <- buf
        end;
        b.b_owner.(mfn) <- t.owners.(mfn)
    | None -> ()
  end

(* Detach a COW-shared frame from its template (or from [zero_page])
   before the first content write: the memory gets a private copy (or a
   fresh zero frame when the shared one is known-zero) and the shared
   bytes stay untouched — which is what lets many forks share one
   template concurrently. *)
let unshare t mfn =
  if Bytes.unsafe_get t.cow mfn = '\001' then begin
    Bytes.unsafe_set t.cow mfn '\000';
    t.cow_count <- t.cow_count - 1;
    t.frames.(mfn) <-
      (if Bytes.unsafe_get t.scrubbed mfn = '\001' then Frame.create ()
       else Frame.copy t.frames.(mfn))
  end

(* Call before any write that can make the frame's contents non-zero. *)
let mark_written t mfn =
  mark_dirty t mfn;
  unshare t mfn;
  Bytes.unsafe_set t.scrubbed mfn '\000'

let dirty_count t = List.length t.dirty_frames

let capture_baseline t =
  if t.frozen then invalid_arg "Phys_mem.capture_baseline: template is frozen";
  List.iter (fun mfn -> Bytes.set t.dirty mfn '\000') t.dirty_frames;
  t.dirty_frames <- [];
  let spare = match t.baseline with Some b -> b.b_spare | None -> [] in
  t.baseline <-
    Some (new_baseline ~frames:(total_frames t) ~free_count:t.free_count ~spare);
  t.baseline_epoch <- t.baseline_epoch + 1;
  match t.prov with None -> () | Some p -> Provenance.capture_baseline p

let baseline_epoch t = t.baseline_epoch

let dirty_list t = t.dirty_frames

(* --- free bitmap helpers ---------------------------------------------- *)

let set_free_bit t mfn =
  let w = mfn / bits_per_word and b = mfn mod bits_per_word in
  t.free_bits.(w) <- t.free_bits.(w) lor (1 lsl b);
  if w < t.next_hint then t.next_hint <- w

let clear_free_bit t mfn =
  let w = mfn / bits_per_word and b = mfn mod bits_per_word in
  t.free_bits.(w) <- t.free_bits.(w) land lnot (1 lsl b)

let reset_to_baseline t =
  if t.frozen then invalid_arg "Phys_mem.reset_to_baseline: template is frozen";
  match t.baseline with
  | None -> invalid_arg "Phys_mem.reset_to_baseline: no baseline captured"
  | Some b ->
      let restored = ref 0 in
      List.iter
        (fun mfn ->
          let img = b.b_img.(mfn) in
          if img == no_image then begin
            (* the frame held zeroes at capture; rescrub only if it was
               written since *)
            if Bytes.unsafe_get t.scrubbed mfn = '\000' then begin
              Frame.fill t.frames.(mfn) '\000';
              Bytes.unsafe_set t.scrubbed mfn '\001'
            end
          end
          else begin
            (* a frame still COW-shared was never content-written (writes
               unshare first), so its bytes already equal the pre-image:
               skip the 4 KiB restore — and never write into the shared
               frame *)
            if Bytes.unsafe_get t.cow mfn = '\000' then begin
              Frame.blit ~src:img ~dst:t.frames.(mfn);
              Bytes.unsafe_set t.scrubbed mfn '\000'
            end;
            b.b_img.(mfn) <- no_image;
            b.b_spare <- img :: b.b_spare
          end;
          let o = b.b_owner.(mfn) in
          (match (t.owners.(mfn), o) with
          | Free, Free -> ()
          | Free, _ -> clear_free_bit t mfn
          | _, Free -> set_free_bit t mfn
          | _, _ -> ());
          t.owners.(mfn) <- o;
          Bytes.unsafe_set t.dirty mfn '\000';
          incr restored)
        t.dirty_frames;
      t.dirty_frames <- [];
      t.free_count <- b.b_free_count;
      (* frames may have become free below the hint again *)
      t.next_hint <- 0;
      t.gen <- t.gen + 1;
      (match t.prov with None -> () | Some p -> Provenance.reset_to_baseline p);
      !restored

(* --- copy-on-write forking --------------------------------------------
   A frozen memory is an immutable template: [fork] builds a new memory
   in O(metadata) whose frames all physically alias the template's, with
   an already-armed baseline equal to the template state. The first
   content write to any frame detaches it ([unshare]); frames the fork
   never writes are never copied, so a freshly forked testbed costs the
   metadata arrays rather than [frames] x 4 KiB — and [reset_to_baseline]
   skips still-shared frames entirely. *)

let freeze t =
  (match t.baseline with
  | None -> invalid_arg "Phys_mem.freeze: capture a baseline first"
  | Some _ -> ());
  if t.dirty_frames <> [] then
    invalid_arg "Phys_mem.freeze: template diverged from its baseline";
  t.frozen <- true

let is_frozen t = t.frozen

let fork template =
  if not template.frozen then invalid_arg "Phys_mem.fork: template must be frozen";
  let n = Array.length template.frames in
  {
    frames = Array.copy template.frames;  (* shares the Frame.t bytes *)
    owners = Array.copy template.owners;
    free_bits = Array.copy template.free_bits;
    free_count = template.free_count;
    next_hint = template.next_hint;
    dirty = Bytes.make n '\000';
    scrubbed = Bytes.copy template.scrubbed;
    dirty_frames = [];
    gen = template.gen;
    (* the fork is born exactly at the template's baseline, so its own
       baseline starts armed and empty: resets work from trial one *)
    baseline =
      Some (new_baseline ~frames:n ~free_count:template.free_count ~spare:[]);
    baseline_epoch = template.baseline_epoch;
    prov = None;
    frozen = false;
    cow = Bytes.make n '\001';
    cow_count = n;
  }

let shared_frames t = t.cow_count

(* --- ownership / allocation ------------------------------------------- *)

let frame t mfn =
  if not (is_valid_mfn t mfn) then raise (Bad_maddr (Addr.maddr_of_mfn mfn));
  mark_written t mfn;
  t.frames.(mfn)

let frame_ro t mfn =
  if not (is_valid_mfn t mfn) then raise (Bad_maddr (Addr.maddr_of_mfn mfn));
  t.frames.(mfn)

let frame_hash t mfn = Frame.fnv64 (frame_ro t mfn)

let owner t mfn =
  if not (is_valid_mfn t mfn) then raise (Bad_maddr (Addr.maddr_of_mfn mfn));
  t.owners.(mfn)

let set_owner t mfn o =
  if not (is_valid_mfn t mfn) then raise (Bad_maddr (Addr.maddr_of_mfn mfn));
  mark_dirty t mfn;
  (match (t.owners.(mfn), o) with
  | Free, Free -> ()
  | Free, _ ->
      clear_free_bit t mfn;
      t.free_count <- t.free_count - 1
  | _, Free ->
      set_free_bit t mfn;
      t.free_count <- t.free_count + 1
  | _, _ -> ());
  t.owners.(mfn) <- o

(* Zero a frame unless it is already known-zero (a scrubbed frame is
   the zeroed page [alloc] promises). A still-shared frame gets a fresh
   zero frame swapped in rather than scrubbing — and thus corrupting —
   the shared bytes. *)
let scrub t mfn =
  if Bytes.unsafe_get t.scrubbed mfn = '\000' then begin
    if Bytes.unsafe_get t.cow mfn = '\001' then begin
      Bytes.unsafe_set t.cow mfn '\000';
      t.cow_count <- t.cow_count - 1;
      t.frames.(mfn) <- Frame.create ()
    end
    else Frame.fill t.frames.(mfn) '\000';
    Bytes.unsafe_set t.scrubbed mfn '\001';
    prov_clear_frame t mfn
  end

let lowest_bit word =
  let rec go b = if word land (1 lsl b) <> 0 then b else go (b + 1) in
  go 0

let alloc t o =
  if o = Free then invalid_arg "Phys_mem.alloc: cannot allocate to Free";
  let words = Array.length t.free_bits in
  let w = ref t.next_hint in
  while !w < words && t.free_bits.(!w) = 0 do incr w done;
  if !w >= words then failwith "Phys_mem.alloc: out of physical memory"
  else begin
    t.next_hint <- !w;
    let mfn = (!w * bits_per_word) + lowest_bit t.free_bits.(!w) in
    mark_dirty t mfn;
    clear_free_bit t mfn;
    t.owners.(mfn) <- o;
    t.free_count <- t.free_count - 1;
    scrub t mfn;
    mfn
  end

let alloc_many t o n = List.init n (fun _ -> alloc t o)

let free t mfn =
  if not (is_valid_mfn t mfn) then raise (Bad_maddr (Addr.maddr_of_mfn mfn));
  mark_dirty t mfn;
  if t.owners.(mfn) <> Free then begin
    set_free_bit t mfn;
    t.free_count <- t.free_count + 1
  end;
  t.owners.(mfn) <- Free;
  scrub t mfn;
  (* a reused frame must never hit a stale cached translation *)
  t.gen <- t.gen + 1

let free_frames t = t.free_count

let frames_owned_by t o =
  let acc = ref [] in
  for i = total_frames t - 1 downto 0 do
    if t.owners.(i) = o then acc := i :: !acc
  done;
  !acc

let split t ma len =
  let mfn = Addr.mfn_of_maddr ma in
  if not (is_valid_mfn t mfn) then raise (Bad_maddr ma);
  let off = Addr.page_offset ma in
  if off + len > Addr.page_size then raise (Bad_maddr ma) else (mfn, off)

let read_u8 t ma =
  let mfn, off = split t ma 1 in
  Frame.get_u8 t.frames.(mfn) off

let write_u8 t ma v =
  let mfn, off = split t ma 1 in
  mark_written t mfn;
  Frame.set_u8 t.frames.(mfn) off v;
  match t.prov with None -> () | Some p -> Provenance.taint p ~mfn ~off ~len:1

(* --- int-addressed access ----------------------------------------------
   The CPU's hot path translates to an int machine address (RAM ends far
   below 2^62), so the 64-bit and bulk accessors take the address
   unboxed; the [int64] entry points check that it lies in RAM (so it
   converts exactly) and delegate. *)

let bad_maddr ma = raise (Bad_maddr (Int64.of_int ma))

let in_ram t ma =
  if ma < 0L || ma >= Int64.of_int (total_frames t * Addr.page_size) then raise (Bad_maddr ma);
  Int64.to_int ma

(* 64-bit accesses are required to be contained in one frame, as natural
   alignment guarantees on real hardware. *)
let check_u64 t ma =
  if ma < 0 || ma lsr Addr.page_shift >= total_frames t
     || ma land (Addr.page_size - 1) > Addr.page_size - 8
  then bad_maddr ma

let read_u64_at t ma =
  check_u64 t ma;
  Frame.get_u64 t.frames.(ma lsr Addr.page_shift) (ma land (Addr.page_size - 1))

let write_u64_at t ma v =
  check_u64 t ma;
  let mfn = ma lsr Addr.page_shift and off = ma land (Addr.page_size - 1) in
  mark_written t mfn;
  Frame.set_u64 t.frames.(mfn) off v;
  match t.prov with None -> () | Some p -> Provenance.taint p ~mfn ~off ~len:8

let read_u64 t ma = read_u64_at t (in_ram t ma)
let write_u64 t ma v = write_u64_at t (in_ram t ma) v

(* --- bulk transfers ---------------------------------------------------
   Blit frame-sized chunks instead of going byte by byte; a range that
   runs off the end of memory raises [Bad_maddr] at the first invalid
   frame boundary, exactly where the per-byte loop used to stop. *)

let rec read_into_at t ma buf pos len =
  if len > 0 then begin
    let mfn = ma lsr Addr.page_shift in
    if ma < 0 || mfn >= total_frames t then bad_maddr ma;
    let off = ma land (Addr.page_size - 1) in
    let chunk = min len (Addr.page_size - off) in
    Frame.blit_to_bytes t.frames.(mfn) off buf pos chunk;
    read_into_at t (ma + chunk) buf (pos + chunk) (len - chunk)
  end

let rec write_from_at t ma buf pos len =
  if len > 0 then begin
    let mfn = ma lsr Addr.page_shift in
    if ma < 0 || mfn >= total_frames t then bad_maddr ma;
    let off = ma land (Addr.page_size - 1) in
    let chunk = min len (Addr.page_size - off) in
    mark_written t mfn;
    Frame.blit_from_bytes buf pos t.frames.(mfn) off chunk;
    (match t.prov with
    | None -> ()
    | Some p -> Provenance.taint p ~mfn ~off ~len:chunk);
    write_from_at t (ma + chunk) buf (pos + chunk) (len - chunk)
  end

let read_into t ma buf pos len = if len > 0 then read_into_at t (in_ram t ma) buf pos len
let write_from t ma buf pos len = if len > 0 then write_from_at t (in_ram t ma) buf pos len

let read_bytes t ma len =
  let buf = Bytes.create len in
  read_into t ma buf 0 len;
  buf

let write_bytes t ma b = write_from t ma b 0 (Bytes.length b)
let write_string t ma s = write_bytes t ma (Bytes.of_string s)
