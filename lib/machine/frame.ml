open Bigarray

(* A frame's 4 KiB live outside the OCaml heap. Page contents are most
   of a testbed's live data, and every live heap word costs the major
   GC several words of heap at steady state, so keeping frames off-heap
   keeps the heap a small multiple of the bookkeeping instead. *)
type t = (char, int8_unsigned_elt, c_layout) Array1.t

external unsafe_get_64 : t -> int -> int64 = "%caml_bigstring_get64u"
external unsafe_set_64 : t -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"
external bytes_get_64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external bytes_set_64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

(* frames are little-endian whatever the host *)
let le v = if Sys.big_endian then bswap64 v else v
let unsafe_get_u64 (t : t) off = le (unsafe_get_64 t off)

let create () =
  let t = Array1.create char c_layout Addr.page_size in
  Array1.fill t '\000';
  t

let copy (t : t) =
  let c = Array1.create char c_layout Addr.page_size in
  Array1.blit t c;
  c

let blit ~(src : t) ~(dst : t) = Array1.blit src dst

let check off len =
  if off < 0 || off + len > Addr.page_size then
    invalid_arg (Printf.sprintf "Frame: access [%d,+%d) out of page" off len)

let get_u8 (t : t) off =
  check off 1;
  Char.code (Array1.unsafe_get t off)

let set_u8 (t : t) off v =
  check off 1;
  Array1.unsafe_set t off (Char.unsafe_chr (v land 0xff))

let get_u64 (t : t) off =
  check off 8;
  le (unsafe_get_64 t off)

let set_u64 (t : t) off v =
  check off 8;
  unsafe_set_64 t off (le v)

let get_entry t i = get_u64 t (8 * i)
let set_entry t i v = set_u64 t (8 * i) v

(* The present bit is bit 0 of a little-endian entry: one byte read,
   no int64 boxing — what makes full-table scans cheap. *)
let entry_present (t : t) i =
  check (8 * i) 8;
  Char.code (Array1.unsafe_get t (8 * i)) land 1 <> 0

let iter_present (t : t) f =
  for i = 0 to 511 do
    if Char.code (Array1.unsafe_get t (8 * i)) land 1 <> 0 then f i (unsafe_get_u64 t (8 * i))
  done

(* Copies between a frame and a byte buffer (both sides already
   range-checked): 32 bytes per iteration, then 8, then single bytes. *)
let unsafe_to_bytes (t : t) off dst dpos len =
  let k = ref 0 in
  while !k + 32 <= len do
    let i = !k in
    bytes_set_64 dst (dpos + i) (unsafe_get_64 t (off + i));
    bytes_set_64 dst (dpos + i + 8) (unsafe_get_64 t (off + i + 8));
    bytes_set_64 dst (dpos + i + 16) (unsafe_get_64 t (off + i + 16));
    bytes_set_64 dst (dpos + i + 24) (unsafe_get_64 t (off + i + 24));
    k := i + 32
  done;
  while !k + 8 <= len do
    bytes_set_64 dst (dpos + !k) (unsafe_get_64 t (off + !k));
    k := !k + 8
  done;
  for i = !k to len - 1 do
    Bytes.unsafe_set dst (dpos + i) (Array1.unsafe_get t (off + i))
  done

let unsafe_of_bytes src spos (t : t) off len =
  let k = ref 0 in
  while !k + 32 <= len do
    let i = !k in
    unsafe_set_64 t (off + i) (bytes_get_64 src (spos + i));
    unsafe_set_64 t (off + i + 8) (bytes_get_64 src (spos + i + 8));
    unsafe_set_64 t (off + i + 16) (bytes_get_64 src (spos + i + 16));
    unsafe_set_64 t (off + i + 24) (bytes_get_64 src (spos + i + 24));
    k := i + 32
  done;
  while !k + 8 <= len do
    unsafe_set_64 t (off + !k) (bytes_get_64 src (spos + !k));
    k := !k + 8
  done;
  for i = !k to len - 1 do
    Array1.unsafe_set t (off + i) (Bytes.unsafe_get src (spos + i))
  done

let blit_to_bytes t off dst dpos len =
  check off len;
  if dpos < 0 || len < 0 || dpos > Bytes.length dst - len then invalid_arg "Frame.blit_to_bytes";
  unsafe_to_bytes t off dst dpos len

let blit_from_bytes src spos t off len =
  check off len;
  if spos < 0 || len < 0 || spos > Bytes.length src - len then invalid_arg "Frame.blit_from_bytes";
  unsafe_of_bytes src spos t off len

let read_bytes t off len =
  check off len;
  let b = Bytes.create len in
  unsafe_to_bytes t off b 0 len;
  b

let write_bytes t off b = blit_from_bytes b 0 t off (Bytes.length b)
let write_string t off s = write_bytes t off (Bytes.unsafe_of_string s)
let fill (t : t) c = Array1.fill t c

let find_string (t : t) pat =
  let n = String.length pat in
  if n = 0 then Some 0
  else
    let limit = Addr.page_size - n in
    let rec matches i j = j >= n || (Array1.unsafe_get t (i + j) = pat.[j] && matches i (j + 1)) in
    let rec scan i = if i > limit then None else if matches i 0 then Some i else scan (i + 1) in
    scan 0

let equal (a : t) (b : t) =
  let rec go k = k >= Addr.page_size || (unsafe_get_64 a k = unsafe_get_64 b k && go (k + 8)) in
  go 0

let to_bytes t = read_bytes t 0 Addr.page_size

let fnv64 (t : t) =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to Addr.page_size - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (Array1.unsafe_get t i)));
    h := Int64.mul !h 0x100000001b3L
  done;
  !h
