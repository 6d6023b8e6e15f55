(* Order statistics over timing samples. *)

type summary = { n : int; p50 : float; p99 : float }

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let summarize xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  { n = Array.length s; p50 = quantile s 0.5; p99 = quantile s 0.99 }

(* The [q] quantile of unsorted samples. *)
let quantile_of xs q =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  quantile s q

let median xs = quantile_of xs 0.5

(* Cut per-trial latencies (µs, in run order) into slices of
   consecutive trials, each covering at least [slice_us] of trial time;
   a short tail is dropped. *)
let slices ~slice_us lat =
  let out = ref [] and cur = ref [] and acc = ref 0. in
  Array.iter
    (fun x ->
      cur := x :: !cur;
      acc := !acc +. x;
      if !acc >= slice_us then begin
        out := Array.of_list !cur :: !out;
        cur := [];
        acc := 0.
      end)
    lat;
  List.rev !out
