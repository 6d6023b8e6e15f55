(* In-memory span recorder for the traced run.

   A span is one call into a layer's public function, timed from the
   benchmark side: kind, trial id, parent span, start and end on the
   monotonic clock. Spans nest (a campaign trial contains its snapshot,
   tick and injection spans), so each span also accumulates the time
   its children covered; self time is duration minus that.

   Each domain records into its own buffer (no locking on the hot
   path); buffers are registered once, under a mutex, when a domain
   first records. Nothing is written until the run ends. *)

type kind =
  | Trial
  | Create
  | Fork
  | Reset
  | Install
  | Inject_write
  | Inject_read
  | Snapshot
  | Violations
  | Audit
  | Tick_all
  | Attempt
  | Env
  | Hypercall
  | Guest_op
  | Payload
  | Load
  | Record
  | Replay
  | Vmi_step

let kinds =
  [|
    Trial; Create; Fork; Reset; Install; Inject_write; Inject_read; Snapshot; Violations; Audit;
    Tick_all; Attempt; Env; Hypercall; Guest_op; Payload; Load; Record; Replay; Vmi_step;
  |]

let kind_index k =
  let rec go i = if kinds.(i) = k then i else go (i + 1) in
  go 0

let kind_name = function
  | Trial -> "campaign.trial"
  | Create -> "testbed.create"
  | Fork -> "testbed.fork"
  | Reset -> "testbed.reset"
  | Install -> "injector.install"
  | Inject_write -> "injector.write"
  | Inject_read -> "injector.read"
  | Snapshot -> "monitor.snapshot"
  | Violations -> "monitor.violations"
  | Audit -> "campaign.audit"
  | Tick_all -> "testbed.tick_all"
  | Attempt -> "campaign.attempt"
  | Env -> "scenario.env"
  | Hypercall -> "scenario.hypercall"
  | Guest_op -> "scenario.guest_op"
  | Payload -> "scenario.payload"
  | Load -> "scenario.load"
  | Record -> "trace.record"
  | Replay -> "trace.replay"
  | Vmi_step -> "vmi.step"

let now () = Int64.to_int (Monotonic_clock.now ())

type buf = {
  id : int;
  mutable n : int;
  mutable kind : int array;
  mutable trial : int array;
  mutable parent : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable child : int array;
  mutable top : int;  (* index of the innermost open span, -1 if none *)
  mutable cur_trial : int;
}

let recording = Atomic.make false
let registry : buf list ref = ref []
let registry_lock = Mutex.create ()

let make_buf () =
  let cap = 1024 in
  Mutex.lock registry_lock;
  let b =
    {
      id = List.length !registry; n = 0; kind = Array.make cap 0; trial = Array.make cap 0;
      parent = Array.make cap 0; start = Array.make cap 0; stop = Array.make cap 0;
      child = Array.make cap 0; top = -1; cur_trial = -1;
    }
  in
  registry := b :: !registry;
  Mutex.unlock registry_lock;
  b

let key = Stdlib.Domain.DLS.new_key make_buf
let buffer () = Stdlib.Domain.DLS.get key

let grow b =
  let cap = 2 * Array.length b.kind in
  let g a = Array.append a (Array.make (cap - Array.length a) 0) in
  b.kind <- g b.kind;
  b.trial <- g b.trial;
  b.parent <- g b.parent;
  b.start <- g b.start;
  b.stop <- g b.stop;
  b.child <- g b.child

let close b i =
  let t = now () in
  b.stop.(i) <- t;
  let p = b.parent.(i) in
  if p >= 0 then b.child.(p) <- b.child.(p) + (t - b.start.(i));
  b.top <- p

(* [span k f] runs [f] and, while recording is on, records it as a
   span of kind [k] under the innermost open span of this domain. *)
let span k f =
  if not (Atomic.get recording) then f ()
  else begin
    let b = buffer () in
    if b.n = Array.length b.kind then grow b;
    let i = b.n in
    b.n <- i + 1;
    b.kind.(i) <- kind_index k;
    b.trial.(i) <- b.cur_trial;
    b.parent.(i) <- b.top;
    b.child.(i) <- 0;
    b.top <- i;
    b.start.(i) <- now ();
    match f () with
    | r ->
        close b i;
        r
    | exception e ->
        close b i;
        raise e
  end

let set_trial i = (buffer ()).cur_trial <- i

let buffers () =
  Mutex.lock registry_lock;
  let bs = List.rev !registry in
  Mutex.unlock registry_lock;
  bs

let clear () =
  List.iter
    (fun b ->
      b.n <- 0;
      b.top <- -1;
      b.cur_trial <- -1)
    (buffers ())

(* Durations and self times of every closed span of kind [k], in µs. *)
let samples k =
  let ki = kind_index k in
  let dur = ref [] and self = ref [] in
  List.iter
    (fun b ->
      for i = 0 to b.n - 1 do
        if b.kind.(i) = ki then begin
          let d = b.stop.(i) - b.start.(i) in
          dur := (float_of_int d /. 1e3) :: !dur;
          self := (float_of_int (d - b.child.(i)) /. 1e3) :: !self
        end
      done)
    (buffers ());
  (Array.of_list !dur, Array.of_list !self)

let count k = Array.length (fst (samples k))

(* Per buffer: the summed duration of its top-level spans of kind [k]
   in ns (the time that domain's worker was busy on trials). *)
let busy_ns k =
  let ki = kind_index k in
  List.filter_map
    (fun b ->
      let s = ref 0 and any = ref false in
      for i = 0 to b.n - 1 do
        if b.kind.(i) = ki && b.parent.(i) < 0 then begin
          any := true;
          s := !s + (b.stop.(i) - b.start.(i))
        end
      done;
      if !any then Some !s else None)
    (buffers ())

(* Duration (µs) of every span of kind [k] accepted by [trial] (its
   trial id), minus the time its descendants of kind [c] took: record
   and replay times without their testbed boots. *)
let samples_without ?(trial = fun _ -> true) k c =
  let ki = kind_index k and ci = kind_index c in
  List.concat_map
    (fun b ->
      let excluded = Hashtbl.create 64 in
      for i = 0 to b.n - 1 do
        if b.kind.(i) = ci then begin
          let rec up p =
            if p >= 0 then
              if b.kind.(p) = ki then
                Hashtbl.replace excluded p
                  (Option.value ~default:0 (Hashtbl.find_opt excluded p) + b.stop.(i) - b.start.(i))
              else up b.parent.(p)
          in
          up b.parent.(i)
        end
      done;
      List.filter_map
        (fun i ->
          if b.kind.(i) = ki && trial b.trial.(i) then
            let c = Option.value ~default:0 (Hashtbl.find_opt excluded i) in
            Some (float_of_int (b.stop.(i) - b.start.(i) - c) /. 1e3)
          else None)
        (List.init b.n Fun.id))
    (buffers ())
  |> Array.of_list

(* One line per span, at most [limit] lines:
   domain, trial, index, parent, kind, start_ns, dur_ns, self_ns. *)
let write oc ~limit =
  output_string oc "domain\ttrial\tspan\tparent\tkind\tstart_ns\tdur_ns\tself_ns\n";
  let written = ref 0 in
  List.iter
    (fun b ->
      for i = 0 to b.n - 1 do
        if !written < limit then begin
          incr written;
          let d = b.stop.(i) - b.start.(i) in
          Printf.fprintf oc "%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\n" b.id b.trial.(i) i b.parent.(i)
            (kind_name kinds.(b.kind.(i)))
            b.start.(i) d
            (d - b.child.(i))
        end
      done)
    (buffers ());
  !written
