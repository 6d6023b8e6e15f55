(* Minor-GC pause time per domain, read from the OCaml 5 runtime's own
   event ring ([Runtime_events]) for this process. Started only in the
   traced run; [poll] must run often enough that the per-domain rings
   do not wrap (the campaign loops poll after every batch or round). *)

let pause_ns : (int, int64) Hashtbl.t = Hashtbl.create 8
let open_at : (int, int64) Hashtbl.t = Hashtbl.create 8
let lost = ref 0
let cursor = ref None

let callbacks =
  let runtime_begin dom ts phase =
    if phase = Runtime_events.EV_MINOR then
      Hashtbl.replace open_at dom (Runtime_events.Timestamp.to_int64 ts)
  in
  let runtime_end dom ts phase =
    if phase = Runtime_events.EV_MINOR then
      match Hashtbl.find_opt open_at dom with
      | None -> ()
      | Some t0 ->
          Hashtbl.remove open_at dom;
          let d = Int64.sub (Runtime_events.Timestamp.to_int64 ts) t0 in
          let prev = Option.value ~default:0L (Hashtbl.find_opt pause_ns dom) in
          Hashtbl.replace pause_ns dom (Int64.add prev d)
  in
  let lost_events _dom n = lost := !lost + n in
  Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()

let start () =
  Runtime_events.start ();
  cursor := Some (Runtime_events.create_cursor None)

let poll () =
  match !cursor with
  | None -> ()
  | Some c -> ignore (Runtime_events.read_poll c callbacks None)

(* Forget everything read so far (the phase boundary of a measurement). *)
let clear () =
  poll ();
  Hashtbl.reset pause_ns;
  Hashtbl.reset open_at;
  lost := 0

(* (domain id, summed minor pause in ms), by domain id. *)
let per_domain_ms () =
  poll ();
  Hashtbl.fold (fun d ns acc -> (d, Int64.to_float ns /. 1e6) :: acc) pause_ns []
  |> List.sort compare

let stop () =
  match !cursor with
  | None -> ()
  | Some c ->
      Runtime_events.free_cursor c;
      cursor := None;
      Runtime_events.pause ()
