type deps = (Addr.mfn, unit) Hashtbl.t

type t = {
  pt : (int, pt_entry) Hashtbl.t;  (* domain id -> walk that found no exposure *)
  mutable m2p_clean : bool;  (* the M2P check found no mismatch *)
  (* the baseline the contents belong to: memory baseline epoch and
     Page_info checkpoint generation; -1 = none yet *)
  mutable epoch : int;
  mutable base_gen : int;
}

and pt_entry = { l4 : Addr.mfn; deps : deps }

let create () = { pt = Hashtbl.create 8; m2p_clean = false; epoch = -1; base_gen = -1 }

let usable t hv =
  let e = Phys_mem.baseline_epoch hv.Hv.mem and g = Page_info.base_generation hv.Hv.pages in
  if e <> t.epoch || g <> t.base_gen then begin
    Hashtbl.reset t.pt;
    t.m2p_clean <- false;
    t.epoch <- e;
    t.base_gen <- g
  end;
  Page_info.at_checkpoint hv.Hv.pages

let unwritten hv deps =
  List.for_all (fun m -> not (Hashtbl.mem deps m)) (Phys_mem.dirty_list hv.Hv.mem)

let pt_hit t hv dom =
  match Hashtbl.find t.pt dom.Domain.id with
  | e -> e.l4 = dom.Domain.l4_mfn && unwritten hv e.deps
  | exception Not_found -> false

let record_pt t hv dom deps =
  if unwritten hv deps then Hashtbl.replace t.pt dom.Domain.id { l4 = dom.Domain.l4_mfn; deps }

let m2p_unwritten hv =
  List.for_all (fun m -> not (Hv.is_m2p_frame hv m)) (Phys_mem.dirty_list hv.Hv.mem)

let m2p_hit t hv = t.m2p_clean && m2p_unwritten hv
let record_m2p t hv = if m2p_unwritten hv then t.m2p_clean <- true
let cached_domains t = Hashtbl.length t.pt
