type destroy_report = { freed : int; zombie : Addr.mfn list }

let pause hv dom = Sched.remove_vcpu hv.Hv.sched ~dom:dom.Domain.id

let unpause hv dom =
  match Sched.vcpu_of hv.Hv.sched ~dom:dom.Domain.id with
  | Some _ -> Error Errno.EBUSY
  | None ->
      ignore (Sched.add_vcpu hv.Hv.sched ~dom:dom.Domain.id);
      Ok ()

(* Release a Xen-side helper frame whose type was set manually by the
   builder (the per-domain M2P chain) or by grant-table setup. *)
let release_xen_helper hv mfn =
  Page_info.set_type hv.Hv.pages mfn Page_info.PGT_none ~count:0;
  ignore (Hv.release_page hv mfn)

let destroy hv dom =
  if dom.Domain.privileged then Error Errno.EPERM
  else begin
    let id = dom.Domain.id in
    ignore (Sched.remove_vcpu hv.Hv.sched ~dom:id);
    List.iter
      (fun port -> ignore (Event_channel.close dom.Domain.events port))
      (Event_channel.bound_ports dom.Domain.events);
    (* Drop the root references: cr3, pin, and the builder's promotion.
       The last one cascades through the whole address space,
       un-accounting every mapping the domain held. *)
    let l4 = dom.Domain.l4_mfn in
    if Phys_mem.is_valid_mfn hv.Hv.mem l4 then begin
      dom.Domain.l4_mfn <- -1;
      Page_info.set_pinned hv.Hv.pages l4 false;
      for _ = 1 to Page_info.type_count hv.Hv.pages l4 do
        Mm.put_table_type hv dom l4
      done
    end;
    (* Xen-owned helper frames handed to (or built for) this domain. *)
    let m2p_chain =
      List.filter (fun mfn -> Phys_mem.owner hv.Hv.mem mfn = Phys_mem.Xen) dom.Domain.pt_pages
    in
    List.iter (release_xen_helper hv) m2p_chain;
    List.iter (release_xen_helper hv) (Grant_table.shared_frames dom.Domain.grant);
    Grant_table.set_shared dom.Domain.grant [];
    List.iter (release_xen_helper hv) (Grant_table.status_frames dom.Domain.grant);
    (* Give the frames back; anything still referenced from outside
       stays as a zombie page. *)
    let freed = ref 0 and zombie = ref [] in
    List.iter
      (fun pfn ->
        match Domain.mfn_of_pfn dom pfn with
        | None -> ()
        | Some mfn -> (
            Domain.set_p2m dom pfn None;
            Hv.m2p_set hv mfn None;
            match Hv.release_page hv mfn with
            | Ok () -> incr freed
            | Error _ -> zombie := mfn :: !zombie))
      (Domain.populated_pfns dom);
    (* Delist and clean the management plane. *)
    hv.Hv.domains <- List.filter (fun d -> d.Domain.id <> id) hv.Hv.domains;
    (match
       Xenstore.list_prefix hv.Hv.xenstore ~caller:0 (Printf.sprintf "/local/domain/%d/" id)
     with
    | Ok paths -> List.iter (fun p -> ignore (Xenstore.rm hv.Hv.xenstore ~caller:0 p)) paths
    | Error _ -> ());
    Hv.log hv
      (Printf.sprintf "d%d destroyed: %d frames freed%s" id !freed
         (match !zombie with
         | [] -> ""
         | z -> Printf.sprintf ", %d zombie pages" (List.length z)));
    Ok { freed = !freed; zombie = List.rev !zombie }
  end

let list_domains hv =
  List.map
    (fun d -> (d.Domain.id, d.Domain.name, Domain.populated_count d))
    hv.Hv.domains
