open Sbft_sim
open Sbft_crypto
module Types = Sbft_core.Types
module Config = Sbft_core.Config
module Keys = Sbft_core.Keys
module Runtime = Sbft_core.Runtime

type env = Pbft_types.msg Runtime.env

type slot = {
  seq : int;
  mutable pp : (int * Types.request list * string) option;
  prepares : (int, unit) Hashtbl.t;
  commits : (int, unit) Hashtbl.t;
  mutable sent_prepare : bool;
  mutable sent_commit : bool;
  mutable prepared : bool;
  mutable committed : Types.request list option;
  mutable executed : bool;
}

let new_slot seq =
  {
    seq;
    pp = None;
    prepares = Hashtbl.create 8;
    commits = Hashtbl.create 8;
    sent_prepare = false;
    sent_commit = false;
    prepared = false;
    committed = None;
    executed = false;
  }

(* Replica state: the shared runtime (view, windows, slot table,
   request and client tables, timers; see Sbft_core.Runtime) plus the
   checkpoint votes and view-change messages of the PBFT core. *)
type t = {
  rt : (Pbft_types.msg, slot) Runtime.t;
  checkpoints : (int, (int, unit) Hashtbl.t) Hashtbl.t; (* seq -> voters *)
  vc_msgs : (int, (int, (int * int * Types.request list) list) Hashtbl.t) Hashtbl.t;
}

let cfg t = Runtime.cfg t.rt
let quorum t = Config.quorum_bft (cfg t)

let create ~env ~id ~store =
  let rt =
    Runtime.create ~env ~id
      ~policy:{ Runtime.exec_window = None; flush_max = true; signed_broadcast = true }
      ~request_msg:(fun r -> Pbft_types.Request r)
      ~reply_msg:(fun ~view ~replica ~client ~timestamp ~seq ~value ->
        Pbft_types.Reply { view; replica; client; timestamp; seq; value })
      ~store ~new_slot ~is_committed:(fun sl -> Option.is_some sl.committed)
  in
  { rt; checkpoints = Hashtbl.create 8; vc_msgs = Hashtbl.create 4 }

let id t = t.rt.id
let view t = t.rt.view
let is_primary t = Runtime.is_primary t.rt
let last_executed t = Runtime.last_executed t.rt
let state_digest t = Sbft_store.Auth_store.digest t.rt.store
let blocks_committed t = t.rt.n_committed
let view_changes_completed t = t.rt.n_view_changes

(* Adversary observation surface: the runtime's obs_* namespace, so the
   schedule fuzzer's attacker sees both systems through one lens. *)
let obs_view t = Runtime.obs_view t.rt
let obs_last_executed t = Runtime.obs_last_executed t.rt
let obs_next_seq t = Runtime.obs_next_seq t.rt
let obs_frontier t = Runtime.obs_frontier t.rt

let committed_block t seq =
  match Hashtbl.find_opt t.rt.slots seq with Some s -> s.committed | None -> None

let propose t ctx ~seq reqs =
  Engine.charge ctx (Cost_model.Tally.note "hash" (Cost_model.sha256 (Types.requests_bytes reqs)));
  Runtime.trace t.rt ctx "send:pre-prepare" "seq=%d batch=%d" seq (List.length reqs);
  Runtime.broadcast t.rt ctx (Pbft_types.Pre_prepare { seq; view = t.rt.view; reqs })

let try_propose t ctx = Runtime.try_propose t.rt ctx ~propose:(propose t)

let rec on_message t ctx ~src msg =
  ignore src;
  match msg with
  | Pbft_types.Request r -> on_request t ctx r
  | Pbft_types.Pre_prepare { seq; view; reqs } ->
      Engine.charge ctx (Cost_model.Tally.note "rsa_verify" Cost_model.rsa_verify);
      on_pre_prepare t ctx ~seq ~view ~reqs
  | Pbft_types.Prepare { seq; view; h; replica } ->
      Engine.charge ctx (Cost_model.Tally.note "rsa_verify" Cost_model.rsa_verify);
      on_prepare t ctx ~seq ~view ~h ~replica
  | Pbft_types.Commit { seq; view; h; replica } ->
      Engine.charge ctx (Cost_model.Tally.note "rsa_verify" Cost_model.rsa_verify);
      on_commit t ctx ~seq ~view ~h ~replica
  | Pbft_types.Checkpoint { seq; digest; replica } ->
      Engine.charge ctx (Cost_model.Tally.note "rsa_verify" Cost_model.rsa_verify);
      on_checkpoint t ctx ~seq ~digest ~replica
  | Pbft_types.View_change { view; ls; prepared; replica } ->
      Engine.charge ctx (Cost_model.Tally.note "rsa_verify" Cost_model.rsa_verify);
      on_view_change t ctx ~view ~ls ~prepared ~replica
  | Pbft_types.New_view { view; pre_prepares } ->
      Engine.charge ctx (Cost_model.Tally.note "rsa_verify" Cost_model.rsa_verify);
      on_new_view t ctx ~view ~pre_prepares
  | Pbft_types.Reply _ -> ()

and on_request t ctx (r : Types.request) = Runtime.on_request t.rt ctx r ~propose:(propose t)

and on_pre_prepare t ctx ~seq ~view ~reqs =
  let config = cfg t in
  let sl = Runtime.slot t.rt seq in
  if
    Int.equal view t.rt.view && sl.pp = None && seq > t.rt.ls
    && seq <= t.rt.ls + config.Config.win
  then begin
    let real = List.filter (fun (r : Types.request) -> r.Types.client >= 0) reqs in
    Engine.charge ctx (Cost_model.Tally.note "rsa_verify" (List.length real * Cost_model.rsa_verify));
    if List.for_all (fun r -> Keys.verify_request t.rt.env.keys r) real then begin
      Engine.charge ctx (Cost_model.Tally.note "hash" (Cost_model.sha256 (Types.requests_bytes reqs)));
      let h = Pbft_types.block_hash ~seq ~view ~reqs in
      sl.pp <- Some (view, reqs, h);
      List.iter (Runtime.mark_outstanding t.rt) real;
      if not sl.sent_prepare then begin
        sl.sent_prepare <- true;
        Runtime.broadcast t.rt ctx (Pbft_types.Prepare { seq; view; h; replica = t.rt.id })
      end;
      check_prepared t ctx sl
    end
  end

and check_prepared t ctx sl =
  match sl.pp with
  | Some (view, _, _) when Int.equal view t.rt.view ->
      if
        (not sl.prepared)
        && ((Hashtbl.length sl.prepares >= quorum t - 1) [@quorum.adjust 1])
        (* pre-prepare counts as one vote: the [- 1] is declared and
           checked by R12, and the sanitizer count below re-adds it *)
      then begin
        Sanitizer.check_quorum t.rt.san Sanitizer.Majority
          ~count:(Hashtbl.length sl.prepares + 1);
        sl.prepared <- true;
        if not sl.sent_commit then begin
          sl.sent_commit <- true;
          match sl.pp with
          | Some (_, _, h) ->
              Runtime.broadcast t.rt ctx (Pbft_types.Commit { seq = sl.seq; view; h; replica = t.rt.id })
          | None -> ()
        end
      end;
      check_committed t ctx sl
  | _ -> ()

and on_prepare t ctx ~seq ~view ~h ~replica =
  if Int.equal view t.rt.view && seq > t.rt.ls && seq <= t.rt.ls + (cfg t).Config.win then begin
    let sl = Runtime.slot t.rt seq in
    let matches = match sl.pp with Some (_, _, h') -> String.equal h h' | None -> true in
    if matches && not (Hashtbl.mem sl.prepares replica) then begin
      Hashtbl.replace sl.prepares replica ();
      check_prepared t ctx sl
    end
  end

and on_commit t ctx ~seq ~view ~h ~replica =
  if Int.equal view t.rt.view && seq > t.rt.ls && seq <= t.rt.ls + (cfg t).Config.win then begin
    let sl = Runtime.slot t.rt seq in
    let matches = match sl.pp with Some (_, _, h') -> String.equal h h' | None -> true in
    if matches && not (Hashtbl.mem sl.commits replica) then begin
      Hashtbl.replace sl.commits replica ();
      check_committed t ctx sl
    end
  end

and check_committed t ctx sl =
  match sl.pp with
  | Some (view, reqs, digest)
    when sl.committed = None && sl.prepared && Hashtbl.length sl.commits >= quorum t ->
      Sanitizer.check_quorum t.rt.san Sanitizer.Majority
        ~count:(Hashtbl.length sl.commits);
      Sanitizer.record_commit t.rt.san ~seq:sl.seq ~view ~digest;
      sl.committed <- Some reqs;
      t.rt.n_committed <- t.rt.n_committed + 1;
      Runtime.note_progress t.rt ctx;
      Engine.charge ctx (Cost_model.Tally.note "persist" (Cost_model.persist_block (Types.requests_bytes reqs)));
      Runtime.trace t.rt ctx "commit" "seq=%d" sl.seq;
      try_execute t ctx;
      if is_primary t then try_propose t ctx
  | _ -> ()

and try_execute t ctx =
  let config = cfg t in
  let continue = ref true in
  while !continue do
    let next = last_executed t + 1 in
    match Hashtbl.find_opt t.rt.slots next with
    | Some ({ committed = Some reqs; executed = false; _ } as sl) ->
        sl.executed <- true;
        let results, _ = Runtime.execute t.rt ctx ~seq:next reqs in
        Runtime.reply t.rt ctx ~seq:next results;
        (* Periodic checkpoint: all-to-all digest votes (the quadratic
           protocol SBFT's ingredient 3 replaces). *)
        if next mod Config.checkpoint_interval config = 0 then begin
          Engine.charge ctx (Cost_model.Tally.note "hash" (Cost_model.sha256 64));
          Runtime.broadcast t.rt ctx
            (Pbft_types.Checkpoint
               { seq = next; digest = state_digest t; replica = t.rt.id })
        end
    | _ -> continue := false
  done;
  if is_primary t then try_propose t ctx

and on_checkpoint t ctx ~seq ~digest ~replica =
  ignore digest;
  let voters =
    match Hashtbl.find_opt t.checkpoints seq with
    | Some v -> v
    | None ->
        let v = Hashtbl.create 8 in
        Hashtbl.replace t.checkpoints seq v;
        v
  in
  if not (Hashtbl.mem voters replica) then begin
    Hashtbl.replace voters replica ();
    if Hashtbl.length voters >= quorum t && seq > t.rt.ls then begin
      Sanitizer.check_quorum t.rt.san Sanitizer.Majority
        ~count:(Hashtbl.length voters);
      t.rt.ls <- seq;
      Runtime.note_progress t.rt ctx;
      (* GC everything below the stable checkpoint. *)
      let stale =
        List.filter (fun s -> s <= seq)
          (Det.sorted_keys ~compare:Int.compare t.rt.slots)
      in
      List.iter (Hashtbl.remove t.rt.slots) stale;
      Sanitizer.prune_below t.rt.san ~seq;
      Sbft_store.Auth_store.gc_below t.rt.store ~seq
    end
  end

(* --------------------------- view change --------------------------- *)

and start_view_change t ctx ~target_view =
  if target_view > t.rt.sent_vc_for then begin
    t.rt.sent_vc_for <- target_view;
    Runtime.trace t.rt ctx "view-change" "to=%d" target_view;
    (* Certificate list in ascending seq order: the VC message payload
       is replay-visible, so its layout must not depend on Hashtbl
       iteration order. *)
    let prepared =
      List.filter_map
        (fun (seq, sl) ->
          if sl.prepared && seq > t.rt.ls then
            match sl.pp with Some (v, reqs, _) -> Some (seq, v, reqs) | None -> None
          else None)
        (Det.sorted_bindings ~compare:Int.compare t.rt.slots)
    in
    Runtime.broadcast t.rt ctx
      (Pbft_types.View_change { view = target_view - 1; ls = t.rt.ls; prepared; replica = t.rt.id })
  end

and on_view_change t ctx ~view ~ls ~prepared ~replica =
  ignore ls;
  let target = view + 1 in
  if target > t.rt.view then begin
    let tbl =
      match Hashtbl.find_opt t.vc_msgs target with
      | Some tbl -> tbl
      | None ->
          let tbl = Hashtbl.create 8 in
          Hashtbl.replace t.vc_msgs target tbl;
          tbl
    in
    if not (Hashtbl.mem tbl replica) then begin
      Hashtbl.replace tbl replica prepared;
      if Hashtbl.length tbl >= Config.pi_threshold (cfg t) && t.rt.sent_vc_for < target
      then begin
        Sanitizer.check_quorum t.rt.san Sanitizer.Pi ~count:(Hashtbl.length tbl);
        start_view_change t ctx ~target_view:target
      end;
      if Int.equal (Runtime.primary_of t.rt target) t.rt.id && Hashtbl.length tbl >= quorum t then begin
        Sanitizer.check_quorum t.rt.san Sanitizer.Majority
          ~count:(Hashtbl.length tbl);
        (* Re-propose the highest-view prepared block per slot. *)
        (* Visit senders in replica-id order: equal-view ties keep the
           first certificate seen, so the winner must not depend on
           Hashtbl iteration order. *)
        let best : (int, int * Types.request list) Hashtbl.t = Hashtbl.create 16 in
        Det.iter_sorted ~compare:Int.compare
          (fun _ certs ->
            List.iter
              (fun (seq, v, reqs) ->
                match Hashtbl.find_opt best seq with
                | Some (v', _) when v' >= v -> ()
                | _ -> Hashtbl.replace best seq (v, reqs))
              certs)
          tbl;
        let pre_prepares =
          Hashtbl.fold (fun seq (_, reqs) acc -> (seq, reqs) :: acc) best []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        in
        Runtime.trace t.rt ctx "send:new-view" "view=%d" target;
        Runtime.broadcast t.rt ctx (Pbft_types.New_view { view = target; pre_prepares })
      end
    end
  end

and on_new_view t ctx ~view ~pre_prepares =
  if view > t.rt.view then begin
    Runtime.enter_view t.rt ctx ~view;
    (* Reset per-view state of open slots. *)
    Det.iter_sorted ~compare:Int.compare
      (fun _ sl ->
        if sl.committed = None then begin
          sl.pp <- None;
          Hashtbl.reset sl.prepares;
          Hashtbl.reset sl.commits;
          sl.sent_prepare <- false;
          sl.sent_commit <- false;
          sl.prepared <- false
        end)
      t.rt.slots;
    let top = ref t.rt.ls in
    List.iter
      (fun (seq, reqs) ->
        if seq > !top then top := seq;
        if seq > t.rt.ls then on_pre_prepare t ctx ~seq ~view ~reqs)
      pre_prepares;
    if is_primary t then t.rt.next_seq <- max t.rt.next_seq (!top + 1);
    Runtime.redrive t.rt ctx;
    if is_primary t then try_propose t ctx
  end

let start t ctx = Runtime.start t.rt ctx ~start_view_change:(start_view_change t)
