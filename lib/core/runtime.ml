(* The replica runtime shared by the ordering cores (SBFT in Replica,
   the PBFT baseline in Pbft_replica) and the client skeleton shared by
   their clients.  Everything here is protocol-agnostic: it is
   polymorphic in the wire message type, and where the cores differ the
   difference arrives as data ([policy], the message builders), never as
   a branch on which protocol is running. *)

open Sbft_sim
open Sbft_crypto

type 'msg env = {
  engine : Engine.t;
  trace : Trace.t;
  keys : Keys.t;
  send : Engine.ctx -> src:int -> dst:int -> 'msg -> unit;
  exec_cost : Types.request list -> Engine.time;
  collectors : Collectors.memo;
}

type policy = { exec_window : int option; flush_max : bool; signed_broadcast : bool }

type ('msg, 'slot) t = {
  env : 'msg env;
  id : int;
  policy : policy;
  request_msg : Types.request -> 'msg;
  reply_msg :
    view:int -> replica:int -> client:int -> timestamp:int -> seq:int -> value:string -> 'msg;
  san : Sanitizer.t;
  store : Sbft_store.Auth_store.t;
  new_slot : int -> 'slot;
  is_committed : 'slot -> bool;
  slots : (int, 'slot) Hashtbl.t;
  mutable view : int;
  mutable next_seq : int;
  mutable ls : int;
  pending : Types.request Queue.t;
  pending_keys : (int * int, unit) Hashtbl.t;
  outstanding : (int * int, Types.request) Hashtbl.t;
  client_table : (int, int * string * int * int) Hashtbl.t;
  batching : Batching.t;
  mutable batch_timer_armed : bool;
  mutable last_progress : Engine.time;
  mutable vc_backoff : int;
  mutable in_view_change : bool;
  mutable sent_vc_for : int;
  mutable retired : bool;
  mutable n_committed : int;
  mutable n_view_changes : int;
}

let create ~env ~id ~policy ~request_msg ~reply_msg ~store ~new_slot ~is_committed =
  let config = env.keys.Keys.config in
  let san =
    Sanitizer.create ~enabled:config.Config.sanitize ~f:config.Config.f
      ~c:config.Config.c ()
  in
  Sanitizer.check_config san ~n:(Config.n config);
  {
    env;
    id;
    policy;
    request_msg;
    reply_msg;
    san;
    store;
    new_slot;
    is_committed;
    slots = Hashtbl.create 128;
    view = 0;
    next_seq = 1;
    ls = 0;
    pending = Queue.create ();
    pending_keys = Hashtbl.create 64;
    outstanding = Hashtbl.create 64;
    client_table = Hashtbl.create 64;
    batching = Batching.create config;
    batch_timer_armed = false;
    last_progress = 0;
    vc_backoff = 0;
    in_view_change = false;
    sent_vc_for = 0;
    retired = false;
    n_committed = 0;
    n_view_changes = 0;
  }

let cfg t = t.env.keys.Keys.config
let primary_of t v = Collectors.primary ~config:(cfg t) ~view:v
let is_primary t = Int.equal (primary_of t t.view) t.id
let last_executed t = Sbft_store.Auth_store.last_executed t.store

let slot t seq =
  match Hashtbl.find_opt t.slots seq with
  | Some s -> s
  | None ->
      let s = t.new_slot seq in
      Hashtbl.replace t.slots seq s;
      s

(* ------------------------------------------------------------------ *)
(* Adversary observation surface (obs_* namespace; see Replica.mli):
   view/progress counters and the highest active slot. *)

let obs_view t = t.view
let obs_last_executed t = last_executed t
let obs_next_seq t = t.next_seq
let obs_frontier t = Hashtbl.fold (fun seq _ acc -> max seq acc) t.slots 0

(* ------------------------------------------------------------------ *)
(* Timers, transport and tracing *)

(* Every replica timer goes through this wrapper so that retiring the
   object (crash, teardown, crash-amnesia rebuild) silences callbacks
   still in flight — the batch timer and the self-rescheduling liveness
   timer would otherwise tick on as zombies. *)
let set_replica_timer t ~after f =
  Engine.set_timer t.env.engine ~node:t.id ~after (fun ctx ->
      if not t.retired then f ctx)

let retire t = t.retired <- true

let send t ctx ~dst msg = t.env.send ctx ~src:t.id ~dst msg

(* All-to-all multicast.  Under [signed_broadcast] the sender pays one
   RSA signature per broadcast; every receiver pays its verification
   on receipt. *)
let broadcast t ctx msg =
  if t.policy.signed_broadcast then
    Engine.charge ctx (Cost_model.Tally.note "rsa_sign" Cost_model.rsa_sign);
  for r = 0 to Config.n (cfg t) - 1 do
    send t ctx ~dst:r msg
  done

(* The detail is formatted only when tracing is on: a disabled trace
   costs one branch and no allocation. *)
let trace t ctx kind fmt =
  if Trace.enabled t.env.trace then
    Printf.ksprintf
      (fun detail -> Trace.emit t.env.trace ~time:(Engine.ctx_now ctx) ~node:t.id ~kind ~detail)
      fmt
  else Printf.ikfprintf ignore () fmt

(* ------------------------------------------------------------------ *)
(* Progress tracking for the view-change trigger *)

let note_progress t ctx = t.last_progress <- Engine.ctx_now ctx

let mark_outstanding t (r : Types.request) =
  if r.client >= 0 then Hashtbl.replace t.outstanding (r.client, r.timestamp) r

(* ------------------------------------------------------------------ *)
(* Proposing (primary) *)

(* Blocks proposed but not yet known committed by us (primary view). *)
let inflight t =
  let le = last_executed t in
  let count = ref 0 in
  for s = le + 1 to t.next_seq - 1 do
    match Hashtbl.find_opt t.slots s with
    | Some sl when t.is_committed sl -> ()
    | _ -> incr count
  done;
  !count

type propose = Engine.ctx -> seq:int -> Types.request list -> unit

(* Take [batch] requests off the pending queue under the next sequence
   number and hand them to the core's [propose]. *)
let propose_batch t ctx ~(propose : propose) batch =
  let reqs = List.init batch (fun _ -> Queue.pop t.pending) in
  List.iter
    (fun (r : Types.request) -> Hashtbl.remove t.pending_keys (r.client, r.timestamp))
    reqs;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  propose ctx ~seq reqs

(* The batching proposer loop: full batches go out at once; a partial
   batch is flushed after the batching timeout. *)
let rec try_propose t ctx ~propose =
  if is_primary t && not t.in_view_change then begin
    let config = cfg t in
    let target = Batching.batch_size t.batching in
    let can_propose () =
      (not (Queue.is_empty t.pending))
      && inflight t < Batching.max_concurrent config
      && t.next_seq <= t.ls + config.Config.win
      &&
      match t.policy.exec_window with
      | Some w -> t.next_seq <= last_executed t + w
      | None -> true
    in
    while can_propose () && Queue.length t.pending >= target do
      propose_batch t ctx ~propose target
    done;
    if can_propose () && not t.batch_timer_armed then begin
      t.batch_timer_armed <- true;
      ignore
        (set_replica_timer t ~after:config.Config.batch_timeout (fun ctx ->
             t.batch_timer_armed <- false;
             if is_primary t && not t.in_view_change then begin
               let limit =
                 if t.policy.flush_max then config.Config.max_batch
                 else Batching.batch_size t.batching
               in
               let batch = min (Queue.length t.pending) limit in
               if
                 batch > 0
                 && inflight t < Batching.max_concurrent config
                 && t.next_seq <= t.ls + config.Config.win
               then propose_batch t ctx ~propose batch;
               try_propose t ctx ~propose
             end))
    end
  end

(* ------------------------------------------------------------------ *)
(* Request intake *)

let on_request t ctx (r : Types.request) ~propose =
  (* Answer retransmissions of already-executed operations directly. *)
  match Hashtbl.find_opt t.client_table r.client with
  | Some (ts, value, seq, _) when ts >= r.timestamp ->
      Engine.charge ctx (Cost_model.Tally.note "rsa_sign" Cost_model.rsa_sign);
      send t ctx ~dst:r.client
        (t.reply_msg ~view:t.view ~replica:t.id ~client:r.client ~timestamp:ts ~seq
           ~value)
  | _ ->
      if is_primary t then begin
        if not (Hashtbl.mem t.pending_keys (r.client, r.timestamp)) then begin
          (* Static authentication and access-control check (§V-C). *)
          Engine.charge ctx (Cost_model.Tally.note "rsa_verify" Cost_model.rsa_verify);
          if Keys.verify_request t.env.keys r then begin
            Hashtbl.replace t.pending_keys (r.client, r.timestamp) ();
            Queue.push r t.pending;
            Batching.observe_pending t.batching (Queue.length t.pending);
            mark_outstanding t r;
            try_propose t ctx ~propose
          end
        end
      end
      else if not (Hashtbl.mem t.outstanding (r.client, r.timestamp)) then begin
        (* Forward to the primary and watch for progress. *)
        mark_outstanding t r;
        send t ctx ~dst:(primary_of t t.view) (t.request_msg r)
      end

(* ------------------------------------------------------------------ *)
(* Exactly-once execution *)

(* Execute a committed block.  A request re-proposed across a view
   change may appear in two committed blocks; its second occurrence
   deterministically degrades to a no-op (every replica shares the same
   client table state).  Returns each request with its output, and the
   rows this block added to the client table as (request, value, index),
   in block order. *)
let execute t ctx ~seq reqs =
  Sanitizer.record_execute t.san ~seq;
  Engine.charge ctx (Cost_model.Tally.note "exec" (t.env.exec_cost reqs));
  let executed (r : Types.request) =
    match Hashtbl.find_opt t.client_table r.client with
    | Some (ts, _, _, _) -> ts >= r.timestamp
    | None -> false
  in
  let ops =
    List.map (fun (r : Types.request) -> if r.client >= 0 && executed r then "" else r.op) reqs
  in
  let results = List.combine reqs (Sbft_store.Auth_store.execute_block t.store ~seq ~ops) in
  note_progress t ctx;
  let added = ref [] in
  List.iteri
    (fun index ((r : Types.request), value) ->
      Hashtbl.remove t.outstanding (r.client, r.timestamp);
      if r.client >= 0 && not (executed r) then begin
        Hashtbl.replace t.client_table r.client (r.timestamp, value, seq, index);
        added := (r, value, index) :: !added
      end)
    results;
  (results, List.rev !added)

(* Direct signed replies for an executed block.  A re-proposed duplicate
   executed as a no-op, so its output is [""]; answer from the client
   table (the original execution's result) instead, so every replica
   replies with the same bytes and the client's f+1 match cannot mix ""
   with real values. *)
let reply t ctx ~seq results =
  List.iter
    (fun ((r : Types.request), value) ->
      if r.client >= 0 then begin
        let value =
          match Hashtbl.find_opt t.client_table r.client with
          | Some (ts, v, _, _) when Int.equal ts r.timestamp -> v
          | _ -> value
        in
        Engine.charge ctx (Cost_model.Tally.note "rsa_sign" Cost_model.rsa_sign);
        send t ctx ~dst:r.client
          (t.reply_msg ~view:t.view ~replica:t.id ~client:r.client ~timestamp:r.timestamp
             ~seq ~value)
      end)
    results

(* ------------------------------------------------------------------ *)
(* Views and liveness *)

let enter_view t ctx ~view =
  Sanitizer.record_view_entry t.san ~view;
  t.view <- view;
  t.in_view_change <- false;
  t.n_view_changes <- t.n_view_changes + 1;
  t.vc_backoff <- 0;
  note_progress t ctx

(* Re-drive requests that were in flight when the old view died, in
   (client, timestamp) order: both the primary's pending queue and the
   resend sequence are replay-visible. *)
let redrive t ctx =
  let stale =
    List.map snd
      (Det.sorted_bindings ~compare:(Det.compare_pair Int.compare Int.compare) t.outstanding)
  in
  if is_primary t then
    List.iter
      (fun (r : Types.request) ->
        if not (Hashtbl.mem t.pending_keys (r.client, r.timestamp)) then begin
          Hashtbl.replace t.pending_keys (r.client, r.timestamp) ();
          Queue.push r t.pending
        end)
      stale
  else List.iter (fun r -> send t ctx ~dst:(primary_of t t.view) (t.request_msg r)) stale

(* Complain when requests wait longer than the (exponentially backed
   off) view-change timeout without any progress. *)
let liveness_tick t ctx ~start_view_change =
  let config = cfg t in
  let waiting = Hashtbl.length t.outstanding > 0 || not (Queue.is_empty t.pending) in
  if waiting && not (Engine.is_crashed t.env.engine t.id) then begin
    let timeout = config.Config.view_change_timeout * (1 lsl min 6 t.vc_backoff) in
    if Engine.ctx_now ctx - t.last_progress > timeout then begin
      t.vc_backoff <- t.vc_backoff + 1;
      start_view_change ctx ~target_view:(max (t.view + 1) (t.sent_vc_for + 1))
    end
  end

let rec arm_liveness t ~start_view_change =
  ignore
    (set_replica_timer t
       ~after:((cfg t).Config.view_change_timeout / 2)
       (fun ctx ->
         liveness_tick t ctx ~start_view_change;
         arm_liveness t ~start_view_change))

let start t ctx ~start_view_change =
  note_progress t ctx;
  arm_liveness t ~start_view_change

(* ------------------------------------------------------------------ *)
(* Client skeleton: one closed-loop operation in flight, retries to all
   replicas on timeout, and completion on f+1 matching replies. *)

type pending = {
  request : Types.request;
  sent_at : Engine.time;
  mutable replies : (int * string) list; (* replica -> value, f+1 path *)
  mutable done_ : bool;
}

type 'msg client = {
  env : 'msg env;
  id : int;
  keypair : Pki.keypair;
  request_msg : Types.request -> 'msg;
  on_complete : timestamp:int -> latency:Engine.time -> value:string -> unit;
  mutable timestamp : int;
  mutable current : pending option;
  mutable believed_primary : int;
  mutable completed : int;
  mutable retries : int;
  mutable queue : (int -> string) option; (* closed-loop generator *)
  mutable remaining : int;
  mutable issued : int;
}

let client_create ~env ~id ~keypair ~request_msg ~on_complete =
  {
    env;
    id;
    keypair;
    request_msg;
    on_complete;
    timestamp = 0;
    current = None;
    believed_primary = 0;
    completed = 0;
    retries = 0;
    queue = None;
    remaining = 0;
    issued = 0;
  }

let client_replicas t = Config.n t.env.keys.Keys.config

let rec client_arm_retry t (p : pending) =
  ignore
    (Engine.set_timer t.env.engine ~node:t.id
       ~after:t.env.keys.Keys.config.Config.client_retry_timeout (fun ctx ->
         if not p.done_ then begin
           (* Resend to all replicas and ask for the f+1 path (§V-A). *)
           t.retries <- t.retries + 1;
           for r = 0 to client_replicas t - 1 do
             t.env.send ctx ~src:t.id ~dst:r (t.request_msg p.request)
           done;
           client_arm_retry t p
         end))

let client_submit t ctx ~op =
  match t.current with
  | Some p when not p.done_ -> invalid_arg "Client.submit: operation already in flight"
  | _ ->
      t.timestamp <- t.timestamp + 1;
      let request = { Types.client = t.id; timestamp = t.timestamp; op; signature = "" } in
      Engine.charge ctx Cost_model.rsa_sign;
      let request =
        { request with Types.signature = Pki.sign t.keypair (Types.request_digest request) }
      in
      let p = { request; sent_at = Engine.ctx_now ctx; replies = []; done_ = false } in
      t.current <- Some p;
      t.env.send ctx ~src:t.id ~dst:t.believed_primary (t.request_msg request);
      client_arm_retry t p

let client_next_op t ctx =
  match t.queue with
  | Some make_op when t.remaining > 0 ->
      t.remaining <- t.remaining - 1;
      let op = make_op t.issued in
      t.issued <- t.issued + 1;
      client_submit t ctx ~op
  | _ -> ()

let client_complete t ctx (p : pending) value =
  if not p.done_ then begin
    p.done_ <- true;
    t.completed <- t.completed + 1;
    t.current <- None;
    t.on_complete ~timestamp:p.request.Types.timestamp
      ~latency:(Engine.ctx_now ctx - p.sent_at)
      ~value;
    client_next_op t ctx
  end

let client_note_view t view = t.believed_primary <- view mod client_replicas t

(* A direct reply: track the responsive view's primary, and complete
   once f+1 distinct replicas agree on the value. *)
let on_client_reply t ctx ~view ~replica ~timestamp ~value =
  client_note_view t view;
  match t.current with
  | Some p when Int.equal p.request.Types.timestamp timestamp && not p.done_ ->
      Engine.charge ctx Cost_model.rsa_verify;
      if not (List.mem_assoc replica p.replies) then begin
        p.replies <- (replica, value) :: p.replies;
        let matching =
          List.length (List.filter (fun (_, v) -> String.equal v value) p.replies)
        in
        if matching >= t.env.keys.Keys.config.Config.f + 1 then client_complete t ctx p value
      end
  | _ -> ()

let client_run_closed_loop t ~num_requests ~make_op ~start_at =
  t.queue <- Some make_op;
  t.remaining <- num_requests;
  Engine.dispatch t.env.engine ~dst:t.id ~at:start_at (fun ctx -> client_next_op t ctx)
