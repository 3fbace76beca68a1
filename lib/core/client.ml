open Sbft_sim
open Sbft_crypto

type query_pending = {
  q_key : string;
  mutable q_done : bool;
  q_callback : (string * int) option -> unit;
}

(* The shared client skeleton (closed loop, retries, f+1 replies) plus
   SBFT's execute-ack path and read-only queries. *)
type t = {
  c : Types.msg Runtime.client;
  mutable next_qid : int;
  queries : (int, query_pending) Hashtbl.t;
}

let create ~env ~id ~keypair ~on_complete =
  {
    c =
      Runtime.client_create ~env ~id ~keypair
        ~request_msg:(fun r -> Types.Request r)
        ~on_complete;
    next_qid = 0;
    queries = Hashtbl.create 8;
  }

let id t = t.c.id
let completed t = t.c.completed
let retries t = t.c.retries
let last_timestamp t = t.c.timestamp
let submit t ctx ~op = Runtime.client_submit t.c ctx ~op

let config t = t.c.env.keys.Keys.config
let num_replicas t = Config.n (config t)

let query t ctx ~key ~callback =
  t.next_qid <- t.next_qid + 1;
  let qid = t.next_qid in
  let pending = { q_key = key; q_done = false; q_callback = callback } in
  Hashtbl.replace t.queries qid pending;
  (* Read from a single replica, chosen round-robin; retry another on
     timeout, give up after one cycle. *)
  let n = num_replicas t in
  let rec attempt tries =
    if not pending.q_done then begin
      if tries >= n then begin
        pending.q_done <- true;
        Hashtbl.remove t.queries qid;
        callback None
      end
      else begin
        let replica = (qid + tries) mod n in
        t.c.env.send ctx ~src:t.c.id ~dst:replica
          (Types.Query { client = t.c.id; qid; query = key });
        ignore
          (Engine.set_timer t.c.env.engine ~node:t.c.id
             ~after:((config t).Config.client_retry_timeout / 4)
             (fun ctx -> if not pending.q_done then attempt_ctx ctx (tries + 1)))
      end
    end
  and attempt_ctx _ctx tries = attempt tries in
  attempt 0

let on_message t ctx ~src msg =
  ignore src;
  match msg with
  | Types.Execute_ack { view; seq; index; timestamp; value; state_digest; pi; proof; _ } -> (
      Runtime.client_note_view t.c view;
      match t.c.current with
      | Some p when Int.equal p.Runtime.request.Types.timestamp timestamp && not p.done_ ->
          Engine.charge ctx Cost_model.bls_verify;
          Engine.charge ctx (Cost_model.merkle_verify 10);
          if
            Sbft_crypto.Threshold.verify t.c.env.keys.Keys.pi
              ~msg:(Types.pi_message ~seq ~digest:state_digest)
              pi
            && Sbft_store.Auth_store.verify_op_proof ~digest:state_digest ~seq ~index
                 ~op:p.request.Types.op ~value ~proof
          then Runtime.client_complete t.c ctx p value
      | _ -> ())
  | Types.Reply { view; replica; timestamp; value; _ } ->
      Runtime.on_client_reply t.c ctx ~view ~replica ~timestamp ~value
  | Types.Query_resp { qid; seq; digest; pi; value; proof; _ } -> (
      match Hashtbl.find_opt t.queries qid with
      | Some q when not q.q_done ->
          Engine.charge ctx Cost_model.bls_verify;
          Engine.charge ctx (Cost_model.merkle_verify 16);
          if
            Sbft_crypto.Threshold.verify t.c.env.keys.Keys.pi
              ~msg:(Types.pi_message ~seq ~digest)
              pi
            && Sbft_store.Auth_store.verify_query_proof ~digest ~seq ~key:q.q_key
                 ~value ~proof
          then begin
            q.q_done <- true;
            Hashtbl.remove t.queries qid;
            q.q_callback (Some (value, seq))
          end
      | _ -> ())
  | _ -> ()

let run_closed_loop t = Runtime.client_run_closed_loop t.c
