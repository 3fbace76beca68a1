(* The PBFT client: the shared client skeleton (closed loop, retries to
   all replicas) completing on f + 1 matching direct replies. *)

module Runtime = Sbft_core.Runtime

type t = Pbft_types.msg Runtime.client

let create ~env ~id ~keypair ~on_complete =
  Runtime.client_create ~env ~id ~keypair ~request_msg:(fun r -> Pbft_types.Request r)
    ~on_complete

let id (t : t) = t.id
let completed (t : t) = t.completed
let submit = Runtime.client_submit

let on_message t ctx ~src msg =
  ignore src;
  match msg with
  | Pbft_types.Reply { view; replica; timestamp; value; _ } ->
      Runtime.on_client_reply t ctx ~view ~replica ~timestamp ~value
  | _ -> ()

let run_closed_loop = Runtime.client_run_closed_loop
