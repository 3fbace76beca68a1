(* R9 negative twin: the promised record is logged and synced before
   the handler calls into the runtime. *)
let create ~env =
  Runtime.create ~env ~promise_msg:(fun ~seq -> Types.Commit { seq; view = 0; share = 0 })

let on_prepare t ctx ~seq =
  wal_log t ctx (Wal.Accepted_prepare { seq; view = 0; tau = "" });
  wal_sync t ctx;
  Runtime.relay t.rt ctx ~seq
