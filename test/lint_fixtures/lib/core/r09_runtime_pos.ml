(* R9 positive through the runtime: the runtime helper sends what this
   file's builder returns, a Commit, which promises an Accepted_prepare
   record; the handler logged and synced only View_entered. *)
let create ~env =
  Runtime.create ~env ~promise_msg:(fun ~seq -> Types.Commit { seq; view = 0; share = 0 })

let on_prepare t ctx ~seq =
  wal_log t ctx (Wal.View_entered 0);
  wal_sync t ctx;
  Runtime.relay t.rt ctx ~seq
