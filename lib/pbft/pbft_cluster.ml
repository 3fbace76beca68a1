(* The PBFT baseline's plug-in for the shared simulated deployment. *)

module Cluster = Sbft_core.Cluster

type t = (Pbft_types.msg, Pbft_replica.t, Pbft_client.t) Cluster.deployment

let pbft =
  {
    Cluster.size = Pbft_types.size;
    replica =
      (fun ~env ~my ~store ~durable:_ ->
        Pbft_replica.create ~env ~id:my.Sbft_core.Keys.replica_id ~store);
    client = Pbft_client.create;
    on_replica = Pbft_replica.on_message;
    on_client = Pbft_client.on_message;
    start = Pbft_replica.start;
    run_closed_loop = Pbft_client.run_closed_loop;
    completed = Pbft_client.completed;
    last_executed = Pbft_replica.last_executed;
    committed_block = Pbft_replica.committed_block;
    state_digest = Pbft_replica.state_digest;
    fast_commits = (fun _ -> 0);
    slow_commits = Pbft_replica.blocks_committed;
    view_changes = Pbft_replica.view_changes_completed;
  }
