(** The PBFT baseline as a {!Sbft_core.Cluster} protocol: deploy it with
    [Cluster.deploy pbft].  Every block commits on the slow path, and
    PBFT keeps no durable state yet, so its replicas ignore theirs. *)

type t = (Pbft_types.msg, Pbft_replica.t, Pbft_client.t) Sbft_core.Cluster.deployment

val pbft : (Pbft_types.msg, Pbft_replica.t, Pbft_client.t) Sbft_core.Cluster.protocol
