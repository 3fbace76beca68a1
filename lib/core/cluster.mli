(** One-call construction of a simulated deployment: engine, network,
    key setup, [n] replicas and [m] clients, fully wired.  One
    implementation serves every protocol on {!Runtime}; a {!protocol}
    descriptor carries what differs ({!sbft} here, the PBFT baseline's
    in [Sbft_pbft.Pbft_cluster]).

    Node ids: replicas are [0 .. n-1], clients [n .. n+m-1]. *)

type service = {
  make_store : unit -> Sbft_store.Auth_store.t;
      (** Fresh service state per replica. *)
  exec_cost : Types.request list -> Sbft_sim.Engine.time;
      (** Virtual CPU cost of executing one block of requests. *)
}

val kv_service : service
(** The replicated key-value store with per-op/persistence costs. *)

type ('msg, 'replica, 'client) protocol = {
  size : 'msg -> int;  (** Wire size of a message, in bytes. *)
  replica :
    env:'msg Runtime.env ->
    my:Keys.replica_keys ->
    store:Sbft_store.Auth_store.t ->
    durable:Replica.durable ->
    'replica;
      (** Build replica [my.replica_id] around its service store and its
          durable state (PBFT keeps no durable state yet and ignores it). *)
  client :
    env:'msg Runtime.env ->
    id:int ->
    keypair:Sbft_crypto.Pki.keypair ->
    on_complete:(timestamp:int -> latency:Sbft_sim.Engine.time -> value:string -> unit) ->
    'client;
  on_replica : 'replica -> Sbft_sim.Engine.ctx -> src:int -> 'msg -> unit;
  on_client : 'client -> Sbft_sim.Engine.ctx -> src:int -> 'msg -> unit;
  start : 'replica -> Sbft_sim.Engine.ctx -> unit;
  run_closed_loop :
    'client -> num_requests:int -> make_op:(int -> string) ->
    start_at:Sbft_sim.Engine.time -> unit;
  completed : 'client -> int;
  last_executed : 'replica -> int;
  committed_block : 'replica -> int -> Types.request list option;
  state_digest : 'replica -> string;
  fast_commits : 'replica -> int;
  slow_commits : 'replica -> int;
  view_changes : 'replica -> int;
}
(** What a protocol plugs into the shared deployment: its message size,
    replica and client constructors, message handlers and the accessors
    the harness measures and checks. *)

val sbft : (Types.msg, Replica.t, Client.t) protocol

type ('msg, 'replica, 'client) deployment = {
  protocol : ('msg, 'replica, 'client) protocol;
  engine : Sbft_sim.Engine.t;
  network : Sbft_sim.Network.t;
  trace : Sbft_sim.Trace.t;
  keys : Keys.t;
  config : Config.t;
  replicas : 'replica array;
  clients : 'client array;
  latency : Sbft_sim.Stats.Latency.t;
  throughput : Sbft_sim.Stats.Throughput.t;
  service : service;
  env : 'msg Runtime.env;
  replica_keys : Keys.replica_keys array;
  exec_cache : Sbft_store.Auth_store.cache;
  wal_frames : Sbft_store.Wal.frames;
      (** The WAL frame table every replica's log draws from: a record
          all replicas log is encoded once and its bytes held once. *)
  durables : Replica.durable array;
  amnesia : bool array;
      (** Per-replica flag: crashed with volatile state wiped; the next
          {!recover_replica} rebuilds from durable state. *)
}

type t = (Types.msg, Replica.t, Client.t) deployment
(** An SBFT deployment. *)

val deploy :
  ('msg, 'replica, 'client) protocol ->
  ?seed:int64 ->
  ?trace:bool ->
  ?cpu_scale:float ->
  ?on_complete:(client:int -> timestamp:int -> value:string -> unit) ->
  config:Config.t ->
  num_clients:int ->
  topology:(num_nodes:int -> Sbft_sim.Topology.t) ->
  service:service ->
  unit ->
  ('msg, 'replica, 'client) deployment
(** Validate [config] ([Invalid_argument] if {!Config.validate} rejects
    it) and wire the deployment; replicas start at time 0.
    [cpu_scale] scales every node's CPU speed (0.5 = twice as fast;
    used to model the multicore replicas of the paper's testbed).
    [on_complete] observes every request completion ([client] is the
    client index, not its node id) — the schedule fuzzer's oracles
    record accepted values through it. *)

val create :
  ?seed:int64 ->
  ?trace:bool ->
  ?cpu_scale:float ->
  ?on_complete:(client:int -> timestamp:int -> value:string -> unit) ->
  config:Config.t ->
  num_clients:int ->
  topology:(num_nodes:int -> Sbft_sim.Topology.t) ->
  service:service ->
  unit ->
  t
(** [deploy sbft]. *)

val num_replicas : (_, _, _) deployment -> int
val client_id : (_, _, _) deployment -> int -> int
(** Node id of the i-th client. *)

val start_clients :
  (_, _, _) deployment -> requests_per_client:int -> make_op:(client:int -> int -> string) -> unit
(** Launch every client's closed loop at time 0; completions feed the
    cluster's latency/throughput accumulators. *)

val crash_replicas : (_, _, _) deployment -> int list -> unit
(** Stop the given replicas; the engine drops every later event for
    them. *)

(** {2 Crash-amnesia recovery (SBFT only)} *)

val crash_amnesia : t -> int -> unit
(** Crash a replica AND mark its volatile state (protocol state, service
    store, client table) as lost.  The unsynced WAL tail is dropped, so
    only group-committed records survive — recovery must rebuild from
    the WAL plus the persisted block store. *)

val rollback_replica : t -> int -> before:int -> int
(** Rollback attack (schedule fuzzer): while replica [id] is down after
    {!crash_amnesia}, re-image its disk from a stale backup — the WAL is
    truncated to the newest stable checkpoint at or below [before]
    ({!Sbft_store.Wal.rollback_to_checkpoint}) and the block ledger
    follows.  Recovery then restarts from an internally consistent but
    outdated prefix that has forgotten every later prepare promise.
    Returns the checkpoint seq the disk rolled back to (0 = genesis). *)

val recover_replica : t -> int -> unit
(** Bring a crashed replica back.  After a plain crash it resumes with
    full memory; after {!crash_amnesia} a fresh replica is built around
    the durable state and runs {!Replica.recover} (when
    [Config.durable_wal] is off, the disk is lost too — the rebuilt
    replica starts from genesis). *)

(** {2 Running and checking} *)

val run_for : (_, _, _) deployment -> Sbft_sim.Engine.time -> unit

val total_completed : (_, _, _) deployment -> int
val agreement_ok : (_, _, _) deployment -> bool
(** All replicas that executed a given sequence number executed the same
    block, and state digests agree at equal heights (the paper's safety
    property, checked post-hoc). *)
