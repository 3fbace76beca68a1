(** Scale-optimized PBFT replica — the paper's baseline system.

    Classic Castro-Liskov three-phase commit with all-to-all prepare and
    commit rounds ([n = 3f + 1]); every server message carries an RSA
    signature (following "Making BFT systems tolerate Byzantine faults",
    the configuration the paper benchmarks against); clients collect
    [f + 1] matching replies.  Includes batching, checkpointing with
    all-to-all checkpoint messages, and a PBFT-style view change.  The
    protocol-independent skeleton (request intake, client table, timers,
    proposer loop, liveness) is {!Sbft_core.Runtime}, shared with SBFT. *)

type env = Pbft_types.msg Sbft_core.Runtime.env
(** The cluster-wide environment; see {!Sbft_core.Runtime.env}. *)

type t

val create : env:env -> id:int -> store:Sbft_store.Auth_store.t -> t

val id : t -> int
val view : t -> int
val last_executed : t -> int
val state_digest : t -> string
val blocks_committed : t -> int
val view_changes_completed : t -> int
val committed_block : t -> int -> Pbft_types.request list option

(** {2 Adversary observation surface}

    The runtime's [obs_*] namespace, as in {!Sbft_core.Replica}: view/progress
    counters and the highest active slot.  Results are attacker-visible
    by definition — the R6 taint lint bars protocol handlers from
    consuming them. *)

val obs_view : t -> int
val obs_last_executed : t -> int
val obs_next_seq : t -> int

(** Highest slot with any protocol activity at this replica. *)
val obs_frontier : t -> int

val on_message : t -> Sbft_sim.Engine.ctx -> src:int -> Pbft_types.msg -> unit
val start : t -> Sbft_sim.Engine.ctx -> unit
