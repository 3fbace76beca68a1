(** The replica runtime shared by SBFT ({!Replica}) and the PBFT baseline
    ([Sbft_pbft.Pbft_replica]), and the client skeleton shared by their
    clients.

    The runtime owns everything about a replica that does not depend on
    how blocks are ordered: the environment, the slot table, request
    intake with the pending queue and the outstanding table, the client
    table with exactly-once execution and answers to retransmissions,
    retirable timers, transport and tracing, the batching proposer loop,
    the view-change liveness trigger, view entry with the re-drive of
    stranded requests, and the [obs_*] accessors.  An ordering core owns
    its slot contents, its messages and its commit, checkpoint and
    view-change protocols, and calls into the runtime directly.

    The runtime is polymorphic in the core's message type ['msg] and slot
    type ['slot].  Where the cores differ, the difference is data: the
    {!policy} record and the message builders passed to {!create}. *)

type 'msg env = {
  engine : Sbft_sim.Engine.t;
  trace : Sbft_sim.Trace.t;
  keys : Keys.t;
  send : Sbft_sim.Engine.ctx -> src:int -> dst:int -> 'msg -> unit;
      (** Transport: delivers [msg] to node [dst] (replica or client)
          with size/latency accounting. *)
  exec_cost : Types.request list -> Sbft_sim.Engine.time;
      (** Virtual CPU cost of executing a block of this service's
          operations (KV ≈ µs/op, EVM ≈ ms/tx). *)
  collectors : Collectors.memo;  (** The cluster's collector-draw cache. *)
}
(** One per cluster, shared by its replicas and clients. *)

type policy = {
  exec_window : int option;
      (** [Some w]: the primary also keeps proposals within [w] slots of
          its last executed block (SBFT's active window, §V-F).  [None]:
          only the [ls + win] bound applies. *)
  flush_max : bool;
      (** A batch-timeout flush takes up to [max_batch] pending requests
          ([true]) rather than the adaptive batch target ([false]). *)
  signed_broadcast : bool;
      (** Every {!broadcast} carries one RSA signature, charged to the
          sender. *)
}

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
  mutable next_seq : int;  (** primary: next sequence to assign *)
  mutable ls : int;  (** windowing bound *)
  pending : Types.request Queue.t;
  pending_keys : (int * int, unit) Hashtbl.t;
  outstanding : (int * int, Types.request) Hashtbl.t;  (** awaiting execution *)
  client_table : (int, int * string * int * int) Hashtbl.t;
      (** client -> (timestamp, value, seq, index) of its last executed op *)
  batching : Batching.t;
  mutable batch_timer_armed : bool;
  mutable last_progress : Sbft_sim.Engine.time;
  mutable vc_backoff : int;
  mutable in_view_change : bool;  (** no proposals while set *)
  mutable sent_vc_for : int;  (** highest view we issued a view-change for *)
  mutable retired : bool;
  mutable n_committed : int;
  mutable n_view_changes : int;
}

val create :
  env:'msg env ->
  id:int ->
  policy:policy ->
  request_msg:(Types.request -> 'msg) ->
  reply_msg:
    (view:int -> replica:int -> client:int -> timestamp:int -> seq:int -> value:string -> 'msg) ->
  store:Sbft_store.Auth_store.t ->
  new_slot:(int -> 'slot) ->
  is_committed:('slot -> bool) ->
  ('msg, 'slot) t
(** [request_msg] and [reply_msg] build the core's [Request] and [Reply]
    messages; [new_slot] and [is_committed] create and inspect its slots. *)

val cfg : ('msg, 'slot) t -> Config.t
val primary_of : ('msg, 'slot) t -> int -> int
val is_primary : ('msg, 'slot) t -> bool
val last_executed : ('msg, 'slot) t -> int

val slot : ('msg, 'slot) t -> int -> 'slot
(** The slot at a sequence number, created on first use. *)

(** {2 Adversary observation surface} *)

val obs_view : ('msg, 'slot) t -> int
val obs_last_executed : ('msg, 'slot) t -> int
val obs_next_seq : ('msg, 'slot) t -> int
val obs_frontier : ('msg, 'slot) t -> int

(** {2 Timers, transport and tracing} *)

val set_replica_timer :
  ('msg, 'slot) t -> after:Sbft_sim.Engine.time -> (Sbft_sim.Engine.ctx -> unit) ->
  Sbft_sim.Engine.timer
(** A node timer whose callback is a no-op once the replica is retired. *)

val retire : ('msg, 'slot) t -> unit
(** Permanently silence this replica object's timers (crash, teardown or
    crash-amnesia rebuild). *)

val send : ('msg, 'slot) t -> Sbft_sim.Engine.ctx -> dst:int -> 'msg -> unit
val broadcast : ('msg, 'slot) t -> Sbft_sim.Engine.ctx -> 'msg -> unit

val trace :
  ('msg, 'slot) t -> Sbft_sim.Engine.ctx -> string -> ('a, unit, string, unit) format4 -> 'a
(** [trace t ctx kind fmt args...] records a trace event whose detail is
    [Printf.sprintf fmt args...]; the detail is only formatted when
    tracing is enabled. *)

val note_progress : ('msg, 'slot) t -> Sbft_sim.Engine.ctx -> unit

val mark_outstanding : ('msg, 'slot) t -> Types.request -> unit
(** Watch a client request until it executes (liveness trigger). *)

(** {2 Proposing and request intake} *)

type propose = Sbft_sim.Engine.ctx -> seq:int -> Types.request list -> unit
(** The core's block proposal: the runtime has already taken the batch
    off the pending queue and assigned it [seq]. *)

val inflight : ('msg, 'slot) t -> int
(** Blocks proposed but not yet known committed here. *)

val try_propose : ('msg, 'slot) t -> Sbft_sim.Engine.ctx -> propose:propose -> unit
(** The batching proposer loop (primary only, not during a view change). *)

val on_request :
  ('msg, 'slot) t -> Sbft_sim.Engine.ctx -> Types.request -> propose:propose -> unit
(** Client request intake: answer a retransmission from the client table,
    queue a verified new request at the primary, or forward it to the
    primary and watch it. *)

(** {2 Exactly-once execution} *)

val execute :
  ('msg, 'slot) t -> Sbft_sim.Engine.ctx -> seq:int -> Types.request list ->
  (Types.request * string) list * (Types.request * string * int) list
(** Execute a committed block at [seq].  A request the client table shows
    as already executed runs as the no-op [""].  Returns every request
    with its output, and the client-table rows the block added as
    (request, value, index in block). *)

val reply :
  ('msg, 'slot) t -> Sbft_sim.Engine.ctx -> seq:int -> (Types.request * string) list -> unit
(** Signed direct replies for an executed block.  Each reply carries the
    client table's value, so a duplicate's reply repeats the original
    result. *)

(** {2 Views and liveness} *)

val enter_view : ('msg, 'slot) t -> Sbft_sim.Engine.ctx -> view:int -> unit
(** Enter [view]: end any view change, reset the back-off, note progress. *)

val redrive : ('msg, 'slot) t -> Sbft_sim.Engine.ctx -> unit
(** Re-drive requests stranded by the old view: the primary queues them,
    a backup forwards them to the primary. *)

val start :
  ('msg, 'slot) t -> Sbft_sim.Engine.ctx ->
  start_view_change:(Sbft_sim.Engine.ctx -> target_view:int -> unit) -> unit
(** Note progress and arm the liveness ticker. *)

val arm_liveness :
  ('msg, 'slot) t -> start_view_change:(Sbft_sim.Engine.ctx -> target_view:int -> unit) -> unit
(** Tick every half view-change timeout; complain (via
    [start_view_change]) when requests wait longer than the backed-off
    timeout without progress. *)

(** {2 Client skeleton}

    One closed-loop operation in flight; a retry timer resends to every
    replica; completion on [f + 1] matching direct replies (or on
    whatever proof the protocol's client accepts via {!client_complete}). *)

type pending = {
  request : Types.request;
  sent_at : Sbft_sim.Engine.time;
  mutable replies : (int * string) list;  (** replica -> value *)
  mutable done_ : bool;
}

type 'msg client = {
  env : 'msg env;
  id : int;
  keypair : Sbft_crypto.Pki.keypair;
  request_msg : Types.request -> 'msg;
  on_complete : timestamp:int -> latency:Sbft_sim.Engine.time -> value:string -> unit;
  mutable timestamp : int;
  mutable current : pending option;
  mutable believed_primary : int;
  mutable completed : int;
  mutable retries : int;
  mutable queue : (int -> string) option;  (** closed-loop generator *)
  mutable remaining : int;
  mutable issued : int;
}

val client_create :
  env:'msg env ->
  id:int ->
  keypair:Sbft_crypto.Pki.keypair ->
  request_msg:(Types.request -> 'msg) ->
  on_complete:(timestamp:int -> latency:Sbft_sim.Engine.time -> value:string -> unit) ->
  'msg client

val client_submit : 'msg client -> Sbft_sim.Engine.ctx -> op:string -> unit
val client_complete : 'msg client -> Sbft_sim.Engine.ctx -> pending -> string -> unit

val client_note_view : 'msg client -> int -> unit
(** Aim future requests at [view]'s primary. *)

val on_client_reply :
  'msg client -> Sbft_sim.Engine.ctx -> view:int -> replica:int -> timestamp:int ->
  value:string -> unit
(** A direct reply: complete once [f + 1] distinct replicas agree. *)

val client_run_closed_loop :
  'msg client -> num_requests:int -> make_op:(int -> string) ->
  start_at:Sbft_sim.Engine.time -> unit
