(** Simulated write-ahead log for crash-amnesia recovery.

    Appends land in a pending log; [sync] group-commits them to the
    durable log.  A crash-amnesia restart keeps only the durable prefix
    ([drop_pending] models the lost tail), and [replay] tolerates a
    torn/corrupt tail by stopping at the first bad frame.

    The log is byte-faithful: its bytes are the concatenation of its
    framed records (varint length, FNV-1a checksum, payload), and
    [replay] parses that concatenation.  The frames themselves are
    immutable strings drawn from a {!frames} table that a deployment
    shares across its replicas, so a record every replica logs is
    encoded and checksummed once and its bytes are held once.  The
    attack paths ([corrupt_tail], [rollback_to_checkpoint]) build new
    strings or keep a prefix of the frame list; they never change a
    frame another log holds.

    Pure storage — no simulator dependency.  Callers charge
    [Cost_model.wal_append] per appended byte count and
    [Cost_model.wal_fsync] per effective [sync]. *)

type record =
  | View_entered of int
  | View_change_started of int
  | Accepted_pre_prepare of {
      seq : int;
      view : int;
      ops : (int * int * string) list;  (** client, timestamp, op *)
    }
  | Accepted_prepare of { seq : int; view : int; tau : string }
      (** [tau] is the serialized prepare certificate, so recovery can
          restore the replica's highest-prepare report for view changes. *)
  | Commit_cert of { seq : int; view : int; fast : bool }
  | Stable_checkpoint of { seq : int; digest : string; pi : string }
  | Client_row of {
      client : int;
      timestamp : int;
      value : string;
      seq : int;
      index : int;
    }

type frames
(** A frame table: each record's frame, keyed on the record's content
    (strings compare with [String.equal], so physically shared op
    strings compare by pointer).  Entries below the newest
    {!truncate_below} horizon of any log using the table are evicted.
    It is owned by a deployment, never process-global. *)

val new_frames : unit -> frames

type t

val create : ?frames:frames -> unit -> t
(** An empty log taking its frames from [frames] (by default a table of
    its own).  Logs that share a table log identical bytes for identical
    records, and share them. *)

val append : t -> record -> int
(** Queue a record's frame; returns the framed byte count (for cost
    charging), the same whether or not the frame was shared.  Not
    durable until [sync]. *)

val dirty : t -> bool
(** [true] when appends are pending a sync. *)

val sync : t -> bool
(** Group-commit pending appends.  Returns [true] when a sync actually
    happened (caller charges one fsync), [false] when clean. *)

val drop_pending : t -> unit
(** Crash: the unsynced tail is gone. *)

val replay : t -> record list
(** Decode the durable prefix in append order, stopping at the first
    truncated or checksum-failing frame.  Records below the
    [truncate_below] horizon are filtered out (view records and the
    latest stable checkpoint at or below the horizon survive, the
    checkpoint hoisted to the front), so the replayed history does not
    depend on whether physical compaction has run yet. *)

val truncate_below : t -> seq:int -> unit
(** Checkpoint-time compaction: logically drop records whose sequence
    number is below [seq], keeping view records and the latest stable
    checkpoint at or below [seq].  The horizon bump is O(1); the
    physical rewrite is deferred until the durable log outgrows a
    doubling watermark, so callers may truncate on every
    stable-checkpoint advance without quadratic rewriting.  The rewrite
    filters the retained frames as they are, without re-encoding or
    re-parsing them.  Also evicts the shared table's entries below
    [seq]. *)

val durable_bytes : t -> int
(** Physical durable size; may include logically-dead frames not yet
    compacted away. *)


val pending_bytes : t -> int
val appends : t -> int
val syncs : t -> int

val reset : t -> unit
(** Wipe everything (models losing the disk; used when durability is
    disabled). *)

val rollback_to_checkpoint : t -> before:int -> int
(** Rollback-attack helper for the schedule fuzzer: discard the pending
    log and truncate the durable log to the prefix ending at the
    newest [Stable_checkpoint] whose seq is ≤ [before] — the disk image
    an attacker restores from an old backup.  Later view records and
    accepted pre-prepare/prepare promises vanish, so a recovery from
    this log resurrects pre-view-change state and forgets promises the
    network already saw.  Returns the checkpoint seq kept, or [0] when
    no checkpoint qualifies (the log becomes empty).  The kept prefix is
    the same frame strings, so other logs sharing them are untouched. *)

val corrupt_tail : t -> bytes:int -> unit
(** Test helper: overwrite the last [bytes] durable bytes with garbage
    to simulate a torn write.  Copy-on-write: the frames it reaches are
    replaced by new strings in this log only. *)
