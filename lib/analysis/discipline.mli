(** Protocol-discipline rules (R9-R11) over {!Msgflow} summaries.

    - {b R9} — WAL-before-send: every send of a promise-bearing message
      must be preceded, on its source path through local helper calls
      and calls into the runtime modules,
      by a [wal_log] of the matching record type and the [wal_sync]
      that flushed it.  The record<->message correspondence is
      {!promise_table}.  Only files that use the WAL are checked (the
      PBFT baseline has no WAL by design).
    - {b R10} — cost-accounting completeness: every priced
      crypto/storage call reachable from an [on_*] handler (or from the
      WAL wrappers), including through the runtime modules, must have a covering [Engine.charge] of the same
      cost klass in the same function.
    - {b R11} — send-amplification: inside a handler, a send in an
      iteration over a handler-parameter collection, or an unguarded
      send of an amplifying message ({!amplifying}), must be gated on
      recognizable pacing state (a guard mentioning
      allow/rate/resent/paced/served, or an [Hashtbl.mem] dedup).

    Scope: [lib/core/] and [lib/pbft/].  Findings use {!Lint.finding}
    so they share the allowlist, report, and exit-code machinery. *)

val promise_table : (string * string list) list
(** Message constructor -> WAL record types, any one of which must be
    logged and synced before the send (the R9 correspondence table). *)

val amplifying : string list
(** Message constructors whose retransmission amplifies (full state
    transfers, new-view certificates): R11 requires a guard even
    outside iteration. *)

val lint_source : ?runtime:Msgflow.file list -> path:string -> string -> Lint.finding list
(** Run R9-R11 on the given source (attributed to root-relative
    [path]).  Out-of-scope paths and unparseable sources yield [] —
    {!Lint.lint_source} already reports parse failures.  Findings are
    sorted by line then rule.

    [runtime]: summaries of the runtime modules (see
    {!Msgflow.summarize}).  R9 and R10 follow the file's calls into
    them; a violation inside a runtime function is reported at its line
    in the runtime file, with a message naming this file. *)
