(** Quorum-soundness rules (R12–R15) over {!Msgflow} summaries and
    [Config]'s threshold definitions.

    R12 extracts every threshold definition and comparison as a
    symbolic linear form over (f, c) with [n = 3f + 2c + 1] and
    discharges the shared {!Quorum_props.obligations} (intersection,
    ordering, liveness) by exact enumeration over the admissible grid
    plus a finite-difference monotonicity check that extends the
    verdict to all admissible (f, c); hand-adjusted comparisons must
    carry a checked [[@quorum.adjust k]] annotation, and every
    declared [Config.mutation] must provably violate an obligation.
    R13 requires every raw [set_timer] arm site to guard its callback
    with an assigned cancel flag (or route through a guarded
    [set_replica_timer] wrapper, local or a module's such as
    [Runtime.set_replica_timer]).  R14 requires every
    threshold-crossing decision, in files that use the runtime
    sanitizer, to pair with a [Sanitizer.check_quorum] of the matching
    kind in the same function.  R15 rejects wildcard cases in the
    wire-size/kind tables of msg-defining files and in the
    [Cost_model] price tables. *)

(** Threshold definitions extracted from a [Config]-like file: the
    real linear form per quorum kind, plus each declared mutation
    constructor's weakened form. *)
type defs

val extract_defs : path:string -> Parsetree.structure -> defs option
(** [None] when the structure defines no threshold functions (an
    ordinary protocol file). *)

val default_defs : defs
(** The canonical formulas from {!Quorum_props} — used when the
    tree's [config.ml] is not among the linted files. *)

val lint_defs : defs -> Lint.finding list
(** The definitional half of R12 alone (exposed for unit tests). *)

val lint_source : defs:defs -> path:string -> string -> Lint.finding list
(** All four rules over one source file.  Files that themselves define
    thresholds get the definitional R12 checks; other in-scope files
    get the comparison-site, timer, sanitizer-coverage and table
    rules.  Out-of-scope paths return []. *)

val obligation_report : defs -> string
(** The deterministic R12 obligation report CI uploads: symbolic
    definitions, per-obligation PASS/FAIL with witness points, and the
    obligation each declared mutation violates. *)
