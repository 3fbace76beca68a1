(* Protocol-discipline rules over Msgflow summaries.

   R9  WAL-before-send: a send of a promise-bearing message must be
       dominated (in source order, following local calls) by a
       [wal_log] of the matching record type and a [wal_sync] that
       flushed it.  The record<->message correspondence lives in
       [promise_table] — one place, quoted in DESIGN.md.
   R10 cost-accounting completeness: every priced crypto/storage call
       reachable from a handler must have a covering [Engine.charge]
       of the same cost klass in the same function.
   R11 send-amplification: a send inside iteration over a
       handler-parameter collection, or an unguarded send of an
       amplifying message (full state / new-view retransmissions),
       needs a recognizable rate-limit guard.

   All three are syntactic and deliberately strict on the shapes the
   protocol uses; vetted exceptions go through lint.allow like any
   other rule.  R9 and R10 follow calls into the runtime modules given
   to [lint_source] (the replica runtime both protocols share): a
   violation inside a runtime function is reported at its own line in
   the runtime file, naming the protocol file whose handler reached it. *)

(* Local copies of path helpers (Lint keeps its own private). *)
let normalize path = String.map (fun c -> if Char.equal c '\\' then '/' else c) path

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let in_scope path =
  has_prefix ~prefix:"lib/core/" path || has_prefix ~prefix:"lib/pbft/" path

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  m = 0 || go 0

let mem x xs = List.exists (String.equal x) xs

let finding ~rule ~file ~line message =
  { Lint.rule; severity = Lint.Error; file; line; message }

(* ------------------------------------------------------------------ *)
(* R9: the record <-> message correspondence table.

   A message is promise-bearing when a restarted replica that forgot
   sending it could equivocate; the required records are the WAL
   entries whose replay re-establishes the promise (any one of the
   alternatives suffices).  Aggregate proof messages
   (Full_commit_proof, Full_commit_proof_slow, New_view) carry
   threshold certificates built from *others'* promises and are
   self-certifying, so they are deliberately absent; Sign_state shares
   an execution digest that the Client_row records already pin. *)

let promise_table =
  [
    ("Sign_share", [ "Accepted_pre_prepare" ]);
    ("Commit", [ "Accepted_prepare" ]);
    ("Full_execute_proof", [ "Stable_checkpoint" ]);
    ("Execute_ack", [ "Client_row"; "Stable_checkpoint" ]);
    ("View_change", [ "View_change_started" ]);
  ]

let uses_wal (fl : Msgflow.file) =
  List.exists
    (fun (f : Msgflow.func) ->
      List.exists
        (fun (e : Msgflow.einfo) ->
          match e.Msgflow.ev with
          | Msgflow.Log _ | Msgflow.Sync -> true
          | _ -> false)
        f.Msgflow.fn_events)
    fl.Msgflow.funcs

(* Linear simulation threading (logged, synced) record sets through the
   event stream of each handler, inlining local calls (cycles cut by
   the call stack).  Source order approximates domination: a branch
   cannot un-log a record, so the only miss is a send textually after a
   sync that runtime control flow could skip — acceptable for a
   checker whose job is catching *removed* log/sync pairs. *)
let r9 (fl : Msgflow.file) =
  if not (uses_wal fl) then []
  else begin
    let findings = ref [] in
    (* [path] is the file defining the events: a send inside a runtime
       function is reported there, naming the handler whose path
       reached it. *)
    let rec sim stack ~handler ~path state (events : Msgflow.einfo list) =
      List.fold_left
        (fun (logged, synced) (e : Msgflow.einfo) ->
          match e.Msgflow.ev with
          | Msgflow.Log r -> (r :: logged, synced)
          | Msgflow.Sync -> ([], logged @ synced)
          | Msgflow.Send _ ->
              (match Msgflow.send_ctor fl e with
              | Some c -> (
                  match List.assoc_opt c promise_table with
                  | Some required when not (List.exists (fun r -> mem r synced) required) ->
                      findings :=
                        finding ~rule:"R9" ~file:path ~line:e.Msgflow.line
                          (Printf.sprintf
                             "promise-bearing send of %s without a synced %s WAL \
                              record on this path (wal_log + wal_sync must come \
                              first)%s"
                             c
                             (String.concat "/" required)
                             (if String.equal path fl.Msgflow.path then ""
                              else
                                Printf.sprintf " (reached from %s in %s)" handler
                                  fl.Msgflow.path))
                        :: !findings
                  | _ -> ())
              | None -> ());
              (logged, synced)
          | Msgflow.Call n when not (mem n stack) -> (
              match Msgflow.find_func (Msgflow.all_funcs fl) n with
              | Some f ->
                  sim (n :: stack) ~handler ~path:f.Msgflow.fn_path (logged, synced)
                    f.Msgflow.fn_events
              | None -> (logged, synced))
          | _ -> (logged, synced))
        state events
    in
    List.iter
      (fun (f : Msgflow.func) ->
        if Msgflow.is_handler f.Msgflow.fn_name then
          ignore
            (sim [ f.Msgflow.fn_name ] ~handler:f.Msgflow.fn_name ~path:fl.Msgflow.path
               ([], []) f.Msgflow.fn_events))
      fl.Msgflow.funcs;
    !findings
  end

(* ------------------------------------------------------------------ *)
(* R10: cost-accounting completeness.

   Tally labels / Cost_model constants -> cost klass.  A charge covers
   a crypto call of the same klass in the same function when the charge
   sits in an enclosing-or-equal region, or — for calls inside a guard
   condition — when the charge sits in a region the condition
   dominates (the [wal_sync] shape: the charge lives in the then-arm
   the successful call enables). *)

let label_klass =
  [
    ("share_sign", "share_sign");
    ("proof_verify", "verify");
    ("combined_verify", "verify");
    ("combine", "combine");
    ("share_identify", "share_verify");
    ("share_batch_verify", "share_verify");
    ("hash", "hash");
    ("merkle", "merkle");
    ("wal_append", "wal_append");
    ("wal_fsync", "wal_fsync");
    ("rsa_verify", "rsa_verify");
    ("rsa_sign", "rsa_sign");
  ]

let const_klass =
  [
    ("bls_share_sign", "share_sign");
    ("bls_verify", "verify");
    ("bls_batch_verify", "share_verify");
    ("bls_share_verify", "share_verify");
    ("bls_identify", "share_verify");
    ("bls_combine", "combine");
    ("bls_combine_cached", "combine");
    ("group_combine", "combine");
    ("sha256", "hash");
    ("merkle_build", "merkle");
    ("merkle_prove", "merkle");
    ("merkle_verify", "merkle");
    ("wal_append", "wal_append");
    ("wal_fsync", "wal_fsync");
    ("rsa_sign", "rsa_sign");
    ("rsa_verify", "rsa_verify");
  ]

let charge_klasses labels consts =
  List.filter_map (fun l -> List.assoc_opt l label_klass) labels
  @ List.filter_map (fun c -> List.assoc_opt c const_klass) consts

let rec is_region_prefix a b =
  match (a, b) with
  | [], _ -> true
  | x :: a', y :: b' -> Int.equal x y && is_region_prefix a' b'
  | _ :: _, [] -> false

(* Entry points: handlers plus the WAL wrappers themselves (their
   Wal.append/Wal.sync must stay priced even though handlers reach them
   only by call). *)
let r10_entry (f : Msgflow.func) =
  Msgflow.is_handler f.Msgflow.fn_name
  || mem f.Msgflow.fn_name [ "wal_log"; "wal_sync" ]

let reachable_funcs (fl : Msgflow.file) =
  let entry_names =
    List.filter_map
      (fun (f : Msgflow.func) -> if r10_entry f then Some f.Msgflow.fn_name else None)
      fl.Msgflow.funcs
  in
  let rec go visited = function
    | [] -> visited
    | n :: rest ->
        if mem n visited then go visited rest
        else (
          match Msgflow.find_func (Msgflow.all_funcs fl) n with
          | None -> go visited rest
          | Some f ->
              let calls =
                List.filter_map
                  (fun (e : Msgflow.einfo) ->
                    match e.Msgflow.ev with Msgflow.Call c -> Some c | _ -> None)
                  f.Msgflow.fn_events
              in
              go (n :: visited) (calls @ rest))
  in
  let names = go [] entry_names in
  List.filter
    (fun (f : Msgflow.func) -> mem f.Msgflow.fn_name names)
    (Msgflow.all_funcs fl)

let r10 (fl : Msgflow.file) =
  List.concat_map
    (fun (f : Msgflow.func) ->
      List.filter_map
        (fun (e : Msgflow.einfo) ->
          match e.Msgflow.ev with
          | Msgflow.Crypto { klass; callee } ->
              let covered =
                List.exists
                  (fun (ch : Msgflow.einfo) ->
                    match ch.Msgflow.ev with
                    | Msgflow.Charge { labels; consts } ->
                        mem klass (charge_klasses labels consts)
                        && (is_region_prefix ch.Msgflow.region e.Msgflow.region
                           || (e.Msgflow.in_guard
                              && is_region_prefix e.Msgflow.region
                                   ch.Msgflow.region))
                    | _ -> false)
                  f.Msgflow.fn_events
              in
              if covered then None
              else
                Some
                  (finding ~rule:"R10" ~file:f.Msgflow.fn_path ~line:e.Msgflow.line
                     (Printf.sprintf
                        "crypto call %s reachable from a handler has no \
                         covering Engine.charge of klass %s in %s%s"
                        callee klass f.Msgflow.fn_name
                        (if String.equal f.Msgflow.fn_path fl.Msgflow.path then ""
                         else Printf.sprintf " (reached from a handler in %s)" fl.Msgflow.path)))
          | _ -> None)
        f.Msgflow.fn_events)
    (reachable_funcs fl)

(* ------------------------------------------------------------------ *)
(* R11: send amplification.

   Checked lexically per handler (helper-internal fan-out like
   [broadcast_replicas] is the protocol's own bounded all-replica
   multicast).  A guard is recognized by name: pacing state the code
   consults before sending. *)

let amplifying = [ "New_view"; "State_resp" ]

let guard_tokens = [ "allow"; "rate"; "resent"; "paced"; "served" ]

let is_guarded (e : Msgflow.einfo) =
  List.exists
    (fun g ->
      String.equal g "mem" (* Hashtbl.mem dedup: at-most-once per key *)
      || List.exists (fun tok -> contains_sub g tok) guard_tokens)
    e.Msgflow.guard_names

let r11 (fl : Msgflow.file) =
  let implicit = Lint.Taint.default.Lint.Taint.implicit_params in
  List.concat_map
    (fun (f : Msgflow.func) ->
      if not (Msgflow.is_handler f.Msgflow.fn_name) then []
      else
        List.filter_map
          (fun (e : Msgflow.einfo) ->
            match e.Msgflow.ev with
            | Msgflow.Send { ctor; _ } when not (is_guarded e) -> (
                let tainted =
                  List.filter
                    (fun v ->
                      mem v f.Msgflow.fn_params && not (mem v implicit))
                    e.Msgflow.iter_vars
                in
                match (tainted, ctor) with
                | v :: _, _ ->
                    Some
                      (finding ~rule:"R11" ~file:fl.Msgflow.path
                         ~line:e.Msgflow.line
                         (Printf.sprintf
                            "send inside iteration over peer-controlled '%s' \
                             in %s without a rate-limit guard"
                            v f.Msgflow.fn_name))
                | [], Some c when mem c amplifying ->
                    Some
                      (finding ~rule:"R11" ~file:fl.Msgflow.path
                         ~line:e.Msgflow.line
                         (Printf.sprintf
                            "unguarded send of amplifying message %s in %s; \
                             gate it on pacing state"
                            c f.Msgflow.fn_name))
                | _ -> None)
            | _ -> None)
          f.Msgflow.fn_events)
    fl.Msgflow.funcs

(* ------------------------------------------------------------------ *)

let dedup_sorted findings =
  let sorted =
    List.sort
      (fun (a : Lint.finding) (b : Lint.finding) ->
        match Int.compare a.Lint.line b.Lint.line with
        | 0 -> (
            match String.compare a.Lint.rule b.Lint.rule with
            | 0 -> String.compare a.Lint.message b.Lint.message
            | n -> n)
        | n -> n)
      findings
  in
  let rec uniq = function
    | a :: (b :: _ as rest) ->
        if
          Int.equal a.Lint.line b.Lint.line
          && String.equal a.Lint.rule b.Lint.rule
          && String.equal a.Lint.message b.Lint.message
        then uniq rest
        else a :: uniq rest
    | l -> l
  in
  uniq sorted

let lint_structure ?runtime ~path structure =
  let fl = Msgflow.summarize ?runtime ~path structure in
  dedup_sorted (r9 fl @ r10 fl @ r11 fl)

let lint_source ?runtime ~path source =
  let path = normalize path in
  if not (in_scope path) then []
  else
    match Msgflow.parse ~path source with
    | None -> [] (* Lint reports parse failures *)
    | Some structure -> lint_structure ?runtime ~path structure
