(* Tests for the wire codec and the storage substrate: operation
   encoding, authenticated store digests and proofs, snapshots, and the
   block store. *)

open Sbft_wire
open Sbft_store

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

let qtest name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:300 gen prop)

(* ------------------------------------------------------------------ *)
(* Codec *)

let test_codec_scalars () =
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w 0xAB;
  Codec.Writer.u32 w 0xDEADBEEF;
  Codec.Writer.u64 w 0x1234_5678_9ABC_DEF0;
  Codec.Writer.varint w 300;
  Codec.Writer.str w "hello";
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  check_int "u8" 0xAB (Codec.Reader.u8 r);
  check_int "u32" 0xDEADBEEF (Codec.Reader.u32 r);
  check_int "u64" 0x1234_5678_9ABC_DEF0 (Codec.Reader.u64 r);
  check_int "varint" 300 (Codec.Reader.varint r);
  check_str "str" "hello" (Codec.Reader.str r);
  check "at end" true (Codec.Reader.at_end r)

let test_codec_truncated () =
  let r = Codec.Reader.of_string "\x01" in
  check "truncated raises" true
    (try
       ignore (Codec.Reader.u32 r);
       false
     with Codec.Reader.Truncated -> true)

let test_codec_list () =
  let w = Codec.Writer.create () in
  Codec.Writer.list w (fun x -> Codec.Writer.u32 w x) [ 1; 2; 3 ];
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Codec.Reader.list r Codec.Reader.u32)

let codec_props =
  [
    qtest "varint roundtrip" QCheck2.Gen.(int_range 0 max_int) (fun v ->
        let w = Codec.Writer.create () in
        Codec.Writer.varint w v;
        let r = Codec.Reader.of_string (Codec.Writer.contents w) in
        Codec.Reader.varint r = v);
    qtest "string roundtrip" QCheck2.Gen.string (fun s ->
        let w = Codec.Writer.create () in
        Codec.Writer.str w s;
        let r = Codec.Reader.of_string (Codec.Writer.contents w) in
        String.equal (Codec.Reader.str r) s);
  ]

(* ------------------------------------------------------------------ *)
(* Kv_op *)

let test_kv_op_roundtrip () =
  let cases =
    [ Kv_op.Put { key = "k"; value = "v" }; Kv_op.Get { key = "q" }; Kv_op.Noop ]
  in
  List.iter
    (fun op ->
      match Kv_op.decode (Kv_op.encode op) with
      | Some op' -> check "roundtrip" true (op = op')
      | None -> Alcotest.fail "decode failed")
    cases;
  check "garbage decode" true (Kv_op.decode "\xFFgarbage" = None);
  check "empty decode" true (Kv_op.decode "" = None)

(* ------------------------------------------------------------------ *)
(* Auth_store *)

let fresh () = Kv_service.create ()

let test_auth_store_execute () =
  let st = fresh () in
  let outs =
    Auth_store.execute_block st ~seq:1
      ~ops:[ Kv_service.put ~key:"a" ~value:"1"; Kv_service.get ~key:"a" ]
  in
  Alcotest.(check (list string)) "outputs" [ "ok"; "1" ] outs;
  check_int "last executed" 1 (Auth_store.last_executed st);
  check "sequential only" true
    (try
       ignore (Auth_store.execute_block st ~seq:3 ~ops:[]);
       false
     with Invalid_argument _ -> true)

let test_auth_store_digest_deterministic () =
  let run () =
    let st = fresh () in
    ignore (Auth_store.execute_block st ~seq:1 ~ops:[ Kv_service.put ~key:"x" ~value:"1" ]);
    ignore (Auth_store.execute_block st ~seq:2 ~ops:[ Kv_service.put ~key:"y" ~value:"2" ]);
    Auth_store.digest st
  in
  check_str "replicas agree" (Sbft_crypto.Sha256.hex (run ()))
    (Sbft_crypto.Sha256.hex (run ()))

let test_auth_store_digest_depends_on_history () =
  let st1 = fresh () and st2 = fresh () in
  ignore (Auth_store.execute_block st1 ~seq:1 ~ops:[ Kv_service.put ~key:"x" ~value:"1" ]);
  ignore (Auth_store.execute_block st2 ~seq:1 ~ops:[ Kv_service.put ~key:"x" ~value:"2" ]);
  check "different ops, different digest" false
    (String.equal (Auth_store.digest st1) (Auth_store.digest st2))

let test_auth_store_op_proof () =
  let st = fresh () in
  let op0 = Kv_service.put ~key:"alice" ~value:"100" in
  let op1 = Kv_service.put ~key:"bob" ~value:"50" in
  let op2 = Kv_service.get ~key:"alice" in
  ignore (Auth_store.execute_block st ~seq:1 ~ops:[ op0; op1; op2 ]);
  let digest = Auth_store.digest st in
  (* Valid proof for each position. *)
  List.iteri
    (fun index (op, value) ->
      match Auth_store.prove_op st ~seq:1 ~index with
      | None -> Alcotest.fail "no proof"
      | Some proof ->
          check
            (Printf.sprintf "op %d verifies" index)
            true
            (Auth_store.verify_op_proof ~digest ~seq:1 ~index ~op ~value ~proof))
    [ (op0, "ok"); (op1, "ok"); (op2, "100") ];
  (* Tampering attempts. *)
  let proof = Option.get (Auth_store.prove_op st ~seq:1 ~index:0) in
  check "wrong value" false
    (Auth_store.verify_op_proof ~digest ~seq:1 ~index:0 ~op:op0 ~value:"999" ~proof);
  check "wrong op" false
    (Auth_store.verify_op_proof ~digest ~seq:1 ~index:0 ~op:op1 ~value:"ok" ~proof);
  check "wrong index" false
    (Auth_store.verify_op_proof ~digest ~seq:1 ~index:1 ~op:op0 ~value:"ok" ~proof);
  check "wrong seq" false
    (Auth_store.verify_op_proof ~digest ~seq:2 ~index:0 ~op:op0 ~value:"ok" ~proof);
  check "wrong digest" false
    (Auth_store.verify_op_proof ~digest:(String.make 32 'x') ~seq:1 ~index:0 ~op:op0
       ~value:"ok" ~proof);
  check "garbage proof" false
    (Auth_store.verify_op_proof ~digest ~seq:1 ~index:0 ~op:op0 ~value:"ok" ~proof:"junk")

let test_auth_store_proof_across_blocks () =
  (* A proof for block 1 must verify against block 1's digest, not the
     digest of later states. *)
  let st = fresh () in
  let op = Kv_service.put ~key:"k" ~value:"v" in
  ignore (Auth_store.execute_block st ~seq:1 ~ops:[ op ]);
  let d1 = Auth_store.digest st in
  ignore (Auth_store.execute_block st ~seq:2 ~ops:[ Kv_service.put ~key:"k2" ~value:"v2" ]);
  let d2 = Auth_store.digest st in
  let proof = Option.get (Auth_store.prove_op st ~seq:1 ~index:0) in
  check "verifies at d1" true
    (Auth_store.verify_op_proof ~digest:d1 ~seq:1 ~index:0 ~op ~value:"ok" ~proof);
  check "rejected at d2" false
    (Auth_store.verify_op_proof ~digest:d2 ~seq:1 ~index:0 ~op ~value:"ok" ~proof);
  check "digest_at retains block 1" true (Auth_store.digest_at st ~seq:1 = Some d1)

let test_auth_store_query_proof () =
  let st = fresh () in
  ignore
    (Auth_store.execute_block st ~seq:1
       ~ops:[ Kv_service.put ~key:"alice" ~value:"100" ]);
  ignore
    (Auth_store.execute_block st ~seq:2 ~ops:[ Kv_service.put ~key:"bob" ~value:"7" ]);
  let digest = Auth_store.digest st in
  (match Auth_store.prove_query st ~key:"alice" with
  | None -> Alcotest.fail "no query proof"
  | Some (value, proof) ->
      check_str "value" "100" value;
      check "query verifies" true
        (Auth_store.verify_query_proof ~digest ~seq:2 ~key:"alice" ~value ~proof);
      check "wrong value fails" false
        (Auth_store.verify_query_proof ~digest ~seq:2 ~key:"alice" ~value:"1" ~proof);
      check "wrong key fails" false
        (Auth_store.verify_query_proof ~digest ~seq:2 ~key:"bob" ~value ~proof));
  check "absent key" true (Auth_store.prove_query st ~key:"nope" = None)

let test_auth_store_outputs_and_gc () =
  let st = fresh () in
  for s = 1 to 5 do
    ignore
      (Auth_store.execute_block st ~seq:s
         ~ops:[ Kv_service.put ~key:(string_of_int s) ~value:"v" ])
  done;
  check "output retained" true (Auth_store.output_at st ~seq:2 ~index:0 = Some "ok");
  check "ops retained" true (Auth_store.ops_at st ~seq:2 <> None);
  Auth_store.gc_below st ~seq:4;
  check "gc dropped old" true (Auth_store.output_at st ~seq:2 ~index:0 = None);
  check "gc kept recent" true (Auth_store.output_at st ~seq:4 ~index:0 = Some "ok");
  check "proof gone after gc" true (Auth_store.prove_op st ~seq:2 ~index:0 = None)

let test_auth_store_snapshot () =
  let st = fresh () in
  for s = 1 to 10 do
    ignore
      (Auth_store.execute_block st ~seq:s
         ~ops:[ Kv_service.put ~key:(Printf.sprintf "k%d" s) ~value:(string_of_int s) ])
  done;
  let snap = Auth_store.snapshot st in
  let d = Auth_store.digest st in
  (match Auth_store.snapshot_digest_info snap with
  | Some (seq, _) -> check_int "snapshot seq" 10 seq
  | None -> Alcotest.fail "bad snapshot header");
  let st2 = fresh () in
  (match Auth_store.load_snapshot st2 snap with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_int "restored seq" 10 (Auth_store.last_executed st2);
  check_str "digest stable" (Sbft_crypto.Sha256.hex d)
    (Sbft_crypto.Sha256.hex (Auth_store.digest st2));
  (* Restored store continues executing identically. *)
  let o1 = Auth_store.execute_block st ~seq:11 ~ops:[ Kv_service.get ~key:"k3" ] in
  let o2 = Auth_store.execute_block st2 ~seq:11 ~ops:[ Kv_service.get ~key:"k3" ] in
  check "same outputs" true (o1 = o2);
  check_str "same digest after more blocks"
    (Sbft_crypto.Sha256.hex (Auth_store.digest st))
    (Sbft_crypto.Sha256.hex (Auth_store.digest st2));
  check "corrupt snapshot rejected" true
    (match Auth_store.load_snapshot (fresh ()) "BOGUS" with Error _ -> true | Ok () -> false)

let test_auth_store_snapshot_checked () =
  let st = fresh () in
  for s = 1 to 10 do
    ignore
      (Auth_store.execute_block st ~seq:s
         ~ops:[ Kv_service.put ~key:(Printf.sprintf "k%d" s) ~value:(string_of_int s) ])
  done;
  let snap = Auth_store.snapshot st in
  let d = Auth_store.digest st in
  (* Matching expectation: the snapshot installs. *)
  let st2 = fresh () in
  (match Auth_store.load_snapshot_checked st2 snap ~expect:d with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_int "restored seq" 10 (Auth_store.last_executed st2);
  check_str "digest matches expectation" (Sbft_crypto.Sha256.hex d)
    (Sbft_crypto.Sha256.hex (Auth_store.digest st2));
  (* Wrong expectation: a well-formed snapshot for a *different* digest
     is rejected without mutating the target store. *)
  let st3 = fresh () in
  ignore (Auth_store.execute_block st3 ~seq:1 ~ops:[ Kv_service.put ~key:"own" ~value:"x" ]);
  let d3 = Auth_store.digest st3 in
  (match Auth_store.load_snapshot_checked st3 snap ~expect:"not-the-digest" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "digest mismatch accepted");
  check_int "store untouched: seq" 1 (Auth_store.last_executed st3);
  check_str "store untouched: digest" (Sbft_crypto.Sha256.hex d3)
    (Sbft_crypto.Sha256.hex (Auth_store.digest st3));
  (* Malformed snapshot: rejected before any digest computation, store
     again untouched. *)
  (match Auth_store.load_snapshot_checked st3 "BOGUS" ~expect:d with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "malformed snapshot accepted");
  check_int "store untouched after parse failure" 1 (Auth_store.last_executed st3)

let auth_store_props =
  [
    qtest "two replicas stay digest-identical under random workloads"
      QCheck2.Gen.(int_range 0 200)
      (fun seed ->
        let r = Sbft_sim.Rng.create (Int64.of_int (seed * 7)) in
        let a = fresh () and b = fresh () in
        let ok = ref true in
        for s = 1 to 10 do
          let n = 1 + Sbft_sim.Rng.int r 5 in
          let ops =
            List.init n (fun _ ->
                if Sbft_sim.Rng.bool r 0.7 then
                  Kv_service.put
                    ~key:(Printf.sprintf "k%d" (Sbft_sim.Rng.int r 20))
                    ~value:(Printf.sprintf "v%d" (Sbft_sim.Rng.int r 100))
                else Kv_service.get ~key:(Printf.sprintf "k%d" (Sbft_sim.Rng.int r 20)))
          in
          let oa = Auth_store.execute_block a ~seq:s ~ops in
          let ob = Auth_store.execute_block b ~seq:s ~ops in
          if oa <> ob || not (String.equal (Auth_store.digest a) (Auth_store.digest b))
          then ok := false
        done;
        !ok);
  ]

let test_shared_exec_cache () =
  (* Replicas sharing a cache produce identical results and share the
     resulting state structurally; a diverging replica misses the cache
     and computes its own (different) digest. *)
  let cache = Auth_store.new_cache () in
  let a = fresh () and b = fresh () and rogue = fresh () in
  List.iter (fun st -> Auth_store.set_cache st cache) [ a; b; rogue ];
  let ops = [ Kv_service.put ~key:"k" ~value:"v"; Kv_service.get ~key:"k" ] in
  let oa = Auth_store.execute_block a ~seq:1 ~ops in
  let ob = Auth_store.execute_block b ~seq:1 ~ops in
  check "same outputs via cache" true (oa = ob);
  check_str "same digest" (Sbft_crypto.Sha256.hex (Auth_store.digest a))
    (Sbft_crypto.Sha256.hex (Auth_store.digest b));
  (* Proofs still work on the cache-hit replica. *)
  (match Auth_store.prove_op b ~seq:1 ~index:0 with
  | Some proof ->
      check "proof from cached record" true
        (Auth_store.verify_op_proof ~digest:(Auth_store.digest b) ~seq:1 ~index:0
           ~op:(List.hd ops) ~value:"ok" ~proof)
  | None -> Alcotest.fail "no proof");
  (* Divergent execution does not collide in the cache. *)
  let orogue =
    Auth_store.execute_block rogue ~seq:1 ~ops:[ Kv_service.put ~key:"k" ~value:"EVIL" ]
  in
  check "rogue outputs differ" true (orogue <> oa);
  check "rogue digest differs" false
    (String.equal (Auth_store.digest rogue) (Auth_store.digest a));
  (* Continuing from divergent states stays isolated (read-only ops keep
     the states distinct; a put would legitimately re-converge them). *)
  let reads = [ Kv_service.get ~key:"k" ] in
  let ra = Auth_store.execute_block a ~seq:2 ~ops:reads in
  let rr = Auth_store.execute_block rogue ~seq:2 ~ops:reads in
  check "reads see divergent states" true (ra = [ "v" ] && rr = [ "EVIL" ]);
  check "still different" false
    (String.equal (Auth_store.digest rogue) (Auth_store.digest a))

(* A KV store whose [apply] counts its calls. *)
let counting_store () =
  let calls = ref 0 in
  let apply map op =
    incr calls;
    Kv_service.apply map op
  in
  (calls, fun () -> Auth_store.create ~apply ())

let test_exec_cache_keys_on_content () =
  let calls, make = counting_store () in
  let cache = Auth_store.new_cache () in
  let a = make () and b = make () and c = make () and d = make () in
  List.iter (fun st -> Auth_store.set_cache st cache) [ a; b; c; d ];
  (* Equal content from distinct string copies is one cache entry. *)
  let ops = [ Kv_service.put ~key:"k" ~value:"v"; Kv_service.get ~key:"k" ] in
  let copies = List.map (fun op -> Bytes.to_string (Bytes.of_string op)) ops in
  let oa = Auth_store.execute_block a ~seq:1 ~ops in
  let ob = Auth_store.execute_block b ~seq:1 ~ops:copies in
  check_int "apply ran once per op" 2 !calls;
  check "same outputs" true (oa = ob);
  check_str "same digest" (Sbft_crypto.Sha256.hex (Auth_store.digest a))
    (Sbft_crypto.Sha256.hex (Auth_store.digest b));
  (* ["x"] and ["x"; ""] share seq and pre-state, and a digest of their
     plain concatenation would collide; content keys keep them apart. *)
  let ox = Auth_store.execute_block a ~seq:2 ~ops:[ "x" ] in
  let oxe = Auth_store.execute_block b ~seq:2 ~ops:[ "x"; "" ] in
  check_int "one output" 1 (List.length ox);
  check_int "two outputs" 2 (List.length oxe);
  check_int "both executed" 5 !calls;
  (* Same seq, pre-state and length, different content: a miss. *)
  let oc =
    Auth_store.execute_block c ~seq:1
      ~ops:[ Kv_service.put ~key:"k" ~value:"w"; Kv_service.get ~key:"k" ]
  in
  check_int "divergent block executed" 7 !calls;
  check "divergent outputs" true (oc = [ "ok"; "w" ]);
  (* A different pre-state misses even for identical ops. *)
  ignore (Auth_store.execute_block c ~seq:2 ~ops:[ "x" ]);
  check_int "divergent pre-state missed" 8 !calls;
  (* The same pre-state and ops hit again, whichever store asks. *)
  ignore (Auth_store.execute_block d ~seq:1 ~ops);
  ignore (Auth_store.execute_block d ~seq:2 ~ops:[ "x"; "" ]);
  check_int "hits add no calls" 8 !calls;
  check_str "hit reproduces digest" (Sbft_crypto.Sha256.hex (Auth_store.digest b))
    (Sbft_crypto.Sha256.hex (Auth_store.digest d))

let test_exec_cache_once_per_cluster () =
  (* Four replicas share the deployment's cache, so the cluster runs
     [apply] exactly once per committed op. *)
  let open Sbft_core in
  let calls, make_store = counting_store () in
  let service = { Cluster.kv_service with make_store } in
  let cluster =
    Cluster.create ~config:(Config.sbft ~f:1 ~c:0) ~num_clients:2
      ~topology:(fun ~num_nodes -> Sbft_sim.Topology.lan ~num_nodes)
      ~service ()
  in
  Cluster.start_clients cluster ~requests_per_client:20 ~make_op:(fun ~client i ->
      Kv_service.put ~key:(Printf.sprintf "k%d-%d" client i) ~value:(string_of_int i));
  Cluster.run_for cluster (Sbft_sim.Engine.sec 60);
  check_int "all requests completed" 40 (Cluster.total_completed cluster);
  check "agreement" true (Cluster.agreement_ok cluster);
  let replicas = Array.to_list cluster.Cluster.replicas in
  let last = Replica.last_executed (List.hd replicas) in
  check "every replica executed every block" true
    (List.for_all (fun r -> Replica.last_executed r = last) replicas);
  let committed_ops =
    List.fold_left
      (fun acc seq ->
        match Replica.committed_block (List.hd replicas) seq with
        | Some reqs -> acc + List.length reqs
        | None -> Alcotest.failf "block %d not retained" seq)
      0
      (List.init last (fun i -> i + 1))
  in
  check "some blocks committed" true (committed_ops >= 40);
  check_int "apply calls = one replica's committed ops" committed_ops !calls

let test_clone_independent () =
  let a = fresh () in
  ignore (Auth_store.execute_block a ~seq:1 ~ops:[ Kv_service.put ~key:"x" ~value:"1" ]);
  let b = Auth_store.clone a in
  check_str "clone digest equal" (Sbft_crypto.Sha256.hex (Auth_store.digest a))
    (Sbft_crypto.Sha256.hex (Auth_store.digest b));
  ignore (Auth_store.execute_block a ~seq:2 ~ops:[ Kv_service.put ~key:"x" ~value:"2" ]);
  check_int "clone unaffected" 1 (Auth_store.last_executed b);
  ignore (Auth_store.execute_block b ~seq:2 ~ops:[ Kv_service.put ~key:"x" ~value:"3" ]);
  check "clones diverge independently" false
    (String.equal (Auth_store.digest a) (Auth_store.digest b))

let test_bootstrap () =
  let a = fresh () and b = fresh () in
  let genesis = [ Kv_service.put ~key:"g" ~value:"1" ] in
  Auth_store.bootstrap a ~ops:genesis;
  Auth_store.bootstrap b ~ops:genesis;
  check_str "bootstrapped digests equal" (Sbft_crypto.Sha256.hex (Auth_store.digest a))
    (Sbft_crypto.Sha256.hex (Auth_store.digest b));
  check_int "no blocks executed" 0 (Auth_store.last_executed a);
  ignore (Auth_store.execute_block a ~seq:1 ~ops:[ Kv_service.get ~key:"g" ]);
  check "bootstrap state visible" true (Auth_store.output_at a ~seq:1 ~index:0 = Some "1");
  check "bootstrap after execution rejected" true
    (try
       Auth_store.bootstrap a ~ops:genesis;
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Block_store *)

let bop ?(client = 7) ?(timestamp = 1) op = { Block_store.client; timestamp; op }

let test_block_store () =
  let bs = Block_store.create () in
  check_int "empty highest" 0 (Block_store.highest bs);
  Block_store.add bs { seq = 1; view = 0; ops = [ bop "a" ]; cert = Fast "sig1" };
  Block_store.add bs
    { seq = 3; view = 0; ops = [ bop "b" ]; cert = Slow { tau = "t3"; tau_tau = "tt3" } };
  check_int "highest" 3 (Block_store.highest bs);
  check "mem" true (Block_store.mem bs 1);
  check "not mem" false (Block_store.mem bs 2);
  (* First write wins. *)
  Block_store.add bs { seq = 1; view = 9; ops = [ bop "z" ]; cert = Fast "other" };
  (match Block_store.find bs 1 with
  | Some e ->
      check "idempotent" true
        (match e.ops with [ o ] -> String.equal o.Block_store.op "a" | _ -> false);
      check "client identity persisted" true
        (match e.ops with [ o ] -> o.Block_store.client = 7 && o.Block_store.timestamp = 1 | _ -> false)
  | None -> Alcotest.fail "missing");
  Block_store.prune_below bs 3;
  check "pruned" false (Block_store.mem bs 1);
  check "kept" true (Block_store.mem bs 3);
  let row =
    { Block_store.ce_client = 9; ce_timestamp = 3; ce_value = "v"; ce_seq = 5; ce_index = 0 }
  in
  Block_store.set_checkpoint bs ~seq:5 ~snapshot:(lazy "snapA") ~table:[ row ];
  Block_store.set_checkpoint bs ~seq:4 ~snapshot:(lazy "old") ~table:[];
  (match Block_store.checkpoint bs with
  | Some cp
    when cp.Block_store.cp_seq = 5
         && Lazy.force cp.Block_store.cp_snapshot = "snapA"
         && cp.Block_store.cp_table = [ row ] -> ()
  | _ -> Alcotest.fail "checkpoint regression");
  check "entry size positive" true
    (Block_store.entry_size { seq = 1; view = 0; ops = [ bop "abc" ]; cert = Fast "s" } > 0)

(* ------------------------------------------------------------------ *)
(* Wal *)

let wal_records =
  [
    Wal.View_entered 2;
    Wal.View_change_started 3;
    Wal.Accepted_pre_prepare
      { seq = 4; view = 2; ops = [ (7, 1, "op-a"); (-1, 0, "") ] };
    Wal.Accepted_prepare { seq = 4; view = 2; tau = "tau-bytes" };
    Wal.Commit_cert { seq = 4; view = 2; fast = false };
    Wal.Stable_checkpoint { seq = 8; digest = "digest"; pi = "pi-bytes" };
    Wal.Client_row { client = 7; timestamp = 1; value = "v"; seq = 4; index = 0 };
  ]

let test_wal_roundtrip () =
  let w = Wal.create () in
  List.iter (fun r -> ignore (Wal.append w r)) wal_records;
  check "dirty before sync" true (Wal.dirty w);
  check "replay sees nothing unsynced" true (Wal.replay w = []);
  check "sync commits" true (Wal.sync w);
  check "clean after sync" false (Wal.dirty w);
  check "second sync is a no-op" false (Wal.sync w);
  check "replay in append order" true (Wal.replay w = wal_records);
  (* Replay is read-only: doing it again gives the same records. *)
  check "replay idempotent" true (Wal.replay w = wal_records);
  check_int "append count" (List.length wal_records) (Wal.appends w);
  check_int "sync count" 1 (Wal.syncs w)

let test_wal_crash_loses_tail () =
  let w = Wal.create () in
  ignore (Wal.append w (Wal.View_entered 1));
  ignore (Wal.sync w);
  ignore (Wal.append w (Wal.Commit_cert { seq = 1; view = 1; fast = true }));
  (* Crash before the group commit: only the synced prefix survives. *)
  Wal.drop_pending w;
  check "unsynced record gone" true (Wal.replay w = [ Wal.View_entered 1 ]);
  check "nothing left pending" false (Wal.dirty w)

let test_wal_corrupt_tail () =
  let w = Wal.create () in
  ignore (Wal.append w (Wal.View_entered 1));
  ignore (Wal.append w (Wal.Commit_cert { seq = 1; view = 1; fast = true }));
  ignore (Wal.sync w);
  (* A torn write garbles the last frame: replay keeps the prefix. *)
  Wal.corrupt_tail w ~bytes:3;
  check "prefix survives torn tail" true (Wal.replay w = [ Wal.View_entered 1 ]);
  (* Garbling everything yields an empty (not crashing) replay. *)
  Wal.corrupt_tail w ~bytes:(Wal.durable_bytes w);
  check "fully corrupt log replays empty" true (Wal.replay w = [])

let test_wal_truncate_below () =
  let w = Wal.create () in
  List.iter
    (fun r -> ignore (Wal.append w r))
    [
      Wal.View_entered 1;
      Wal.Commit_cert { seq = 1; view = 1; fast = true };
      Wal.Stable_checkpoint { seq = 4; digest = "d4"; pi = "p4" };
      Wal.Commit_cert { seq = 5; view = 1; fast = false };
      Wal.Stable_checkpoint { seq = 8; digest = "d8"; pi = "p8" };
      Wal.Commit_cert { seq = 9; view = 1; fast = true };
    ];
  ignore (Wal.sync w);
  Wal.truncate_below w ~seq:8;
  let kept = Wal.replay w in
  check "view records retained" true (List.mem (Wal.View_entered 1) kept);
  check "latest checkpoint retained" true
    (List.mem (Wal.Stable_checkpoint { seq = 8; digest = "d8"; pi = "p8" }) kept);
  (* When the retained checkpoint's seq equals the truncation seq it is
     both re-added up front and kept by the [s >= seq] filter; it must
     still appear exactly once or every later truncation carries the
     duplicate frame forward. *)
  check_int "retained checkpoint appears exactly once" 1
    (List.length
       (List.filter
          (fun r -> r = Wal.Stable_checkpoint { seq = 8; digest = "d8"; pi = "p8" })
          kept));
  check "older checkpoint dropped" false
    (List.mem (Wal.Stable_checkpoint { seq = 4; digest = "d4"; pi = "p4" }) kept);
  check "pre-checkpoint record dropped" false
    (List.mem (Wal.Commit_cert { seq = 5; view = 1; fast = false }) kept);
  check "post-checkpoint record kept" true
    (List.mem (Wal.Commit_cert { seq = 9; view = 1; fast = true }) kept);
  (* Truncation preserves replayability: sync more records after. *)
  ignore (Wal.append w (Wal.Commit_cert { seq = 10; view = 1; fast = true }));
  ignore (Wal.sync w);
  check "appends after truncation replay" true
    (List.mem (Wal.Commit_cert { seq = 10; view = 1; fast = true }) (Wal.replay w))

let test_wal_truncate_amortized () =
  (* Physical compaction is deferred behind a doubling byte watermark:
     per-slot truncation calls must not rewrite the log each time (at
     paper scale that was quadratic), but once the durable buffer
     outgrows the watermark the dead prefix really is dropped. *)
  let w = Wal.create () in
  let big = String.make 512 'x' in
  let grow_past seq0 n =
    for i = 0 to n - 1 do
      ignore
        (Wal.append w
           (Wal.Client_row
              { client = 1; timestamp = i; value = big; seq = seq0 + i; index = 0 }))
    done;
    ignore (Wal.sync w)
  in
  (* ~256 KB of records, all below the horizon we'll truncate to. *)
  grow_past 1 500;
  let before = Wal.durable_bytes w in
  Wal.truncate_below w ~seq:501;
  check "watermark crossing compacts the log" true
    (Wal.durable_bytes w < before / 4);
  (* Replay only ever sees the live suffix, compacted or not. *)
  grow_past 501 3;
  Wal.truncate_below w ~seq:502;
  check "logical truncation filters replay without rewrite" true
    (List.for_all
       (fun r ->
         match r with Wal.Client_row { seq; _ } -> seq >= 502 | _ -> true)
       (Wal.replay w));
  (* Small logs below the watermark never pay for a rewrite, but their
     replay is still truncated. *)
  let small = Wal.create () in
  ignore (Wal.append small (Wal.Commit_cert { seq = 1; view = 1; fast = true }));
  ignore (Wal.append small (Wal.Commit_cert { seq = 2; view = 1; fast = true }));
  ignore (Wal.sync small);
  let sz = Wal.durable_bytes small in
  Wal.truncate_below small ~seq:2;
  check_int "sub-watermark log keeps its bytes" sz (Wal.durable_bytes small);
  check "sub-watermark log still replays truncated" true
    (Wal.replay small = [ Wal.Commit_cert { seq = 2; view = 1; fast = true } ])

(* Byte-faithfulness: the frame sizes, log size and torn-tail replays
   below were recorded from the single-buffer log this one replaced,
   so any drift in the framing or in how a torn tail parses shows up
   here.  The ops ["\xFF"] and pi ["p\xFF"] end their frames in 0xFF,
   where garbage of 0xFF changes nothing and the record survives. *)
let golden_records =
  wal_records
  @ [
      Wal.Accepted_pre_prepare
        { seq = 300; view = 70; ops = [ (-5, 1000, String.make 200 'o'); (3, 4, "\xFF") ] };
      Wal.Client_row { client = -1; timestamp = 0; value = ""; seq = 300; index = 1 };
    ]

let synced ?frames records =
  let w = Wal.create ?frames () in
  let sizes = List.map (Wal.append w) records in
  ignore (Wal.sync w);
  (w, sizes)

(* [(count, x)] run-length pairs, expanded. *)
let expand runs = List.concat_map (fun (count, x) -> List.init count (fun _ -> x)) runs

let prefix n l = List.filteri (fun i _ -> i < n) l

let test_wal_golden_bytes () =
  let w, sizes = synced golden_records in
  check "framed sizes" true (sizes = [ 7; 7; 19; 18; 9; 23; 12; 221; 12 ]);
  check_int "durable bytes" 328 (Wal.durable_bytes w);
  check "replay" true (Wal.replay w = golden_records)

let test_wal_torn_sweep () =
  (* Replayed prefix length after corrupting the last k bytes, k = 0..328. *)
  let replayed =
    expand [ (1, 9); (13, 8); (220, 7); (12, 6); (23, 5); (9, 4); (18, 3); (19, 2); (7, 1); (7, 0) ]
  in
  (* (checkpoint kept, durable bytes, replayed records) after a rollback
     of the same torn log. *)
  let rolled = expand [ (246, (8, 83, 6)); (83, (0, 0, 0)) ] in
  List.iteri
    (fun k (n, (cp, bytes, after)) ->
      let w, _ = synced golden_records in
      Wal.corrupt_tail w ~bytes:k;
      check_int (Printf.sprintf "k=%d size kept" k) 328 (Wal.durable_bytes w);
      check (Printf.sprintf "k=%d replays the %d-record prefix" k n) true
        (Wal.replay w = prefix n golden_records);
      check_int (Printf.sprintf "k=%d rollback checkpoint" k) cp
        (Wal.rollback_to_checkpoint w ~before:max_int);
      check_int (Printf.sprintf "k=%d rollback size" k) bytes (Wal.durable_bytes w);
      check (Printf.sprintf "k=%d rollback replay" k) true
        (Wal.replay w = prefix after golden_records))
    (List.combine replayed rolled);
  (* Physical compaction after a torn tail keeps the intact frames only. *)
  let big = String.make 512 'x' in
  let grown () =
    let records =
      List.concat
        (List.init 200 (fun i ->
             Wal.Client_row { client = 1; timestamp = i; value = big; seq = 1 + i; index = 0 }
             ::
             (if i mod 50 = 49 then
                [ Wal.Stable_checkpoint { seq = 1 + i; digest = "d"; pi = "p\xFF" } ]
              else [])))
    in
    fst (synced records)
  in
  check_int "grown log" 105324 (Wal.durable_bytes (grown ()));
  List.iter
    (fun (k, bytes, n) ->
      let w = grown () in
      Wal.corrupt_tail w ~bytes:k;
      Wal.truncate_below w ~seq:120;
      check_int (Printf.sprintf "compacted k=%d size" k) bytes (Wal.durable_bytes w);
      let r = Wal.replay w in
      check_int (Printf.sprintf "compacted k=%d replay" k) n (List.length r);
      check (Printf.sprintf "compacted k=%d checkpoint first" k) true
        (match r with Wal.Stable_checkpoint { seq = 100; _ } :: _ -> true | _ -> false))
    [
      (0, 42726, 84); (1, 42726, 84); (3, 42713, 83); (5, 42713, 83);
      (600, 41659, 81); (1200, 41132, 80); (30000, 12661, 25);
    ]

let test_wal_shared_frames_isolated () =
  let frames = Wal.new_frames () in
  let a, sizes_a = synced ~frames golden_records in
  let b, sizes_b = synced ~frames golden_records in
  check "shared frames report the same sizes" true (sizes_a = sizes_b);
  let bytes_b = Wal.durable_bytes b in
  Wal.corrupt_tail a ~bytes:200;
  check "torn log loses its tail" true (Wal.replay a <> golden_records);
  check "torn tail leaves the other log's replay" true (Wal.replay b = golden_records);
  check_int "torn tail leaves the other log's size" bytes_b (Wal.durable_bytes b);
  ignore (Wal.rollback_to_checkpoint a ~before:max_int);
  check "rollback leaves the other log's replay" true (Wal.replay b = golden_records);
  check_int "rollback leaves the other log's size" bytes_b (Wal.durable_bytes b);
  (* A later log drawing the same frames still gets intact bytes. *)
  let c, _ = synced ~frames golden_records in
  check "table frames untouched by the attacks" true (Wal.replay c = golden_records)

let test_wal_rollback_to_checkpoint () =
  let log =
    [
      Wal.View_entered 1;
      Wal.Commit_cert { seq = 1; view = 1; fast = true };
      Wal.Stable_checkpoint { seq = 4; digest = "d4"; pi = "p4" };
      Wal.Commit_cert { seq = 5; view = 1; fast = false };
      Wal.View_entered 2;
      Wal.Stable_checkpoint { seq = 8; digest = "d8"; pi = "p8" };
      Wal.Commit_cert { seq = 9; view = 2; fast = true };
    ]
  in
  let w, sizes = synced log in
  ignore (Wal.append w (Wal.Commit_cert { seq = 10; view = 2; fast = true }));
  Wal.truncate_below w ~seq:8;
  check_int "newest checkpoint at or below before" 4 (Wal.rollback_to_checkpoint w ~before:7);
  check "keeps the prefix ending at that checkpoint" true (Wal.replay w = prefix 3 log);
  check_int "prefix bytes" (List.fold_left ( + ) 0 (prefix 3 sizes)) (Wal.durable_bytes w);
  check "pending records dropped" false (Wal.dirty w);
  check_int "pending bytes dropped" 0 (Wal.pending_bytes w);
  let w, _ = synced log in
  check_int "a checkpoint at before qualifies" 8 (Wal.rollback_to_checkpoint w ~before:8);
  check "later view record kept up to it" true (Wal.replay w = prefix 6 log);
  let w, _ = synced log in
  ignore (Wal.append w (Wal.View_entered 3));
  check_int "no qualifying checkpoint" 0 (Wal.rollback_to_checkpoint w ~before:3);
  check "log rolls back to empty" true (Wal.replay w = []);
  check_int "no bytes left" 0 (Wal.durable_bytes w);
  check "nothing pending" false (Wal.dirty w)

let wal_props =
  [
    qtest "random record sequences replay exactly"
      QCheck2.Gen.(int_range 0 10_000)
      (fun seed ->
        let r = Sbft_sim.Rng.create (Int64.of_int ((seed * 31) + 5)) in
        let random_record () =
          match Sbft_sim.Rng.int r 7 with
          | 0 -> Wal.View_entered (Sbft_sim.Rng.int r 100)
          | 1 -> Wal.View_change_started (Sbft_sim.Rng.int r 100)
          | 2 ->
              Wal.Accepted_pre_prepare
                {
                  seq = Sbft_sim.Rng.int r 1000;
                  view = Sbft_sim.Rng.int r 10;
                  ops = [ (Sbft_sim.Rng.int r 20 - 1, Sbft_sim.Rng.int r 50, "x") ];
                }
          | 3 ->
              Wal.Accepted_prepare
                { seq = Sbft_sim.Rng.int r 1000; view = Sbft_sim.Rng.int r 10; tau = "t" }
          | 4 ->
              Wal.Commit_cert
                {
                  seq = Sbft_sim.Rng.int r 1000;
                  view = Sbft_sim.Rng.int r 10;
                  fast = Sbft_sim.Rng.bool r 0.5;
                }
          | 5 ->
              Wal.Stable_checkpoint
                { seq = Sbft_sim.Rng.int r 1000; digest = "d"; pi = "p" }
          | _ ->
              Wal.Client_row
                {
                  client = Sbft_sim.Rng.int r 20;
                  timestamp = Sbft_sim.Rng.int r 50;
                  value = "v";
                  seq = Sbft_sim.Rng.int r 1000;
                  index = Sbft_sim.Rng.int r 4;
                }
        in
        let records = List.init (1 + Sbft_sim.Rng.int r 30) (fun _ -> random_record ()) in
        let w = Wal.create () in
        List.iter (fun rc -> ignore (Wal.append w rc)) records;
        ignore (Wal.sync w);
        Wal.replay w = records);
  ]

let () =
  Alcotest.run "sbft_store"
    [
      ( "codec",
        [
          Alcotest.test_case "scalars" `Quick test_codec_scalars;
          Alcotest.test_case "truncated" `Quick test_codec_truncated;
          Alcotest.test_case "list" `Quick test_codec_list;
        ]
        @ codec_props );
      ("kv_op", [ Alcotest.test_case "roundtrip" `Quick test_kv_op_roundtrip ]);
      ( "auth_store",
        [
          Alcotest.test_case "execute" `Quick test_auth_store_execute;
          Alcotest.test_case "digest deterministic" `Quick test_auth_store_digest_deterministic;
          Alcotest.test_case "digest history" `Quick test_auth_store_digest_depends_on_history;
          Alcotest.test_case "op proofs" `Quick test_auth_store_op_proof;
          Alcotest.test_case "proofs across blocks" `Quick test_auth_store_proof_across_blocks;
          Alcotest.test_case "query proofs" `Quick test_auth_store_query_proof;
          Alcotest.test_case "outputs and gc" `Quick test_auth_store_outputs_and_gc;
          Alcotest.test_case "snapshot" `Quick test_auth_store_snapshot;
          Alcotest.test_case "snapshot checked" `Quick test_auth_store_snapshot_checked;
          Alcotest.test_case "shared exec cache" `Quick test_shared_exec_cache;
          Alcotest.test_case "exec cache keys on content" `Quick
            test_exec_cache_keys_on_content;
          Alcotest.test_case "exec cache once per cluster" `Quick
            test_exec_cache_once_per_cluster;
          Alcotest.test_case "clone" `Quick test_clone_independent;
          Alcotest.test_case "bootstrap" `Quick test_bootstrap;
        ]
        @ auth_store_props );
      ("block_store", [ Alcotest.test_case "basics" `Quick test_block_store ]);
      ( "wal",
        [
          Alcotest.test_case "append/sync/replay" `Quick test_wal_roundtrip;
          Alcotest.test_case "crash loses unsynced tail" `Quick test_wal_crash_loses_tail;
          Alcotest.test_case "corrupt tail tolerated" `Quick test_wal_corrupt_tail;
          Alcotest.test_case "truncate below checkpoint" `Quick test_wal_truncate_below;
          Alcotest.test_case "truncation amortized" `Quick test_wal_truncate_amortized;
          Alcotest.test_case "golden frame bytes" `Quick test_wal_golden_bytes;
          Alcotest.test_case "torn-tail sweep" `Quick test_wal_torn_sweep;
          Alcotest.test_case "shared frames isolated" `Quick test_wal_shared_frames_isolated;
          Alcotest.test_case "rollback to checkpoint" `Quick test_wal_rollback_to_checkpoint;
        ]
        @ wal_props );
    ]
