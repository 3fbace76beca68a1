(* Tests for the scale-optimized PBFT baseline: happy path, batching,
   crash tolerance, primary fail-over, exactly-once replies, checkpoint
   GC, agreement, and determinism. *)

open Sbft_sim
module Config = Sbft_core.Config
open Sbft_pbft

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let put ~client i =
  Sbft_store.Kv_service.put ~key:(Printf.sprintf "k%d-%d" client i) ~value:(string_of_int i)

let make ?(seed = 1L) ?(f = 1) ?(num_clients = 2) ?(win = 256) () =
  let config = { (Config.sbft ~f ~c:0) with Config.win } in
  Pbft_cluster.create ~seed ~config ~num_clients
    ~topology:(fun ~num_nodes -> Topology.lan ~num_nodes)
    ~service:Sbft_core.Cluster.kv_service ()

let drive ?(reqs = 20) ?(secs = 60) cluster =
  Pbft_cluster.start_clients cluster ~requests_per_client:reqs ~make_op:put;
  Pbft_cluster.run_for cluster (Engine.sec secs);
  cluster

let test_happy_path () =
  let cluster = drive (make ()) in
  check_int "all done" 40 (Pbft_cluster.total_completed cluster);
  check "agreement" true (Pbft_cluster.agreement_ok cluster);
  Array.iter
    (fun r -> check_int "no view change" 0 (Pbft_replica.view_changes_completed r))
    cluster.Pbft_cluster.replicas

let test_f2 () =
  let cluster = drive (make ~f:2 ~num_clients:3 ()) in
  check_int "all done" 60 (Pbft_cluster.total_completed cluster);
  check "agreement" true (Pbft_cluster.agreement_ok cluster)

let test_crash_backup () =
  let cluster = make () in
  Pbft_cluster.crash_replicas cluster [ 3 ];
  ignore (drive cluster);
  check_int "all done with f crashed" 40 (Pbft_cluster.total_completed cluster);
  check "agreement" true (Pbft_cluster.agreement_ok cluster)

let test_crash_primary () =
  let cluster = make () in
  Pbft_cluster.crash_replicas cluster [ 0 ];
  ignore (drive ~secs:90 cluster);
  check_int "all done after fail-over" 40 (Pbft_cluster.total_completed cluster);
  check "agreement" true (Pbft_cluster.agreement_ok cluster);
  check "view advanced" true (Pbft_replica.view cluster.Pbft_cluster.replicas.(1) >= 1)

let test_primary_crash_mid_run () =
  let cluster = make ~num_clients:4 () in
  Pbft_cluster.start_clients cluster ~requests_per_client:30 ~make_op:put;
  Engine.schedule cluster.Pbft_cluster.engine ~at:(Engine.ms 200) (fun () ->
      Engine.crash cluster.Pbft_cluster.engine 0);
  Pbft_cluster.run_for cluster (Engine.sec 90);
  check_int "all done" 120 (Pbft_cluster.total_completed cluster);
  check "agreement" true (Pbft_cluster.agreement_ok cluster)

(* Exactly-once replies across a view change.  The new primary re-drives
   every request still outstanding when it enters the view, including
   requests whose old-view block it is re-proposing from a prepared
   certificate, so one request can land in two committed blocks.  The
   second execution is a no-op, but every Reply for that (client,
   timestamp) must still carry the original result.  The cluster is
   wired by hand so the transport can record every Reply. *)
let test_duplicate_reply_matches_original () =
  let config = Config.sbft ~f:1 ~c:0 in
  let n = Config.n config and num_clients = 4 in
  let num_nodes = n + num_clients in
  let engine = Engine.create ~num_nodes ~seed:1L () in
  let network = Network.create ~topology:(Topology.lan ~num_nodes) () in
  let keys, _, client_kps =
    Sbft_core.Keys.setup (Rng.split (Engine.rng engine)) ~config ~num_clients
  in
  let replies : (int * int, (int * string) list) Hashtbl.t = Hashtbl.create 64 in
  let deliver = ref (fun _ ~src:_ ~dst:_ _ -> ()) in
  let send ctx ~src ~dst msg =
    (match msg with
    | Pbft_types.Reply { client; timestamp; seq; value; _ } ->
        let prev = Option.value (Hashtbl.find_opt replies (client, timestamp)) ~default:[] in
        Hashtbl.replace replies (client, timestamp) ((seq, value) :: prev)
    | _ -> ());
    Network.send network engine ~src ~dst ~size:(Pbft_types.size msg)
      ~at:(Engine.ctx_now ctx) (fun ctx -> !deliver ctx ~src ~dst msg)
  in
  let service = Sbft_core.Cluster.kv_service in
  let env : Pbft_replica.env =
    {
      engine;
      trace = Trace.create ~enabled:false ();
      keys;
      send;
      exec_cost = service.Sbft_core.Cluster.exec_cost;
      collectors = Sbft_core.Collectors.new_memo ();
    }
  in
  let replicas =
    Array.init n (fun id ->
        Pbft_replica.create ~env ~id ~store:(service.Sbft_core.Cluster.make_store ()))
  in
  let clients =
    Array.init num_clients (fun i ->
        Pbft_client.create ~env ~id:(n + i) ~keypair:client_kps.(i)
          ~on_complete:(fun ~timestamp:_ ~latency:_ ~value:_ -> ()))
  in
  (deliver :=
     fun ctx ~src ~dst msg ->
       if dst < n then Pbft_replica.on_message replicas.(dst) ctx ~src msg
       else Pbft_client.on_message clients.(dst - n) ctx ~src msg);
  Array.iter
    (fun r ->
      Engine.dispatch engine ~dst:(Pbft_replica.id r) ~at:0 (fun ctx -> Pbft_replica.start r ctx))
    replicas;
  Array.iteri
    (fun i c ->
      Pbft_client.run_closed_loop c ~num_requests:30 ~make_op:(put ~client:i) ~start_at:0)
    clients;
  Engine.schedule engine ~at:(Engine.ms 200) (fun () -> Engine.crash engine 0);
  Engine.run_until engine (Engine.sec 90);
  let completed = Array.fold_left (fun acc c -> acc + Pbft_client.completed c) 0 clients in
  check_int "all done" 120 completed;
  let rows =
    Hashtbl.fold (fun key vs acc -> (key, vs) :: acc) replies []
    |> List.sort (fun (a, _) (b, _) -> Det.compare_pair Int.compare Int.compare a b)
  in
  let executed_twice =
    List.filter
      (fun (_, vs) ->
        match vs with
        | (seq, _) :: rest -> List.exists (fun (s, _) -> not (Int.equal s seq)) rest
        | [] -> false)
      rows
  in
  check "some request committed in two blocks" true (executed_twice <> []);
  let mixed =
    List.filter_map
      (fun (key, vs) ->
        match List.sort_uniq String.compare (List.map snd vs) with
        | [ _ ] -> None
        | _ -> Some key)
      rows
  in
  Alcotest.(check (list (pair int int))) "every reply carries the original result" [] mixed

let test_checkpoint_gc () =
  let cluster = make ~win:8 ~num_clients:4 () in
  ignore (drive ~reqs:50 cluster);
  check_int "all done" 200 (Pbft_cluster.total_completed cluster);
  check "agreement" true (Pbft_cluster.agreement_ok cluster)

let test_quadratic_message_complexity () =
  (* The defining property of the baseline: per committed block, message
     count grows quadratically with n.  Compare n=4 and n=7 under an
     identical serial workload. *)
  let run f =
    let cluster = make ~f ~num_clients:1 () in
    ignore (drive ~reqs:10 cluster);
    check_int "done" 10 (Pbft_cluster.total_completed cluster);
    let blocks =
      Pbft_replica.last_executed cluster.Pbft_cluster.replicas.(1)
    in
    float_of_int (Network.messages_sent cluster.Pbft_cluster.network)
    /. float_of_int blocks
  in
  let m4 = run 1 and m7 = run 2 in
  (* (7/4)^2 ≈ 3.06: expect at least a 2x growth in messages per block. *)
  check "quadratic growth" true (m7 /. m4 > 2.0)

let test_determinism () =
  let run () =
    let cluster = drive (make ~seed:9L ()) in
    ( Pbft_cluster.total_completed cluster,
      Stats.Latency.mean_ms cluster.Pbft_cluster.latency )
  in
  check "deterministic" true (run () = run ())

let () =
  Alcotest.run "sbft_pbft"
    [
      ( "pbft",
        [
          Alcotest.test_case "happy path" `Quick test_happy_path;
          Alcotest.test_case "f=2" `Quick test_f2;
          Alcotest.test_case "crash backup" `Quick test_crash_backup;
          Alcotest.test_case "crash primary" `Quick test_crash_primary;
          Alcotest.test_case "primary crash mid-run" `Quick test_primary_crash_mid_run;
          Alcotest.test_case "duplicate reply matches original" `Quick
            test_duplicate_reply_matches_original;
          Alcotest.test_case "checkpoint gc" `Quick test_checkpoint_gc;
          Alcotest.test_case "quadratic messages" `Quick test_quadratic_message_complexity;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
    ]
