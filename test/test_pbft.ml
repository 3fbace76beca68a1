(* Tests for the scale-optimized PBFT baseline: happy path, batching,
   crash tolerance, primary fail-over, exactly-once replies, checkpoint
   GC, agreement, and determinism. *)

open Sbft_sim
module Config = Sbft_core.Config
module Cluster = Sbft_core.Cluster
open Sbft_pbft

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let put ~client i =
  Sbft_store.Kv_service.put ~key:(Printf.sprintf "k%d-%d" client i) ~value:(string_of_int i)

let make ?(protocol = Pbft_cluster.pbft) ?(seed = 1L) ?(f = 1) ?(num_clients = 2) ?(win = 256)
    () =
  let config = { (Config.sbft ~f ~c:0) with Config.win } in
  Cluster.deploy protocol ~seed ~config ~num_clients
    ~topology:(fun ~num_nodes -> Topology.lan ~num_nodes)
    ~service:Cluster.kv_service ()

let drive ?(reqs = 20) ?(secs = 60) cluster =
  Cluster.start_clients cluster ~requests_per_client:reqs ~make_op:put;
  Cluster.run_for cluster (Engine.sec secs);
  cluster

let test_happy_path () =
  let cluster = drive (make ()) in
  check_int "all done" 40 (Cluster.total_completed cluster);
  check "agreement" true (Cluster.agreement_ok cluster);
  Array.iter
    (fun r -> check_int "no view change" 0 (Pbft_replica.view_changes_completed r))
    cluster.Cluster.replicas

let test_f2 () =
  let cluster = drive (make ~f:2 ~num_clients:3 ()) in
  check_int "all done" 60 (Cluster.total_completed cluster);
  check "agreement" true (Cluster.agreement_ok cluster)

let test_crash_backup () =
  let cluster = make () in
  Cluster.crash_replicas cluster [ 3 ];
  ignore (drive cluster);
  check_int "all done with f crashed" 40 (Cluster.total_completed cluster);
  check "agreement" true (Cluster.agreement_ok cluster)

let test_crash_primary () =
  let cluster = make () in
  Cluster.crash_replicas cluster [ 0 ];
  ignore (drive ~secs:90 cluster);
  check_int "all done after fail-over" 40 (Cluster.total_completed cluster);
  check "agreement" true (Cluster.agreement_ok cluster);
  check "view advanced" true (Pbft_replica.view cluster.Cluster.replicas.(1) >= 1)

let test_primary_crash_mid_run () =
  let cluster = make ~num_clients:4 () in
  Cluster.start_clients cluster ~requests_per_client:30 ~make_op:put;
  Engine.schedule cluster.Cluster.engine ~at:(Engine.ms 200) (fun () ->
      Cluster.crash_replicas cluster [ 0 ]);
  Cluster.run_for cluster (Engine.sec 90);
  check_int "all done" 120 (Cluster.total_completed cluster);
  check "agreement" true (Cluster.agreement_ok cluster)

(* Exactly-once replies across a view change.  The new primary re-drives
   every request still outstanding when it enters the view, including
   requests whose old-view block it is re-proposing from a prepared
   certificate, so one request can land in two committed blocks.  The
   second execution is a no-op, but every Reply for that (client,
   timestamp) must still carry the original result.  The clients' message
   handler records every Reply they receive. *)
let test_duplicate_reply_matches_original () =
  let replies : (int * int, (int * string) list) Hashtbl.t = Hashtbl.create 64 in
  let on_client c ctx ~src msg =
    (match msg with
    | Pbft_types.Reply { client; timestamp; seq; value; _ } ->
        let prev = Option.value (Hashtbl.find_opt replies (client, timestamp)) ~default:[] in
        Hashtbl.replace replies (client, timestamp) ((seq, value) :: prev)
    | _ -> ());
    Pbft_client.on_message c ctx ~src msg
  in
  let cluster = make ~protocol:{ Pbft_cluster.pbft with on_client } ~num_clients:4 () in
  Cluster.start_clients cluster ~requests_per_client:30 ~make_op:put;
  Engine.schedule cluster.Cluster.engine ~at:(Engine.ms 200) (fun () ->
      Cluster.crash_replicas cluster [ 0 ]);
  Cluster.run_for cluster (Engine.sec 90);
  check_int "all done" 120 (Cluster.total_completed cluster);
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

(* The one deployment validates every protocol's config: f = 0 would be
   a single-replica "PBFT". *)
let test_rejects_f0 () =
  match make ~f:0 () with
  | _ -> Alcotest.fail "f = 0 accepted"
  | exception Invalid_argument _ -> ()

let test_checkpoint_gc () =
  let cluster = make ~win:8 ~num_clients:4 () in
  ignore (drive ~reqs:50 cluster);
  check_int "all done" 200 (Cluster.total_completed cluster);
  check "agreement" true (Cluster.agreement_ok cluster)

let test_quadratic_message_complexity () =
  (* The defining property of the baseline: per committed block, message
     count grows quadratically with n.  Compare n=4 and n=7 under an
     identical serial workload. *)
  let run f =
    let cluster = make ~f ~num_clients:1 () in
    ignore (drive ~reqs:10 cluster);
    check_int "done" 10 (Cluster.total_completed cluster);
    let blocks =
      Pbft_replica.last_executed cluster.Cluster.replicas.(1)
    in
    float_of_int (Network.messages_sent cluster.Cluster.network)
    /. float_of_int blocks
  in
  let m4 = run 1 and m7 = run 2 in
  (* (7/4)^2 ≈ 3.06: expect at least a 2x growth in messages per block. *)
  check "quadratic growth" true (m7 /. m4 > 2.0)

let test_determinism () =
  let run () =
    let cluster = drive (make ~seed:9L ()) in
    ( Cluster.total_completed cluster,
      Stats.Latency.mean_ms cluster.Cluster.latency )
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
          Alcotest.test_case "rejects f=0" `Quick test_rejects_f0;
          Alcotest.test_case "checkpoint gc" `Quick test_checkpoint_gc;
          Alcotest.test_case "quadratic messages" `Quick test_quadratic_message_complexity;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
    ]
