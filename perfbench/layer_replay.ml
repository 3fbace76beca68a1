(* Layer replays for traced runs: each layer's public functions called
   directly on inputs shaped like the traffic the run just carried (the
   cluster's own threshold schemes at its n/σ/τ, the mean message size
   it observed, its key space, its recorded blocks), timed in host
   nanoseconds per call.  Each replay is one [replay.<layer>.<fn>]
   span. *)

open Sbft_sim
open Sbft_crypto
open Sbft_core

(* Host nanoseconds per call of [f], repeated in doubling batches until
   [budget] CPU seconds have passed. *)
let ns_per_call ?(budget = 0.04) f =
  ignore (Sys.opaque_identity (f ()));
  let t0 = Sys.time () in
  let rec go calls batch =
    for _ = 1 to batch do
      ignore (Sys.opaque_identity (f ()))
    done;
    let calls = calls + batch in
    let dt = Sys.time () -. t0 in
    if dt >= budget then dt *. 1e9 /. float_of_int calls else go calls (batch * 2)
  in
  go 0 1

let timed spans name f =
  Spans.span spans name ~attrs:(fun ns -> [ ("ns_per_call", ns) ]) (fun () -> ns_per_call f)

let crypto spans (cl : Cluster.t) ~mean_msg_bytes =
  let keys = cl.Cluster.keys in
  let rk = cl.Cluster.replica_keys in
  let msg = Sha256.digest "perfbench block hash" in
  let shares sk k = List.init k (fun i -> Threshold.share_sign (sk rk.(i)) ~msg) in
  let sigma_k = Threshold.threshold keys.Keys.sigma in
  let tau_k = Threshold.threshold keys.Keys.tau in
  let sigma_shares = shares (fun r -> r.Keys.sigma_sk) sigma_k in
  let tau_shares = shares (fun r -> r.Keys.tau_sk) tau_k in
  let signature =
    match (Threshold.combine_verified keys.Keys.sigma ~msg sigma_shares).Threshold.signature with
    | Some s -> s
    | None -> failwith "replay: honest σ shares did not combine"
  in
  let body = String.make (max 1 mean_msg_bytes) 'm' in
  let mac_key = Sha256.digest "perfbench channel key" in
  let small = String.make 64 'k' in
  let kp = rk.(0).Keys.pki_sk in
  let pki_sig = Pki.sign kp msg in
  let pk = keys.Keys.replica_pks.(0) in
  [
    ( "crypto.threshold_share_sign_ns",
      timed spans "replay.crypto.threshold_share_sign" (fun () ->
          Threshold.share_sign rk.(1).Keys.sigma_sk ~msg) );
    ( "crypto.threshold_combine_sigma_ns",
      timed spans "replay.crypto.threshold_combine_sigma" (fun () ->
          Threshold.combine_verified keys.Keys.sigma ~msg sigma_shares) );
    ( "crypto.threshold_combine_tau_ns",
      timed spans "replay.crypto.threshold_combine_tau" (fun () ->
          Threshold.combine_verified keys.Keys.tau ~msg tau_shares) );
    ( "crypto.threshold_verify_ns",
      timed spans "replay.crypto.threshold_verify" (fun () ->
          Threshold.verify keys.Keys.sigma ~msg signature) );
    ( "crypto.sha256_ns_at_mean_msg",
      timed spans "replay.crypto.sha256" (fun () -> Sha256.digest body) );
    ( "crypto.hmac_ns_at_mean_msg",
      timed spans "replay.crypto.hmac" (fun () -> Hmac.mac ~key:mac_key body) );
    ( "crypto.keccak256_64B_ns",
      timed spans "replay.crypto.keccak256" (fun () -> Keccak.digest small) );
    ( "crypto.pki_verify_ns",
      timed spans "replay.crypto.pki_verify" (fun () -> Pki.verify pk msg pki_sig) );
  ]

(* [Merkle_map.set] on the keys the run actually wrote. *)
let merkle_map spans state =
  let keys =
    Merkle_map.fold (fun k _ acc -> k :: acc) state [] |> Array.of_list
  in
  let n = Array.length keys in
  let i = ref 0 in
  let value = String.make 16 'v' in
  [
    ( "storage.merkle_map_set_ns",
      timed spans "replay.storage.merkle_map_set" (fun () ->
          incr i;
          Merkle_map.set state ~key:keys.(!i mod max 1 n) ~value) );
  ]

(* One block's WAL work over the run's recorded blocks: append its
   pre-prepare and commit records, group-commit them, and truncate
   below every [checkpoint]-th sequence number, as a replica does. *)
let wal spans ~blocks ~checkpoint =
  let ops =
    Array.of_list
      (List.map
         (fun (_, reqs) ->
           List.map (fun (r : Types.request) -> (r.Types.client, r.Types.timestamp, r.Types.op)) reqs)
         blocks)
  in
  let nb = Array.length ops in
  let w = Sbft_store.Wal.create () in
  let seq = ref 0 in
  let block () =
    incr seq;
    let seq = !seq in
    ignore
      (Sbft_store.Wal.append w
         (Sbft_store.Wal.Accepted_pre_prepare { seq; view = 0; ops = ops.(seq mod nb) }));
    ignore (Sbft_store.Wal.append w (Sbft_store.Wal.Commit_cert { seq; view = 0; fast = true }));
    ignore (Sbft_store.Wal.sync w);
    if seq mod checkpoint = 0 then Sbft_store.Wal.truncate_below w ~seq
  in
  if nb = 0 then [] else [ ("storage.wal_ns_per_block", timed spans "replay.storage.wal_block" block) ]

(* [Engine.schedule] + run of empty thunks: the event core's floor. *)
let engine spans =
  let batch = 20_000 in
  let per_batch =
    timed spans "replay.sim.engine_schedule_run" (fun () ->
        let e = Engine.create ~num_nodes:1 ~seed:1L () in
        for i = 1 to batch do
          Engine.schedule e ~at:(i * 37 mod 5003) ignore
        done;
        Engine.run_all e)
  in
  [ ("sim.schedule_run_ns_per_event", per_batch /. float_of_int batch) ]
