(* Workload runner of the repository benchmark.

   One invocation runs one named workload once and prints one JSON line:

     sbftperf.exe run --workload NAME --seed N [--traced] [--spans FILE]
     sbftperf.exe list

   The cluster is driven only through public entry points
   ([Cluster.create] / [run_for], [Client.submit], [Engine.schedule] /
   [dispatch], the [Cluster.service] record).  An untraced run uses the
   stock service and reports the end-to-end figures.  A traced run wraps
   the service's [apply] and the workload generator in spans, times each
   [run_for] slice, enables [Cost_model.Tally], replays each layer's
   public functions on traffic-shaped inputs afterwards, and reports the
   per-layer figures.  Both runs check their own results: agreement, state
   digests against an unreplicated re-execution of the committed blocks,
   and every completed request's result.  perfbench/run.py runs each
   invocation in a fresh process and aggregates them. *)

open Sbft_sim
open Sbft_core
module Auth_store = Sbft_store.Auth_store
module Kv_workload = Sbft_workload.Kv_workload
module Eth_workload = Sbft_workload.Eth_workload

type kind = Kv | Eth

type spec = {
  name : string;
  f : int;
  c : int;
  clients : int;
  topology : [ `Lan | `Continent ];
  kind : kind;
  arrivals : Load.arrivals;
  warmup : Engine.time;
  budget : int;
      (** the run stops after the slice in which this many requests have
          completed, so every seed does the same amount of work *)
  cap : Engine.time;  (** virtual-time limit; reaching it is a failure *)
  probes : Engine.time list;
      (** unavailability is the mean time from each of these instants to
          the first completion of a request that fell due after it *)
  crash_primary : bool;  (** crash the initial primary at the first probe *)
  slice : Engine.time;  (** virtual length of one [run_for] call *)
}

(* Half the failure-free closed-loop throughput of the failover cluster:
   f=64, c=0, n=193 on LAN with 64 closed-loop clients commits about 250
   requests of 64 ops per virtual second once warm (16k ops/s). *)
let failover_rate = 125.

let specs =
  [
    {
      name = "kv-fast-n209";
      f = 64;
      c = 8;
      clients = 64;
      topology = `Lan;
      kind = Kv;
      arrivals = Load.Closed;
      warmup = Engine.ms 150;
      budget = 240;
      cap = Engine.sec 5;
      probes = List.init 8 (fun k -> Engine.ms (150 + (25 * k)));
      crash_primary = false;
      slice = Engine.ms 10;
    };
    {
      name = "eth-contract-n4";
      f = 1;
      c = 0;
      clients = 16;
      topology = `Continent;
      kind = Eth;
      arrivals = Load.Closed;
      warmup = Engine.ms 1000;
      budget = 250;
      cap = Engine.sec 40;
      probes = List.init 24 (fun k -> Engine.ms (1000 + (250 * k)));
      crash_primary = false;
      slice = Engine.ms 50;
    };
    {
      name = "kv-failover-n193";
      f = 64;
      c = 0;
      clients = 64;
      topology = `Lan;
      kind = Kv;
      arrivals = Load.Poisson failover_rate;
      warmup = Engine.ms 100;
      budget = 250;
      cap = Engine.sec 30;
      probes = [ Engine.ms 400 ];
      crash_primary = true;
      slice = Engine.ms 10;
    };
  ]

let find_spec name = List.find_opt (fun s -> String.equal s.name name) specs

(* The paper-scale rows' settings: 2 cores per replica (CPU scale 0.5)
   and a fast-path fallback timer scaled to the topology's latency. *)
let cpu_scale = 0.5

let config_of spec =
  let fast_path_timeout =
    match spec.topology with `Lan -> Engine.ms 20 | `Continent -> Engine.ms 150
  in
  {
    (Config.sbft ~f:spec.f ~c:spec.c) with
    Config.fast_path_timeout;
    collector_stagger = fast_path_timeout / 3;
  }

let topology_of spec ~num_nodes =
  match spec.topology with
  | `Lan -> Topology.lan ~num_nodes
  | `Continent -> Topology.continent ~num_nodes

(* ------------------------------------------------------------------ *)
(* Seeds and the request stream *)

(* The generators are pure in (client, index); the seed picks the index
   offset, so distinct seeds give disjoint request streams. *)
let index_offset seed = (((seed mod 1_000_003) + 1_000_003) mod 1_000_003) * 4096

let derive seed salt =
  Int64.(logxor (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int salt))

let make_op kind ~client ~index =
  match kind with
  | Kv -> Kv_workload.make_op ~batching:true ~client index
  | Eth -> Eth_workload.make_chunk ~client index

let ops_of = function
  | Kv -> fun _ -> Kv_workload.ops_per_request ~batching:true
  | Eth -> Eth_workload.chunk_tx_count

(* ------------------------------------------------------------------ *)
(* Services *)

let base_apply = function Kv -> Sbft_store.Kv_service.apply | Eth -> Sbft_evm.Evm_service.apply

let genesis kind apply =
  let store = Auth_store.create ~apply () in
  (match kind with
  | Eth -> Auth_store.bootstrap store ~ops:Eth_workload.genesis_ops
  | Kv -> ());
  store

(* The stock service, or with [apply] wrapped in [service.apply] spans.
   The EVM genesis is built here, so it is part of set-up. *)
let service spec spans =
  let apply =
    match spans with
    | None -> base_apply spec.kind
    | Some s ->
        let apply = base_apply spec.kind in
        fun m op -> Spans.child s "service.apply" (fun () -> apply m op)
  in
  match (spec.kind, spans) with
  | Kv, None -> Cluster.kv_service
  | Kv, Some _ ->
      {
        Cluster.make_store = (fun () -> Auth_store.create ~apply ());
        exec_cost = Cluster.kv_service.Cluster.exec_cost;
      }
  | Eth, _ ->
      let g = genesis Eth apply in
      { Cluster.make_store = (fun () -> Auth_store.clone g); exec_cost = Eth_workload.exec_cost }

(* ------------------------------------------------------------------ *)
(* Checking a run against an unreplicated re-execution *)

type reference = {
  problems : string list;
  wrong : int;  (** completed requests whose result differs *)
  height : int;
  blocks : (int * Types.request list) list;
  block_ops : int;  (** client ops in the executed blocks *)
  exec_s : float;  (** host seconds of the re-execution *)
  ref_store : Auth_store.t;
}

(* Re-executes the committed blocks of the most advanced replica on a
   single fresh store, applying the replicas' exactly-once rule (a
   request re-proposed across a view change runs once), then checks
   every replica's state digest at its own height and every completed
   request's result against it. *)
let check spec (cl : Cluster.t) (load : Load.t) spans =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if not (Cluster.agreement_ok cl) then problem "agreement violated";
  let top =
    Array.fold_left
      (fun a r -> if Replica.last_executed r > Replica.last_executed a then r else a)
      cl.Cluster.replicas.(0) cl.Cluster.replicas
  in
  let height = Replica.last_executed top in
  let store = genesis spec.kind (base_apply spec.kind) in
  let last_ts = Hashtbl.create 64 in
  let results = Hashtbl.create 1024 in
  let blocks = ref [] and block_ops = ref 0 and exec_s = ref 0. in
  let ops_of = ops_of spec.kind in
  let reexecute () =
    try
      for seq = 1 to height do
        match Replica.committed_block top seq with
        | None ->
            problem "block %d is not retained" seq;
            raise Exit
        | Some reqs ->
            let fresh (r : Types.request) =
              r.Types.client < 0
              ||
              match Hashtbl.find_opt last_ts r.Types.client with
              | Some ts -> ts < r.Types.timestamp
              | None -> true
            in
            let ops = List.map (fun r -> if fresh r then r.Types.op else "") reqs in
            let t0 = Sys.time () in
            let outputs = Auth_store.execute_block store ~seq ~ops in
            exec_s := !exec_s +. (Sys.time () -. t0);
            List.iter2
              (fun (r : Types.request) value ->
                if fresh r && r.Types.client >= 0 then begin
                  block_ops := !block_ops + ops_of r.Types.op;
                  Hashtbl.replace results (r.Types.client, r.Types.timestamp) value
                end)
              reqs outputs;
            List.iter
              (fun (r : Types.request) ->
                if fresh r && r.Types.client >= 0 then
                  Hashtbl.replace last_ts r.Types.client r.Types.timestamp)
              reqs;
            blocks := (seq, reqs) :: !blocks
      done
    with Exit -> ()
  in
  (match spans with
  | Some s -> Spans.span s "replay.storage.execute_block" reexecute
  | None -> reexecute ());
  Array.iter
    (fun r ->
      let e = Replica.last_executed r in
      if e > 0 then
        match Auth_store.digest_at store ~seq:e with
        | Some d when String.equal d (Replica.state_digest r) -> ()
        | _ -> problem "replica %d: state digest at height %d differs from re-execution" (Replica.id r) e)
    cl.Cluster.replicas;
  let wrong = ref 0 in
  List.iter
    (fun (c : Load.completion) ->
      match Hashtbl.find_opt results (c.Load.client_node, c.Load.timestamp) with
      | Some v when String.equal v c.Load.value -> ()
      | Some _ -> incr wrong
      | None ->
          incr wrong;
          problem "client %d request %d completed but was never executed" c.Load.client_node c.Load.timestamp)
    load.Load.completions;
  if !wrong > 0 then problem "%d completed requests returned a wrong result" !wrong;
  if load.Load.completed > load.Load.attempted then problem "more completions than requests";
  {
    problems = List.rev !problems;
    wrong = !wrong;
    height;
    blocks = List.rev !blocks;
    block_ops = !block_ops;
    exec_s = !exec_s;
    ref_store = store;
  }

(* ------------------------------------------------------------------ *)
(* One run *)

let setup_reps = 7

let tally_labels =
  [
    "share_sign"; "combine"; "combined_verify"; "proof_verify"; "rsa_verify"; "rsa_sign"; "hash";
    "mac"; "merkle"; "exec"; "persist"; "wal_append"; "wal_fsync";
  ]

let ms = Engine.to_ms

(* The highest percentile with at least ten samples beyond it, capped
   at p99. *)
let tail_pct n = if n >= 1000 then 0.99 else Float.max 0.5 (1. -. (10. /. float_of_int (max 1 n)))

(* Builds the cluster [setup_reps] times and times each build; the last
   one, wired to the load generator, is the one that runs. *)
let setup spec ~seed ~spans load =
  let config = config_of spec in
  let timed_build on_complete =
    let build () =
      Cluster.create ~seed:(derive seed 0xc1) ~cpu_scale ~on_complete ~config
        ~num_clients:spec.clients ~topology:(topology_of spec) ~service:(service spec spans) ()
    in
    let t0 = Sys.time () in
    let cl = match spans with Some s -> Spans.span s "setup" build | None -> build () in
    (cl, Sys.time () -. t0)
  in
  let discarded =
    List.init (setup_reps - 1) (fun _ ->
        snd (timed_build (fun ~client:_ ~timestamp:_ ~value:_ -> ())))
  in
  let cl, last = timed_build (Load.on_complete load) in
  (cl, discarded @ [ last ])

type sim = {
  host_s : float;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  slices : (int * float) array;  (** events, and host seconds when traced *)
  self_s : float;  (** slice self time (traced runs) *)
  vc_at : Engine.time option;
      (** end of the first slice after which a view-change quorum of
          replicas reports a view of at least 1 *)
}

(* Runs [run_for] slices until the request budget has completed. *)
let simulate spec (cl : Cluster.t) (load : Load.t) spans ~crash_at =
  let engine = cl.Cluster.engine and net = cl.Cluster.network in
  let slices = ref [] and self_s = ref 0. and vc_at = ref None in
  let traced_slice s ev0 =
    let msgs0 = Sbft_sim.Network.messages_sent net in
    let bytes0 = Sbft_sim.Network.bytes_sent net in
    let done0 = load.Load.completed in
    let minor0 = Gc.minor_words () in
    Spans.open_slice s;
    Cluster.run_for cl spec.slice;
    let total, self =
      Spans.close_slice s
        ~attrs:
          [
            ("virtual_end_ms", ms (Engine.now engine));
            ("events", float_of_int (Engine.events_executed engine - ev0));
            ("messages", float_of_int (Sbft_sim.Network.messages_sent net - msgs0));
            ("bytes", float_of_int (Sbft_sim.Network.bytes_sent net - bytes0));
            ("completed", float_of_int (load.Load.completed - done0));
            ("minor_words", Gc.minor_words () -. minor0);
          ]
    in
    self_s := !self_s +. self;
    total
  in
  let gc0 = Gc.quick_stat () in
  let t0 = Sys.time () in
  while load.Load.completed < spec.budget && Engine.now engine < spec.cap do
    let ev0 = Engine.events_executed engine in
    let host =
      match spans with
      | None ->
          Cluster.run_for cl spec.slice;
          0.
      | Some s -> traced_slice s ev0
    in
    slices := (Engine.events_executed engine - ev0, host) :: !slices;
    match crash_at with
    | Some c when Option.is_none !vc_at && Engine.now engine > c ->
        let moved =
          Array.fold_left (fun n r -> if Replica.view r >= 1 then n + 1 else n) 0 cl.Cluster.replicas
        in
        if moved >= Config.quorum_vc cl.Cluster.config then vc_at := Some (Engine.now engine)
    | _ -> ()
  done;
  let host_s = Sys.time () -. t0 in
  {
    host_s;
    gc0;
    gc1 = Gc.quick_stat ();
    slices = Array.of_list (List.rev !slices);
    self_s = !self_s;
    vc_at = !vc_at;
  }

(* Machine-speed reference: fixed work on the standard library alone
   (modular arithmetic, short-lived allocation, hash-table and array
   traffic), so no change to the repository can speed it up.  A shared
   virtual machine can change speed by a quarter for tens of seconds at a
   time; run.py divides each process's host timings by this kernel's time
   in the same process to cancel that. *)
let reference_kernel () =
  let n = 1 lsl 17 in
  let a = Array.make n 1 in
  let h = Hashtbl.create 4096 in
  let t0 = Sys.time () in
  let x = ref 1 and acc = ref 0 in
  for i = 1 to 4_000_000 do
    x := !x * 48271 mod 2147483647;
    let j = !x land (n - 1) in
    a.(j) <- ((a.(j) * 31) + i) land 0xFFFFFF;
    if i land 3 = 0 then Hashtbl.replace h (!x land 4095) (j, i);
    let p = Sys.opaque_identity (j, !x) in
    acc := !acc + fst p + (snd p land 7)
  done;
  ignore (Sys.opaque_identity (!acc, Hashtbl.length h));
  Sys.time () -. t0

let run spec ~seed ~traced ~spans_path =
  let kernel_s = reference_kernel () in
  if traced then Sbft_crypto.Cost_model.Tally.reset ();
  let spans = if traced then Some (Spans.create ()) else None in
  let config = config_of spec in
  let offset = index_offset seed in
  let gen = make_op spec.kind in
  let make ~client ~index =
    match spans with
    | None -> gen ~client ~index:(offset + index)
    | Some s -> Spans.child s "workload.make_op" (fun () -> gen ~client ~index:(offset + index))
  in
  let load =
    Load.create ~arrivals:spec.arrivals ~pool:spec.clients ~warmup:spec.warmup
      ~horizon:spec.cap ~probes:spec.probes ~seed:(derive seed 0x10ad) ~make
      ~ops_of:(ops_of spec.kind)
  in
  let cl, setup_s = setup spec ~seed ~spans load in
  let engine = cl.Cluster.engine in
  let crash_at = if spec.crash_primary then Some (List.hd spec.probes) else None in
  Option.iter
    (fun at -> Engine.schedule engine ~at (fun () -> Cluster.crash_replicas cl [ 0 ]))
    crash_at;
  Load.start load cl;
  let sim = simulate spec cl load spans ~crash_at in
  let host_s = sim.host_s and gc0 = sim.gc0 and gc1 = sim.gc1 in
  let nslices = Array.length sim.slices in
  let budget_problem =
    if load.Load.completed < spec.budget then
      [
        Printf.sprintf "only %d of %d requests completed by the virtual-time cap"
          load.Load.completed spec.budget;
      ]
    else []
  in
  let peak_heap_mb =
    float_of_int gc1.Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.
  in
  let reference = check spec cl load spans in
  (* End-to-end figures. *)
  let samples = Stats.Latency.count load.Load.latency in
  let pct = tail_pct samples in
  let unavailability_ms, probe_problem =
    match Load.unavailability load with
    | Some gap -> (gap /. 1e6, [])
    | None -> (nan, [ "some availability probe saw no later request complete" ])
  in
  let since_crash at = match crash_at with Some c -> ms (at - c) | None -> 0. in
  let view_change_ms = match sim.vc_at with Some at -> since_crash at | None -> 0. in
  let attempted = load.Load.attempted in
  let failed_frac =
    float_of_int (attempted - load.Load.completed) /. float_of_int (max 1 attempted)
  in
  let net = cl.Cluster.network in
  let events = Engine.events_executed engine in
  let live r = not (Engine.is_crashed engine (Replica.id r)) in
  let fast, slow =
    Array.fold_left
      (fun (f, s) r -> if live r then (f + Replica.fast_commits r, s + Replica.slow_commits r) else (f, s))
      (0, 0) cl.Cluster.replicas
  in
  let fast_fraction = if fast + slow = 0 then 0. else float_of_int fast /. float_of_int (fast + slow) in
  let view_changes =
    Array.fold_left (fun a r -> max a (Replica.view_changes_completed r)) 0 cl.Cluster.replicas
  in
  let retries = Array.fold_left (fun a c -> a + Client.retries c) 0 cl.Cluster.clients in
  let top_digest =
    Array.fold_left
      (fun (h, d) r ->
        let e = Replica.last_executed r in
        if e > h then (e, Replica.state_digest r) else (h, d))
      (0, "") cl.Cluster.replicas
    |> snd
  in
  let virtual_ =
    [
      ("throughput_ops", Json.Num (Load.throughput load));
      ("latency_p50_ms", Json.Num (Stats.Latency.percentile_ms load.Load.latency 0.5));
      ("latency_p99_ms", Json.Num (Stats.Latency.percentile_ms load.Load.latency pct));
      ("unavailability_ms", Json.Num unavailability_ms);
      ("failed_frac", Json.Num failed_frac);
      ("attempted", Json.Int attempted);
      ("completed", Json.Int load.Load.completed);
      ("latency_samples", Json.Int samples);
      ("latency_tail_pct", Json.Num (100. *. pct));
      ("events", Json.Int events);
      ("messages", Json.Int (Sbft_sim.Network.messages_sent net));
      ("bytes", Json.Int (Sbft_sim.Network.bytes_sent net));
      ("blocks", Json.Int reference.height);
      ("fast_fraction", Json.Num fast_fraction);
      ("view_changes", Json.Int view_changes);
      ("client_retries", Json.Int retries);
      ("view_change_ms", Json.Num view_change_ms);
      ("state_digest", Json.Str (Sbft_crypto.Sha256.hex top_digest));
      ("stream_digest", Json.Str (Load.stream_digest load));
    ]
  in
  let ops = float_of_int (max 1 load.Load.completed_ops) in
  let per_op x = float_of_int x /. ops in
  let prof = Engine.profile engine in
  let live_wals =
    Array.to_list cl.Cluster.replicas |> List.filter live
    |> List.map (fun r -> (Replica.wal r, Replica.blocks_executed r))
  in
  let mean_over f =
    List.fold_left (fun a x -> a +. f x) 0. live_wals /. float_of_int (max 1 (List.length live_wals))
  in
  let per_block f =
    mean_over (fun (w, b) -> float_of_int (f w) /. float_of_int (max 1 b))
  in
  (* Deterministic layer counts: identical for equal seeds, traced or
     not (the virtual-CPU tallies exist only in traced runs). *)
  let tallies = Sbft_crypto.Cost_model.Tally.snapshot () in
  let layer_counts =
    [
      ("sim.events_per_op", per_op events);
      ("sim.arrivals_per_op", per_op prof.Engine.p_arrivals);
      ("sim.timers_fired_per_op", per_op prof.Engine.p_timers_fired);
      ("sim.timers_skipped", float_of_int prof.Engine.p_timers_skipped);
      ("sim.timers_purged", float_of_int prof.Engine.p_timers_purged);
      ("sim.max_pending", float_of_int prof.Engine.p_max_pending);
      ("sim.msgs_per_op", per_op (Sbft_sim.Network.messages_sent net));
      ("sim.bytes_per_op", per_op (Sbft_sim.Network.bytes_sent net));
      ("sim.msgs_dropped", float_of_int (Sbft_sim.Network.messages_dropped net));
      ("core.fast_fraction", fast_fraction);
      ( "core.ops_per_block",
        float_of_int reference.block_ops /. float_of_int (max 1 reference.height) );
      ("core.blocks_committed", float_of_int reference.height);
      ("core.view_changes", float_of_int view_changes);
      ("core.client_retries", float_of_int retries);
      ("core.view_change_ms", view_change_ms);
      ("core.latency_samples", float_of_int samples);
      ("core.latency_tail_pct", 100. *. pct);
      ("storage.wal_appends_per_block", per_block Sbft_store.Wal.appends);
      ("storage.wal_syncs_per_block", per_block Sbft_store.Wal.syncs);
      ( "storage.wal_durable_bytes",
        mean_over (fun (w, _) -> float_of_int (Sbft_store.Wal.durable_bytes w)) );
      ( "load.due_during_outage",
        float_of_int
          (match crash_at with
          | Some c -> Load.due_between load ~from_:c ~until_:(c + Engine.ms_f unavailability_ms)
          | None -> 0) );
    ]
    @
    if traced then
      List.map
        (fun label ->
          ( Printf.sprintf "crypto.vcpu.%s_us_per_op" label,
            float_of_int (Option.value (List.assoc_opt label tallies) ~default:0) /. 1000. /. ops ))
        tally_labels
    else []
  in
  (* Host-measured layer figures (traced runs only). *)
  let layers =
    match spans with
    | None -> []
    | Some s ->
        let tenth = max 1 (nslices / 10) in
        let rate lo hi =
          let ev = ref 0 and host = ref 0. in
          for k = lo to hi - 1 do
            let e, h = sim.slices.(k) in
            ev := !ev + e;
            host := !host +. h
          done;
          if !host > 0. then float_of_int !ev /. !host else 0.
        in
        let apply_s, _ = Spans.child_total s "service.apply" in
        let make_s, make_calls = Spans.child_total s "workload.make_op" in
        let mean_msg_bytes =
          Sbft_sim.Network.bytes_sent net / max 1 (Sbft_sim.Network.messages_sent net)
        in
        let evm =
          match spec.kind with
          | Eth -> (reference.exec_s, reference.block_ops)
          | Kv ->
              (* The KV traffic carries no contracts: replay the contract
                 workload's chunks at this seed on a fresh genesis. *)
              let store = genesis Eth Sbft_evm.Evm_service.apply in
              Spans.span s "replay.evm.apply" (fun () ->
                  let t0 = Sys.time () in
                  let txs = ref 0 in
                  for i = 0 to 7 do
                    let chunk = Eth_workload.make_chunk ~client:(i mod 4) (offset + (i / 4)) in
                    txs := !txs + Eth_workload.chunk_tx_count chunk;
                    ignore (Auth_store.execute_block store ~seq:(i + 1) ~ops:[ chunk ])
                  done;
                  (Sys.time () -. t0, !txs))
        in
        let evm_s, evm_txs = evm in
        let replays =
          Layer_replay.crypto s cl ~mean_msg_bytes
          @ Layer_replay.merkle_map s (Auth_store.state reference.ref_store)
          @ Layer_replay.wal s ~blocks:reference.blocks ~checkpoint:(Config.checkpoint_interval config)
          @ Layer_replay.engine s
        in
        [
          ("sim.host_ns_per_event", sim.self_s *. 1e9 /. float_of_int (max 1 events));
          ("sim.ev_per_host_s.head", rate 0 tenth);
          ("sim.ev_per_host_s.tail", rate (nslices - tenth) nslices);
          ("sim.slice_self_share", sim.self_s /. host_s);
          ( "storage.apply_host_us_per_op",
            apply_s *. 1e6 /. float_of_int (max 1 reference.block_ops) );
          ("storage.apply_share", apply_s /. host_s);
          ( "storage.execute_block_us",
            reference.exec_s *. 1e6 /. float_of_int (max 1 reference.height) );
          ("evm.apply_host_us_per_tx", evm_s *. 1e6 /. float_of_int (max 1 evm_txs));
          ("evm.unreplicated_tx_per_host_s", float_of_int evm_txs /. Float.max 1e-9 evm_s);
          ("workloads.make_op_us", make_s *. 1e6 /. float_of_int (max 1 make_calls));
          ( "gc.minor_words_per_event",
            (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int (max 1 events) );
          ("gc.major_words_per_op", (gc1.Gc.major_words -. gc0.Gc.major_words) /. ops);
          ( "load.generator_lag_ms_p99",
            if Stats.Latency.count load.Load.lag = 0 then 0.
            else Stats.Latency.percentile_ms load.Load.lag 0.99 );
        ]
        @ replays
  in
  (match (spans, spans_path) with Some s, Some path -> Spans.write s path | _ -> ());
  let problems = reference.problems @ budget_problem @ probe_problem in
  let num (k, v) = (k, Json.Num v) in
  Json.Obj
    [
      ("workload", Json.Str spec.name);
      ("seed", Json.Int seed);
      ("traced", Json.Bool traced);
      ("correct", Json.Bool (problems = []));
      ("problems", Json.Arr (List.map (fun p -> Json.Str p) problems));
      ("attempted", Json.Int attempted);
      ("failed", Json.Int reference.wrong);
      ("virtual", Json.Obj virtual_);
      ( "host",
        Json.Obj
          [
            ("host_s", Json.Num host_s);
            ("setup_s", Json.Arr (List.map (fun x -> Json.Num x) setup_s));
            ("peak_heap_mb", Json.Num peak_heap_mb);
            ("kernel_s", Json.Num kernel_s);
          ] );
      ("layer_counts", Json.Obj (List.map num layer_counts));
      ("layers", Json.Obj (List.map num layers));
    ]

(* ------------------------------------------------------------------ *)
(* Command line *)

let usage () =
  prerr_endline
    "usage: sbftperf.exe run --workload NAME --seed N [--traced] [--spans FILE]\n\
    \       sbftperf.exe list";
  exit 2

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "list" ] -> List.iter (fun s -> print_endline s.name) specs
  | "run" :: args ->
      let rec parse (w, seed, traced, spans) = function
        | "--workload" :: v :: rest -> parse (Some v, seed, traced, spans) rest
        | "--seed" :: v :: rest -> parse (w, int_of_string_opt v, traced, spans) rest
        | "--traced" :: rest -> parse (w, seed, true, spans) rest
        | "--spans" :: v :: rest -> parse (w, seed, traced, Some v) rest
        | [] -> (w, seed, traced, spans)
        | _ -> usage ()
      in
      let w, seed, traced, spans_path = parse (None, None, false, None) args in
      (match (Option.bind w find_spec, seed) with
      | Some spec, Some seed ->
          print_endline (Json.to_string (run spec ~seed ~traced ~spans_path))
      | None, _ ->
          prerr_endline
            ("unknown workload; known: " ^ String.concat ", " (List.map (fun s -> s.name) specs));
          exit 2
      | _, None -> usage ())
  | _ -> usage ()
