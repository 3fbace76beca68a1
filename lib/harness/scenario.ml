open Sbft_sim
open Sbft_core
open Sbft_workload

type protocol = PBFT | Linear_PBFT | Linear_PBFT_fast | SBFT of int

let protocol_name = function
  | PBFT -> "PBFT"
  | Linear_PBFT -> "Linear-PBFT"
  | Linear_PBFT_fast -> "Linear-PBFT+Fast"
  | SBFT c -> Printf.sprintf "SBFT (c=%d)" c

type workload = Kv of { batching : bool } | Eth

type t = {
  protocol : protocol;
  f : int;
  workload : workload;
  num_clients : int;
  failures : int;
  topology : [ `Lan | `Continent | `World ];
  warmup : Engine.time;
  duration : Engine.time;
  seed : int64;
  cpu_scale : float;
  requests_per_client : int;
  crash_primary_at : Engine.time option;
  tweak : Config.t -> Config.t;
}

let default ?(failures = 0) ?(topology = `Continent) ?(warmup = Engine.ms 750)
    ?(duration = Engine.ms 1500) ?(seed = 1L) ?(cpu_scale = 0.5)
    ?(requests_per_client = max_int) ?crash_primary_at ?(tweak = Fun.id)
    ~protocol ~f ~workload ~num_clients () =
  { protocol; f; workload; num_clients; failures; topology; warmup; duration; seed;
    cpu_scale; requests_per_client; crash_primary_at; tweak }

type point = {
  scenario : t;
  n : int;
  throughput_ops : float;
  median_latency_ms : float;
  mean_latency_ms : float;
  p90_latency_ms : float;
  p99_latency_ms : float;
  completed_requests : int;
  messages : int;
  bytes : int;
  fast_fraction : float;
  view_changes : int;
  agreement : bool;
  host_seconds : float;
  events : int;
  events_per_sec : float;  (* simulator events per host second *)
  minor_words : float;  (* minor-heap words allocated during the run *)
  profile : Engine.profile;
}

let ops_per_request = function
  | Kv { batching } -> Kv_workload.ops_per_request ~batching
  | Eth -> Eth_workload.txs_per_chunk

let config_of t =
  let base =
    match t.protocol with
    | PBFT | SBFT _ ->
        let c = match t.protocol with SBFT c -> c | _ -> 0 in
        Config.sbft ~f:t.f ~c
    | Linear_PBFT -> Config.linear_pbft ~f:t.f
    | Linear_PBFT_fast -> Config.linear_pbft_fast ~f:t.f
  in
  (* The paper adapts the fast-path fallback timer from network
     profiling; here it scales with the topology's latency spread. *)
  let fast_path_timeout =
    match t.topology with
    | `Lan -> Engine.ms 20
    | `Continent -> Engine.ms 150
    | `World -> Engine.ms 450
  in
  let stagger = fast_path_timeout / 3 in
  t.tweak
    { base with Config.fast_path_timeout; collector_stagger = stagger }

let topology_of = function
  | `Lan -> fun ~num_nodes -> Topology.lan ~num_nodes
  | `Continent -> fun ~num_nodes -> Topology.continent ~num_nodes
  | `World -> fun ~num_nodes -> Topology.world ~num_nodes

let service_of = function
  | Kv _ -> Kv_workload.service
  | Eth -> Eth_workload.service

let make_op_of workload ~client i =
  match workload with
  | Kv { batching } -> Kv_workload.make_op ~batching ~client i
  | Eth -> Eth_workload.make_chunk ~client i

(* Crash the highest-numbered backups (never the initial primary, so
   failure experiments measure fault {e tolerance}, not fail-over; the
   paper's failure runs behave the same way). *)
let crash_set ~n ~failures = List.init failures (fun i -> n - 1 - i)

let log_point t (p : point) =
  Printf.eprintf
    "[scenario] %-18s f=%d cl=%-3d fail=%-2d %-10s -> %8.0f ops/s %6.1f ms (host %.0fs, %.0fk ev/s, peak heap %dMB)\n%!"
    (protocol_name t.protocol) t.f t.num_clients t.failures
    (match t.workload with
    | Kv { batching = true } -> "kv-batch"
    | Kv { batching = false } -> "kv-nobatch"
    | Eth -> "eth")
    p.throughput_ops p.median_latency_ms p.host_seconds
    (p.events_per_sec /. 1000.)
    (Gc.((quick_stat ()).top_heap_words) * (Sys.word_size / 8) / 1_048_576)

(* A deployment of either protocol, once it has run. *)
type deployment = Deployment : (_, _, _) Cluster.deployment -> deployment

(* Build the deployment, crash the configured backups (and the initial
   primary at [crash_primary_at]), and run the clients to the horizon.
   The protocol only picks the descriptor. *)
let simulate ~trace t =
  let go protocol =
    let cluster =
      Cluster.deploy protocol ~trace ~seed:t.seed ~cpu_scale:t.cpu_scale
        ~config:(config_of t) ~num_clients:t.num_clients
        ~topology:(topology_of t.topology) ~service:(service_of t.workload) ()
    in
    Cluster.crash_replicas cluster
      (crash_set ~n:(Cluster.num_replicas cluster) ~failures:t.failures);
    Option.iter
      (fun at ->
        Engine.schedule cluster.Cluster.engine ~at (fun () ->
            Cluster.crash_replicas cluster [ 0 ]))
      t.crash_primary_at;
    Cluster.start_clients cluster ~requests_per_client:t.requests_per_client
      ~make_op:(make_op_of t.workload);
    Cluster.run_for cluster (t.warmup + t.duration);
    Deployment cluster
  in
  match t.protocol with
  | PBFT -> go Sbft_pbft.Pbft_cluster.pbft
  | Linear_PBFT | Linear_PBFT_fast | SBFT _ -> go Cluster.sbft

(* One run with tracing on, returning the raw event stream instead of a
   measurement point — the input to the R8 replay-divergence checker. *)
let run_traced t =
  match simulate ~trace:true t with
  | Deployment cluster -> Trace.records cluster.Cluster.trace

let run t =
  let host0 = Sys.time () in
  let minor0 = Gc.minor_words () in
  match simulate ~trace:false t with
  | Deployment cluster ->
      let { Cluster.protocol = p; engine; network; replicas; latency; throughput; _ } =
        cluster
      in
      let horizon = t.warmup + t.duration in
      (* A finite-request run drains before the horizon; its measurement
         window ends at the last completion, not at the idle tail. *)
      let until =
        if t.requests_per_client = max_int then horizon
        else
          match Stats.Throughput.last_at throughput with
          | Some at when at > t.warmup -> at
          | _ -> horizon
      in
      let reqs_per_sec = Stats.Throughput.rate throughput ~from_:t.warmup ~until in
      let fast = ref 0 and slow = ref 0 in
      Array.iteri
        (fun i r ->
          if not (Engine.is_crashed engine i) then begin
            fast := !fast + p.fast_commits r;
            slow := !slow + p.slow_commits r
          end)
        replicas;
      let agreement = Cluster.agreement_ok cluster in
      let host_seconds = Sys.time () -. host0 in
      let events = Engine.events_executed engine in
      let point =
        {
          scenario = t;
          n = Cluster.num_replicas cluster;
          throughput_ops = reqs_per_sec *. float_of_int (ops_per_request t.workload);
          median_latency_ms = Stats.Latency.median_ms latency;
          mean_latency_ms = Stats.Latency.mean_ms latency;
          p90_latency_ms = Stats.Latency.percentile_ms latency 0.9;
          p99_latency_ms = Stats.Latency.percentile_ms latency 0.99;
          completed_requests = Cluster.total_completed cluster;
          messages = Network.messages_sent network;
          bytes = Network.bytes_sent network;
          fast_fraction =
            (if !fast + !slow = 0 then 0.0
             else float_of_int !fast /. float_of_int (!fast + !slow));
          view_changes = Array.fold_left (fun acc r -> max acc (p.view_changes r)) 0 replicas;
          agreement;
          host_seconds;
          events;
          events_per_sec =
            (if host_seconds > 0. then float_of_int events /. host_seconds else 0.);
          minor_words = Gc.minor_words () -. minor0;
          profile = Engine.profile engine;
        }
      in
      log_point t point;
      Gc.compact ();
      point
