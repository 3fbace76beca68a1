(* Load generator: closed-loop clients or open-loop Poisson arrivals,
   fed into a simulated client pool through [Engine.dispatch] and
   [Client.submit], with completions observed through
   [Cluster.create ?on_complete].

   The request stream is pure: request [k] of the stream is
   [make_op ~client ~index] with (client, index) fixed by [k] and the
   seed's index offset, never by the schedule.  Latency is timed from
   when a request fell due, so an open-loop arrival that waits for a
   free client pays for the wait. *)

open Sbft_sim
open Sbft_core

type arrivals =
  | Closed  (** each client sends its next request as soon as one completes *)
  | Poisson of float  (** open loop: this many requests per virtual second *)

type request = { due : Engine.time; op : string; ops : int }

type completion = { client_node : int; timestamp : int; value : string }

type t = {
  arrivals : arrivals;
  pool : int;
  warmup : Engine.time;
  horizon : Engine.time;  (* no request falls due after this *)
  probes : Engine.time array;  (* sorted availability probe instants *)
  make : client:int -> index:int -> string;
  ops_of : string -> int;
  rng : Rng.t;
  mutable cluster : Cluster.t option;
  inflight : request option array;
  issued : int array;  (* closed loop: requests generated per client *)
  free : int Queue.t;  (* open loop: idle clients *)
  waiting : request Queue.t;  (* open loop: arrivals with no free client *)
  stream : Sbft_crypto.Sha256.ctx;  (* digest of the first requests *)
  mutable generated : int;
  mutable attempted : int;
  mutable completed : int;
  mutable completed_ops : int;
  mutable window_ops : int;
  mutable last_completion : Engine.time;
  latency : Stats.Latency.t;  (* completions after warm-up, timed from due *)
  lag : Stats.Latency.t;  (* open loop: wait for a free client *)
  mutable dues : Engine.time list;
  first_after : Engine.time option array;
      (* per probe: first completion of a request that fell due after it *)
  mutable completions : completion list;
}

let stream_prefix = 32

let create ~arrivals ~pool ~warmup ~horizon ~probes ~seed ~make ~ops_of =
  let probes = Array.of_list (List.sort compare probes) in
  {
    arrivals;
    pool;
    warmup;
    horizon;
    probes;
    make;
    ops_of;
    rng = Rng.create seed;
    cluster = None;
    inflight = Array.make pool None;
    issued = Array.make pool 0;
    free = Queue.create ();
    waiting = Queue.create ();
    stream = Sbft_crypto.Sha256.init ();
    generated = 0;
    attempted = 0;
    completed = 0;
    completed_ops = 0;
    window_ops = 0;
    last_completion = 0;
    latency = Stats.Latency.create ();
    lag = Stats.Latency.create ();
    dues = [];
    first_after = Array.make (Array.length probes) None;
    completions = [];
  }

let cluster t =
  match t.cluster with Some c -> c | None -> invalid_arg "Load: no cluster attached"

let new_request t ~client ~index ~due =
  let op = t.make ~client ~index in
  if t.generated < stream_prefix then
    Sbft_crypto.Sha256.feed t.stream (Printf.sprintf "%d|%d|%s;" due (String.length op) op);
  t.generated <- t.generated + 1;
  t.attempted <- t.attempted + 1;
  t.dues <- due :: t.dues;
  { due; op; ops = t.ops_of op }

let next_closed t i ~due =
  let k = t.issued.(i) in
  t.issued.(i) <- k + 1;
  new_request t ~client:i ~index:k ~due

let submit t ctx i r =
  let cl = cluster t in
  t.inflight.(i) <- Some r;
  (match t.arrivals with
  | Poisson _ -> Stats.Latency.add t.lag (Engine.ctx_now ctx - r.due)
  | Closed -> ());
  Client.submit cl.Cluster.clients.(i) ctx ~op:r.op

(* Runs on the client's CPU once it has verified the reply, so
   [ctx_now] is the moment the user would see the result. *)
let finish t ctx i ~timestamp ~value =
  match t.inflight.(i) with
  | None -> ()
  | Some r ->
      let cl = cluster t in
      let at = Engine.ctx_now ctx in
      t.inflight.(i) <- None;
      t.completed <- t.completed + 1;
      t.completed_ops <- t.completed_ops + r.ops;
      t.completions <-
        { client_node = Cluster.client_id cl i; timestamp; value } :: t.completions;
      if at >= t.warmup then begin
        t.window_ops <- t.window_ops + r.ops;
        t.last_completion <- at;
        Stats.Latency.add t.latency (at - r.due)
      end;
      Array.iteri
        (fun k p -> if r.due >= p && Option.is_none t.first_after.(k) then t.first_after.(k) <- Some at)
        t.probes;
      (match t.arrivals with
      | Closed -> if at < t.horizon then submit t ctx i (next_closed t i ~due:at)
      | Poisson _ -> (
          match Queue.take_opt t.waiting with
          | Some next -> submit t ctx i next
          | None -> Queue.push i t.free))

let on_complete t ~client ~timestamp ~value =
  let cl = cluster t in
  let engine = cl.Cluster.engine in
  Engine.dispatch engine ~dst:(Cluster.client_id cl client) ~at:(Engine.now engine)
    (fun ctx -> finish t ctx client ~timestamp ~value)

let rec arrive t ~mean_gap ~at =
  let cl = cluster t in
  let engine = cl.Cluster.engine in
  Engine.schedule engine ~at (fun () ->
      let k = t.generated in
      let r = new_request t ~client:(k mod t.pool) ~index:(k / t.pool) ~due:at in
      (match Queue.take_opt t.free with
      | Some i ->
          Engine.dispatch engine ~dst:(Cluster.client_id cl i) ~at (fun ctx -> submit t ctx i r)
      | None -> Queue.push r t.waiting);
      let next = at + max 1 (int_of_float (Rng.exponential t.rng ~mean:mean_gap)) in
      if next <= t.horizon then arrive t ~mean_gap ~at:next)

let start t cl =
  t.cluster <- Some cl;
  match t.arrivals with
  | Closed ->
      for i = 0 to t.pool - 1 do
        Engine.dispatch cl.Cluster.engine ~dst:(Cluster.client_id cl i) ~at:0 (fun ctx ->
            submit t ctx i (next_closed t i ~due:0))
      done
  | Poisson rate ->
      for i = 0 to t.pool - 1 do
        Queue.push i t.free
      done;
      let mean_gap = 1e9 /. rate in
      arrive t ~mean_gap ~at:(max 1 (int_of_float (Rng.exponential t.rng ~mean:mean_gap)))

(* Committed ops per virtual second, from the end of warm-up to the last
   completion (not to the horizon, so the figure is not quantized by how
   many completions happen to fall before it). *)
let throughput t =
  if t.last_completion <= t.warmup then 0.
  else float_of_int t.window_ops /. Engine.to_sec (t.last_completion - t.warmup)

(* Mean virtual time from each probe to the first completion of a request
   that fell due after it; [None] if some probe was never served. *)
let unavailability t =
  let gaps =
    Array.mapi (fun k p -> Option.map (fun at -> at - p) t.first_after.(k)) t.probes |> Array.to_list
  in
  if List.exists Option.is_none gaps || gaps = [] then None
  else
    let gaps = List.filter_map Fun.id gaps in
    Some (float_of_int (List.fold_left ( + ) 0 gaps) /. float_of_int (List.length gaps))

let stream_digest t = Sbft_crypto.Sha256.(hex (finalize t.stream))

(* Requests that fell due in [from_, until_). *)
let due_between t ~from_ ~until_ =
  List.fold_left (fun n d -> if d >= from_ && d < until_ then n + 1 else n) 0 t.dues
