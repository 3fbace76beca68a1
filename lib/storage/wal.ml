(* Simulated write-ahead log.

   Replicas append protocol-critical transitions (view entries, accepted
   pre-prepares/prepares, commit certificates, stable checkpoints,
   client-table rows) and group-commit them with [sync]: appends land in
   a pending log and only become durable once synced, so a crash-amnesia
   restart loses exactly the unsynced tail — the same window a real
   fsync-based log exposes.  The store is byte-faithful: each record is
   framed (varint length + FNV-1a checksum + payload), the log's bytes
   are the concatenation of its frames, and replay parses that
   concatenation, so it tolerates a torn tail and tests can corrupt
   trailing bytes to exercise that path.

   Frames are immutable strings shared across the replicas of one
   deployment.  Every honest replica logs the same records, so a
   {!frames} table keyed on record content encodes and checksums each
   record once and hands the same string to every log that appends it;
   a replica's log is a list of those strings, not a private copy of
   their bytes.  The attack paths never write into a shared frame: a
   torn tail builds new strings for the frames it touches, and a
   rollback keeps a prefix of the list.

   This module is pure storage: it never touches the simulator clock.
   Callers charge [Cost_model.wal_append]/[wal_fsync] for the bytes and
   syncs it reports. *)

open Sbft_wire

type record =
  | View_entered of int
  | View_change_started of int
  | Accepted_pre_prepare of {
      seq : int;
      view : int;
      ops : (int * int * string) list;  (* client, timestamp, op *)
    }
  | Accepted_prepare of { seq : int; view : int; tau : string }
  | Commit_cert of { seq : int; view : int; fast : bool }
  | Stable_checkpoint of { seq : int; digest : string; pi : string }
  | Client_row of {
      client : int;
      timestamp : int;
      value : string;
      seq : int;
      index : int;
    }

(* Signed ints (client ids can be -1 for null-request fillers) go
   through a zigzag varint so the codec only ever sees naturals. *)
let zig w v = Codec.Writer.varint w (if v >= 0 then 2 * v else (-2 * v) - 1)

let zag r =
  let v = Codec.Reader.varint r in
  if v land 1 = 0 then v / 2 else -((v + 1) / 2)

let payload record =
  let w = Codec.Writer.create () in
  (match record with
  | View_entered v ->
      Codec.Writer.u8 w 1;
      zig w v
  | View_change_started v ->
      Codec.Writer.u8 w 2;
      zig w v
  | Accepted_pre_prepare { seq; view; ops } ->
      Codec.Writer.u8 w 3;
      zig w seq;
      zig w view;
      Codec.Writer.list w
        (fun (client, timestamp, op) ->
          zig w client;
          zig w timestamp;
          Codec.Writer.str w op)
        ops
  | Accepted_prepare { seq; view; tau } ->
      Codec.Writer.u8 w 4;
      zig w seq;
      zig w view;
      Codec.Writer.str w tau
  | Commit_cert { seq; view; fast } ->
      Codec.Writer.u8 w 5;
      zig w seq;
      zig w view;
      Codec.Writer.u8 w (if fast then 1 else 0)
  | Stable_checkpoint { seq; digest; pi } ->
      Codec.Writer.u8 w 6;
      zig w seq;
      Codec.Writer.str w digest;
      Codec.Writer.str w pi
  | Client_row { client; timestamp; value; seq; index } ->
      Codec.Writer.u8 w 7;
      zig w client;
      zig w timestamp;
      Codec.Writer.str w value;
      zig w seq;
      zig w index);
  Codec.Writer.contents w

let parse_payload r =
  match Codec.Reader.u8 r with
  | 1 -> Some (View_entered (zag r))
  | 2 -> Some (View_change_started (zag r))
  | 3 ->
      let seq = zag r in
      let view = zag r in
      let ops =
        Codec.Reader.list r (fun r ->
            let client = zag r in
            let timestamp = zag r in
            let op = Codec.Reader.str r in
            (client, timestamp, op))
      in
      Some (Accepted_pre_prepare { seq; view; ops })
  | 4 ->
      let seq = zag r in
      let view = zag r in
      let tau = Codec.Reader.str r in
      Some (Accepted_prepare { seq; view; tau })
  | 5 ->
      let seq = zag r in
      let view = zag r in
      let fast = Codec.Reader.u8 r = 1 in
      Some (Commit_cert { seq; view; fast })
  | 6 ->
      let seq = zag r in
      let digest = Codec.Reader.str r in
      let pi = Codec.Reader.str r in
      Some (Stable_checkpoint { seq; digest; pi })
  | 7 ->
      let client = zag r in
      let timestamp = zag r in
      let value = Codec.Reader.str r in
      let seq = zag r in
      let index = zag r in
      Some (Client_row { client; timestamp; value; seq; index })
  | _ -> None

(* FNV-1a over the payload, folded to 32 bits. *)
let checksum s =
  let h = ref 0x811C9DC5 in
  String.iter
    (fun ch -> h := (!h lxor Char.code ch) * 0x01000193 land 0xFFFFFFFF)
    s;
  !h

let encode record =
  let p = payload record in
  let w = Codec.Writer.create () in
  Codec.Writer.varint w (String.length p);
  Codec.Writer.u32 w (checksum p);
  Codec.Writer.raw w p;
  Codec.Writer.contents w

let replay_string bytes =
  let r = Codec.Reader.of_string bytes in
  let out = ref [] in
  (try
     let stop = ref false in
     while (not !stop) && not (Codec.Reader.at_end r) do
       let len = Codec.Reader.varint r in
       let sum = Codec.Reader.u32 r in
       let p = Codec.Reader.raw r len in
       if sum <> checksum p then stop := true
       else
         match parse_payload (Codec.Reader.of_string p) with
         | Some record -> out := record :: !out
         | None -> stop := true
     done
   with Codec.Reader.Truncated -> ());
  List.rev !out

(* A frame carries what compaction and rollback need to know about its
   record, so they never re-parse it: its {!record_seq} and whether it
   is a stable checkpoint.  [Torn] marks a frame a torn tail
   left unparseable; replay stops there, and so does everything that
   keeps a prefix of the log. *)
type kind = Record | Checkpoint | Torn

type frame = { bytes : string; kind : kind; seq : int }

(* View records carry no sequence number; [max_int] makes every
   truncation keep them. *)
let record_seq = function
  | View_entered _ | View_change_started _ -> max_int
  | Accepted_pre_prepare { seq; _ }
  | Accepted_prepare { seq; _ }
  | Commit_cert { seq; _ }
  | Stable_checkpoint { seq; _ }
  | Client_row { seq; _ } ->
      seq

let is_checkpoint = function Stable_checkpoint _ -> true | _ -> false

let frame_of record bytes =
  {
    bytes;
    kind = (if is_checkpoint record then Checkpoint else Record);
    seq = record_seq record;
  }

(* Content-keyed, like [Auth_store.Key]: strings compare with
   [String.equal], which returns on the pointer check when replicas
   hand over the same physical op strings, and the hash reads only the
   integer fields. *)
module Key = struct
  type t = record

  let equal a b =
    match (a, b) with
    | View_entered x, View_entered y | View_change_started x, View_change_started y ->
        Int.equal x y
    | Accepted_pre_prepare a, Accepted_pre_prepare b ->
        Int.equal a.seq b.seq && Int.equal a.view b.view
        && List.equal
             (fun (c, ts, op) (c', ts', op') ->
               Int.equal c c' && Int.equal ts ts' && String.equal op op')
             a.ops b.ops
    | Accepted_prepare a, Accepted_prepare b ->
        Int.equal a.seq b.seq && Int.equal a.view b.view && String.equal a.tau b.tau
    | Commit_cert a, Commit_cert b ->
        Int.equal a.seq b.seq && Int.equal a.view b.view && Bool.equal a.fast b.fast
    | Stable_checkpoint a, Stable_checkpoint b ->
        Int.equal a.seq b.seq && String.equal a.digest b.digest && String.equal a.pi b.pi
    | Client_row a, Client_row b ->
        Int.equal a.client b.client && Int.equal a.timestamp b.timestamp
        && Int.equal a.seq b.seq && Int.equal a.index b.index
        && String.equal a.value b.value
    | ( ( View_entered _ | View_change_started _ | Accepted_pre_prepare _
        | Accepted_prepare _ | Commit_cert _ | Stable_checkpoint _ | Client_row _ ),
        _ ) ->
        false

  let hash = function
    | View_entered v -> Hashtbl.hash (1, v)
    | View_change_started v -> Hashtbl.hash (2, v)
    | Accepted_pre_prepare { seq; view; ops } ->
        Hashtbl.hash (3, seq, view, List.length ops)
    | Accepted_prepare { seq; view; _ } -> Hashtbl.hash (4, seq, view)
    | Commit_cert { seq; view; _ } -> Hashtbl.hash (5, seq, view)
    | Stable_checkpoint { seq; _ } -> Hashtbl.hash (6, seq)
    | Client_row { client; timestamp; seq; index; _ } ->
        Hashtbl.hash (7, client, timestamp, seq, index)
end

module Table = Hashtbl.Make (Key)

type frames = { table : frame Table.t; mutable horizon : int }

let new_frames () = { table = Table.create 256; horizon = 0 }

(* A miss encodes the record.  Records below the newest truncation
   horizon are not kept: the replica logging one lags, and a later miss
   only re-encodes the same bytes. *)
let lookup frames record =
  match Table.find_opt frames.table record with
  | Some f -> f
  | None ->
      let f = frame_of record (encode record) in
      if f.seq >= frames.horizon then Table.add frames.table record f;
      f

let evict_below frames ~seq =
  if seq > frames.horizon then begin
    frames.horizon <- seq;
    Table.filter_map_inplace
      (fun _ f -> if f.seq < seq then None else Some f)
      frames.table
  end

type t = {
  frames : frames;
  mutable durable : frame list;  (** synced frames, newest first; survive crash-amnesia *)
  mutable pending : frame list;  (** appended but not yet synced, newest first; lost on crash *)
  mutable durable_bytes : int;
  mutable pending_bytes : int;
  mutable appends : int;
  mutable syncs : int;
  mutable trunc_seq : int;
      (** logical truncation horizon: frames below it are dead and
          filtered out of {!replay}, whether or not they have been
          physically dropped yet *)
  mutable compact_watermark : int;
      (** durable size (bytes) at which the next {!truncate_below}
          physically drops dead frames; doubling it after each rewrite
          keeps compaction O(1) amortized per appended byte even when
          the horizon advances every slot *)
}

let initial_watermark = 1 lsl 16

let create ?(frames = new_frames ()) () =
  {
    frames;
    durable = [];
    pending = [];
    durable_bytes = 0;
    pending_bytes = 0;
    appends = 0;
    syncs = 0;
    trunc_seq = 0;
    compact_watermark = initial_watermark;
  }

let append t record =
  let f = lookup t.frames record in
  let n = String.length f.bytes in
  t.pending <- f :: t.pending;
  t.pending_bytes <- t.pending_bytes + n;
  t.appends <- t.appends + 1;
  n

let dirty t = t.pending_bytes > 0

let sync t =
  if dirty t then begin
    t.durable <- t.pending @ t.durable;
    t.durable_bytes <- t.durable_bytes + t.pending_bytes;
    t.pending <- [];
    t.pending_bytes <- 0;
    t.syncs <- t.syncs + 1;
    true
  end
  else false

let drop_pending t =
  t.pending <- [];
  t.pending_bytes <- 0

(* Checkpoint compaction filter: everything below [seq] is captured by
   the stable checkpoint, except view records (always retained, latest
   wins at replay) and the latest checkpoint at or below [seq], which
   moves to the front (the first of equals, and listed once even when
   its seq is [seq] itself).  Shared by [replay] over parsed records
   and by the physical rewrite over frames, so the replayed history is
   identical whether or not the dead prefix has been dropped yet. *)
let compact ~seq ~seq_of ~checkpoint items =
  if seq <= 0 then items
  else begin
    let _, latest =
      List.fold_left
        (fun (i, best) x ->
          let best =
            if checkpoint x && seq_of x <= seq then
              match best with
              | Some (_, b) when seq_of b >= seq_of x -> best
              | _ -> Some (i, x)
            else best
          in
          (i + 1, best))
        (0, None) items
    in
    let hoisted i = match latest with Some (j, _) -> Int.equal i j | None -> false in
    let kept = List.filteri (fun i x -> seq_of x >= seq && not (hoisted i)) items in
    match latest with Some (_, cp) -> cp :: kept | None -> kept
  end

(* Only the synced prefix exists after a crash, so only it replays. *)
let replay t =
  let bytes = String.concat "" (List.rev_map (fun f -> f.bytes) t.durable) in
  compact ~seq:t.trunc_seq ~seq_of:record_seq ~checkpoint:is_checkpoint
    (replay_string bytes)

(* The durable frames that replay reads, oldest first: the log up to
   its first torn frame. *)
let intact t =
  let rec upto acc = function
    | ({ kind = Record | Checkpoint; _ } as f) :: rest -> upto (f :: acc) rest
    | _ -> List.rev acc
  in
  upto [] (List.rev t.durable)

let set_durable t oldest_first =
  t.durable <- List.rev oldest_first;
  t.durable_bytes <- List.fold_left (fun n f -> n + String.length f.bytes) 0 oldest_first;
  t.compact_watermark <- max initial_watermark (2 * t.durable_bytes)

(* Logical truncation is just a horizon bump; the physical rewrite runs
   only once the durable log outgrows its watermark.  Callers may
   therefore truncate on every stable-checkpoint advance without
   turning the log into an O(n^2) hot spot (it did: at paper scale
   every certified slot rewrote every replica's full log).  The rewrite
   keeps the surviving frames as they are. *)
let truncate_below t ~seq =
  if seq > t.trunc_seq then t.trunc_seq <- seq;
  evict_below t.frames ~seq;
  if t.durable_bytes >= t.compact_watermark then
    set_durable t
      (compact ~seq:t.trunc_seq ~seq_of:(fun f -> f.seq)
         ~checkpoint:(fun f -> f.kind = Checkpoint)
         (intact t))

let durable_bytes t = t.durable_bytes
let pending_bytes t = t.pending_bytes
let appends t = t.appends
let syncs t = t.syncs

let reset t =
  drop_pending t;
  t.durable <- [];
  t.durable_bytes <- 0;
  t.appends <- 0;
  t.syncs <- 0;
  t.trunc_seq <- 0;
  t.compact_watermark <- initial_watermark

(* Rollback-attack helper (schedule fuzzer): restore the stale durable
   prefix ending at the newest Stable_checkpoint whose seq is at most
   [before] — the state an attacker gets by re-imaging a replica's disk
   from an old backup.  Every later frame disappears, including view
   records and Accepted_* promises logged after the checkpoint, so the
   restarted replica resurrects pre-view-change state and forgets
   prepare promises the network already acted on.  The kept prefix is
   internally consistent (it is exactly what the log held when that
   checkpoint was synced).  Returns the checkpoint seq kept, or 0 when
   no checkpoint qualifies (the log rolls back to empty — a factory
   restore). *)
let rollback_to_checkpoint t ~before =
  drop_pending t;
  let frames = intact t in
  let _, cut, cp =
    List.fold_left
      (fun (i, cut, cp) f ->
        if f.kind = Checkpoint && f.seq <= before && f.seq >= cp then (i + 1, i, f.seq)
        else (i + 1, cut, cp))
      (0, -1, 0) frames
  in
  set_durable t (List.filteri (fun i _ -> i <= cut) frames);
  t.trunc_seq <- 0;
  cp

(* Test helper: simulate a torn write by overwriting the last [bytes]
   durable bytes with garbage.  Each frame it reaches is replaced by a
   new string, re-parsed on its own to learn whether it still holds a
   record (garbage over a byte that already was 0xFF changes nothing). *)
let corrupt_tail t ~bytes =
  let torn f k =
    let n = String.length f.bytes in
    let m = min k n in
    let s = String.sub f.bytes 0 (n - m) ^ String.make m '\xFF' in
    match replay_string s with
    | [ record ] -> (frame_of record s, k - m)
    | _ -> ({ bytes = s; kind = Torn; seq = min_int }, k - m)
  in
  let rec go acc k = function
    | f :: rest when k > 0 ->
        let f', k' = torn f k in
        go (f' :: acc) k' rest
    | rest -> List.rev_append acc rest
  in
  t.durable <- go [] bytes t.durable
