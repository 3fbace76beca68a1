(* In-memory span recorder for traced runs.

   Spans are timed in host CPU seconds ([Sys.time]) and kept in memory
   until the run ends, then written out as JSON lines.  A [run.slice]
   span is open while the runner is inside one [Cluster.run_for] call;
   [child] spans started meanwhile ([service.apply], [workload.make_op])
   are attributed to it, so the slice's self time is the host cost of
   everything the simulation did apart from those children. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span; -1 at top level *)
  start_s : float;
  dur_s : float;
  attrs : (string * float) list;
}

type t = {
  origin : float;
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable slice : int;  (* id of the open run.slice, -1 when none *)
  mutable slice_start : float;
  mutable children_s : float;  (* child time inside the open slice *)
  child_totals : (string, float * int) Hashtbl.t;  (* name -> (seconds, calls) *)
}

let now = Sys.time

let create () =
  {
    origin = now ();
    spans = [];
    next_id = 0;
    slice = -1;
    slice_start = 0.;
    children_s = 0.;
    child_totals = Hashtbl.create 8;
  }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let add t ~id ~name ~parent ~start ~stop ~attrs =
  t.spans <-
    { id; name; parent; start_s = start -. t.origin; dur_s = stop -. start; attrs } :: t.spans

(* A top-level span around [f]. *)
let span t name ?(attrs = fun _ -> []) f =
  let id = fresh_id t in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  add t ~id ~name ~parent:(-1) ~start:t0 ~stop:t1 ~attrs:(attrs r);
  r

let open_slice t =
  t.slice <- fresh_id t;
  t.children_s <- 0.;
  t.slice_start <- now ()

(* Close the open slice; returns (total, self) host seconds. *)
let close_slice t ~attrs =
  let stop = now () in
  let total = stop -. t.slice_start in
  let self = total -. t.children_s in
  add t ~id:t.slice ~name:"run.slice" ~parent:(-1) ~start:t.slice_start ~stop
    ~attrs:(("self_s", self) :: attrs);
  t.slice <- -1;
  (total, self)

(* Time [f] as a child of the open slice (untimed outside a slice, e.g.
   while an EVM genesis is bootstrapped during set-up). *)
let child t name f =
  if t.slice < 0 then f ()
  else begin
    let id = fresh_id t in
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    add t ~id ~name ~parent:t.slice ~start:t0 ~stop:t1 ~attrs:[];
    let d = t1 -. t0 in
    t.children_s <- t.children_s +. d;
    let s, n = Option.value (Hashtbl.find_opt t.child_totals name) ~default:(0., 0) in
    Hashtbl.replace t.child_totals name (s +. d, n + 1);
    r
  end

(* Total host seconds and call count of the children called [name]. *)
let child_total t name = Option.value (Hashtbl.find_opt t.child_totals name) ~default:(0., 0)

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              ([
                 ("id", Json.Int s.id);
                 ("name", Json.Str s.name);
                 ("parent", Json.Int s.parent);
                 ("start_s", Json.Num s.start_s);
                 ("dur_s", Json.Num s.dur_s);
               ]
              @ List.map (fun (k, v) -> (k, Json.Num v)) s.attrs)));
      output_char oc '\n')
    (List.sort (fun a b -> Int.compare a.id b.id) t.spans);
  close_out oc
