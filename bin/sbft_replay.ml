(* Replay checker driver (rule R8).  Runs every example scenario twice
   from the same seed and exits 1 if any trace stream diverges.  It
   also writes one golden line per scenario (name, event count and
   whole-stream digest) to the file named by [--out], or to stdout.
   [dune build @replay] diffs that file against
   analysis/replay.expected, so a change to any scenario's event stream
   fails the build until it is promoted on purpose (dune promote). *)

module Experiments = Sbft_harness.Experiments
module Replay = Sbft_sim.Replay

let header =
  "# R8 golden replay digests: per example scenario, the trace event count\n\
   # and the FNV-1a digest of the whole interleaved event stream.\n\
   # Regenerated by `dune build @replay`; after a vetted behaviour change,\n\
   # update the committed file with `dune promote`.\n"

let () =
  let out =
    match Array.to_list Sys.argv with _ :: "--out" :: file :: _ -> Some file | _ -> None
  in
  let outcomes = Experiments.replay_outcomes () in
  let buf = Buffer.create 512 in
  Buffer.add_string buf header;
  let ok =
    List.fold_left
      (fun ok (name, outcome) ->
        match outcome with
        | Replay.Identical s ->
            Buffer.add_string buf
              (Printf.sprintf "%-18s events=%d digest=%s\n" name s.Replay.events
                 (Replay.pp_digest s.Replay.digest));
            ok
        | Replay.Diverged _ ->
            Printf.eprintf "%s: %s\n" name (Replay.pp_outcome outcome);
            false)
      true outcomes
  in
  (match out with
  | Some file ->
      let oc = open_out_bin file in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> Buffer.output_buffer oc buf)
  | None -> print_string (Buffer.contents buf));
  exit (if ok then 0 else 1)
