(* Emits the static message-flow graph for the two protocol sections
   (lib/core against Types.msg, lib/pbft against Pbft_types.msg) on
   stdout.  The replica runtime (lib/core/runtime.ml) is not a section
   file: both sections' handlers resolve their calls into it.  Wired
   into the build as [dune build @msgflow], which diffs the output
   against analysis/msgflow.expected. *)

module Msgflow = Sbft_analysis.Msgflow

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let ml_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.filter (fun f -> Filename.check_suffix f ".ml")
  |> List.map (fun f -> dir ^ "/" ^ f)

let runtime_path = "lib/core/runtime.ml"

let summarize ?runtime path =
  match Msgflow.parse ~path (read_file path) with
  | Some structure -> Some (Msgflow.summarize ?runtime ~path structure)
  | None -> None

let section runtime (name, types_file) =
  let universe =
    match Msgflow.parse ~path:types_file (read_file types_file) with
    | Some structure -> Msgflow.msg_constructors structure
    | None -> []
  in
  let files =
    List.filter_map
      (fun path ->
        if String.equal path runtime_path then None else summarize ~runtime path)
      (ml_files name)
  in
  { Msgflow.sec_name = name; sec_universe = universe; sec_files = files }

let () =
  let root = ref "." in
  (match Array.to_list Sys.argv with
  | _ :: "--root" :: dir :: _ -> root := dir
  | _ -> ());
  Sys.chdir !root;
  let sections =
    [
      ("lib/core", "lib/core/types.ml");
      ("lib/pbft", "lib/pbft/pbft_types.ml");
    ]
  in
  let runtime = Option.to_list (summarize runtime_path) in
  print_string (Msgflow.render (List.map (section runtime) sections))
