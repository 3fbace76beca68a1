(* Driver for the sbft lint pass: walks the given source trees, runs
   every AST rule (R1-R7 per-function, R9-R11 protocol discipline,
   R12-R15 quorum soundness) over each .ml file, applies the
   allowlist, prints the surviving findings, and exits non-zero when
   any remain.  Stale allowlist entries are hard errors unless
   --stale-allow-warn is given.  --json FILE also emits a
   machine-readable report; --obligations FILE writes the R12 quorum
   obligation report CI uploads; under GITHUB_ACTIONS findings are
   echoed as workflow annotations.  Wired into the build as
   [dune build @lint] (and into [dune runtest]). *)

module Lint = Sbft_analysis.Lint
module Discipline = Sbft_analysis.Discipline
module Quorum = Sbft_analysis.Quorum
module Msgflow = Sbft_analysis.Msgflow
module Json = Sbft_harness.Report.Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Skip hidden and build directories (.objs, _build, ...) and the lint
   self-test corpus (linted by test_lint against its own golden file,
   where the deliberate positives belong). *)
let skip_entry name =
  String.length name = 0
  || Char.equal name.[0] '.'
  || Char.equal name.[0] '_'
  || String.equal name "lint_fixtures"

let rec walk acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           if skip_entry entry then acc else walk acc (Filename.concat path entry))
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let usage () =
  prerr_endline
    "usage: sbft_lint [--root DIR] [--allow FILE] [--json FILE]\n\
    \                 [--obligations FILE] [--stale-allow-warn] [DIR ...]\n\
     Lints every .ml under the given directories\n\
     (default: lib bin bench test examples).";
  exit 2

let severity_str = function Lint.Error -> "error" | Lint.Warning -> "warning"

let json_report ~files ~kept ~allowed ~stale =
  Json.Obj
    [
      ("schema", Json.Str "sbft-lint-v2");
      ("files", Json.Num (float_of_int files));
      ( "findings",
        Json.Arr
          (List.map
             (fun (f : Lint.finding) ->
               Json.Obj
                 [
                   ("rule", Json.Str f.Lint.rule);
                   ("severity", Json.Str (severity_str f.Lint.severity));
                   ("file", Json.Str f.Lint.file);
                   ("line", Json.Num (float_of_int f.Lint.line));
                   ("message", Json.Str f.Lint.message);
                 ])
             kept) );
      ("allowlisted", Json.Num (float_of_int allowed));
      ("stale_allow", Json.Arr (List.map (fun s -> Json.Str s) stale));
    ]

(* GitHub workflow annotations: one per finding, so the diff view in a
   PR points at the exact site.  Newlines in messages would break the
   single-line command format, but pp messages are single-line. *)
let annotate (f : Lint.finding) =
  Printf.printf "::%s file=%s,line=%d::[%s] %s\n"
    (severity_str f.Lint.severity)
    f.Lint.file f.Lint.line f.Lint.rule f.Lint.message

let () =
  let root = ref "." in
  let allow_file = ref "lint.allow" in
  let json_file = ref None in
  let obligations_file = ref None in
  let stale_warn = ref false in
  let dirs = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--root" :: dir :: rest ->
        root := dir;
        parse_args rest
    | "--allow" :: file :: rest ->
        allow_file := file;
        parse_args rest
    | "--json" :: file :: rest ->
        json_file := Some file;
        parse_args rest
    | "--obligations" :: file :: rest ->
        obligations_file := Some file;
        parse_args rest
    | "--stale-allow-warn" :: rest ->
        stale_warn := true;
        parse_args rest
    | ("--help" | "-h" | "--root" | "--allow" | "--json" | "--obligations") :: _
      ->
        usage ()
    | dir :: rest ->
        dirs := dir :: !dirs;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  Sys.chdir !root;
  let dirs =
    match List.rev !dirs with
    | [] -> [ "lib"; "bin"; "bench"; "test"; "examples" ]
    | ds -> ds
  in
  let allow =
    if Sys.file_exists !allow_file then Lint.Allow.parse (read_file !allow_file)
    else Lint.Allow.empty
  in
  let files =
    List.fold_left walk [] (List.filter Sys.file_exists dirs)
    |> List.sort String.compare
  in
  (* Pre-pass for the quorum rules: extract the threshold definitions
     from the tree's config.ml so comparison sites in every other file
     resolve against what is actually defined. *)
  let defs =
    let config_path = "lib/core/config.ml" in
    if List.exists (String.equal config_path) files then
      match Msgflow.parse ~path:config_path (read_file config_path) with
      | Some structure -> (
          match Quorum.extract_defs ~path:config_path structure with
          | Some defs -> defs
          | None -> Quorum.default_defs)
      | None -> Quorum.default_defs
    else Quorum.default_defs
  in
  (* Pre-pass for R9/R10: summarize the replica runtime so the protocol
     files' calls into it are followed. *)
  let runtime_path = "lib/core/runtime.ml" in
  let runtime =
    if List.exists (String.equal runtime_path) files then
      match Msgflow.parse ~path:runtime_path (read_file runtime_path) with
      | Some structure -> [ Msgflow.summarize ~path:runtime_path structure ]
      | None -> []
    else []
  in
  let findings =
    List.concat_map
      (fun path ->
        let source = read_file path in
        let ast = Lint.lint_source ~path source in
        let disc =
          Discipline.lint_source ~runtime ~path source
          @ Quorum.lint_source ~defs ~path source
        in
        let mli_exists = Sys.file_exists (path ^ "i") in
        let r5 =
          match Lint.missing_mli ~path ~mli_exists with
          | Some f -> [ f ]
          | None -> []
        in
        List.sort
          (fun (a : Lint.finding) b ->
            match Int.compare a.Lint.line b.Lint.line with
            | 0 -> String.compare a.Lint.rule b.Lint.rule
            | n -> n)
          (r5 @ ast @ disc))
      files
  in
  let kept, allowed = Lint.filter allow findings in
  let stale = Lint.Allow.unused allow findings in
  List.iter (fun f -> print_endline (Lint.pp_finding f)) kept;
  List.iter
    (fun entry ->
      Printf.printf "%s: stale lint.allow entry never matched: %s\n"
        (if !stale_warn then "warning" else "error")
        entry)
    stale;
  (match Sys.getenv_opt "GITHUB_ACTIONS" with
  | Some _ -> List.iter annotate kept
  | None -> ());
  (match !json_file with
  | Some file ->
      let oc = open_out_bin file in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc
            (Json.to_string
               (json_report ~files:(List.length files) ~kept
                  ~allowed:(List.length allowed) ~stale)))
  | None -> ());
  (match !obligations_file with
  | Some file ->
      let oc = open_out_bin file in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (Quorum.obligation_report defs))
  | None -> ());
  Printf.printf "sbft-lint: %d file(s), %d finding(s), %d allowlisted, %d stale allow\n"
    (List.length files) (List.length kept) (List.length allowed)
    (List.length stale);
  let stale_fail =
    (not !stale_warn) && match stale with [] -> false | _ -> true
  in
  exit (max (Lint.exit_code kept) (if stale_fail then 1 else 0))
