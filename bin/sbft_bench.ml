(* Command-line benchmark driver: run a single custom scenario.

     dune exec bin/sbft_bench.exe -- --protocol sbft -f 8 --clients 64 \
       --topology world --failures 2 --duration 3 --csv out.csv

   The predefined paper experiments live in bench/main.exe; this tool is
   for exploring arbitrary points in the configuration space. *)

open Cmdliner
open Sbft_harness

let protocol_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "pbft" -> Ok Scenario.PBFT
    | "linear-pbft" | "linear" -> Ok Scenario.Linear_PBFT
    | "linear-pbft-fast" | "fast" -> Ok Scenario.Linear_PBFT_fast
    | "sbft" -> Ok (Scenario.SBFT 0)
    | s when String.length s > 5 && String.sub s 0 5 = "sbft-" -> (
        match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
        | Some c when c >= 0 -> Ok (Scenario.SBFT c)
        | _ -> Error (`Msg "bad c in sbft-<c>"))
    | _ -> Error (`Msg "expected pbft | linear-pbft | linear-pbft-fast | sbft | sbft-<c>")
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Scenario.protocol_name p))

let topology_conv =
  let parse = function
    | "lan" -> Ok `Lan
    | "continent" -> Ok `Continent
    | "world" -> Ok `World
    | _ -> Error (`Msg "expected lan | continent | world")
  in
  Arg.conv
    ( parse,
      fun fmt t ->
        Format.pp_print_string fmt
          (match t with `Lan -> "lan" | `Continent -> "continent" | `World -> "world") )

let workload_conv =
  let parse = function
    | "kv-batch" -> Ok (Scenario.Kv { batching = true })
    | "kv-nobatch" -> Ok (Scenario.Kv { batching = false })
    | "eth" -> Ok Scenario.Eth
    | _ -> Error (`Msg "expected kv-batch | kv-nobatch | eth")
  in
  Arg.conv
    ( parse,
      fun fmt w ->
        Format.pp_print_string fmt
          (match w with
          | Scenario.Kv { batching = true } -> "kv-batch"
          | Scenario.Kv { batching = false } -> "kv-nobatch"
          | Scenario.Eth -> "eth") )

let run protocol f workload num_clients failures topology duration warmup seed csv =
  let scenario =
    Scenario.default ~failures ~topology
      ~warmup:(Sbft_sim.Engine.sec_f warmup)
      ~duration:(Sbft_sim.Engine.sec_f duration)
      ~seed:(Int64.of_int seed) ~protocol ~f ~workload ~num_clients ()
  in
  Printf.printf "running %s, f=%d, %d clients, %d failures...\n%!"
    (Scenario.protocol_name protocol) f num_clients failures;
  match Scenario.run scenario with
  | exception Invalid_argument e -> Error e  (* the deployment rejected the config *)
  | point ->
      Report.print_points ~title:"result" [ point ];
      (match csv with Some path -> Report.write_csv ~path [ point ] | None -> ());
      if not point.Scenario.agreement then exit 2;
      Ok ()

let cmd =
  let protocol =
    Arg.(value & opt protocol_conv (Scenario.SBFT 0)
         & info [ "protocol"; "p" ] ~doc:"Protocol variant.")
  in
  let f = Arg.(value & opt int 2 & info [ "f" ] ~doc:"Byzantine fault threshold.") in
  let workload =
    Arg.(value & opt workload_conv (Scenario.Kv { batching = true })
         & info [ "workload"; "w" ] ~doc:"Workload.")
  in
  let clients = Arg.(value & opt int 16 & info [ "clients" ] ~doc:"Client count.") in
  let failures = Arg.(value & opt int 0 & info [ "failures" ] ~doc:"Crashed backups.") in
  let topology =
    Arg.(value & opt topology_conv `Continent & info [ "topology" ] ~doc:"WAN model.")
  in
  let duration =
    Arg.(value & opt float 2.0 & info [ "duration" ] ~doc:"Measured seconds (virtual).")
  in
  let warmup = Arg.(value & opt float 1.0 & info [ "warmup" ] ~doc:"Warmup seconds.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Deterministic seed.") in
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~doc:"Append result as CSV.")
  in
  Cmd.v
    (Cmd.info "sbft_bench" ~doc:"Run one SBFT/PBFT simulation scenario")
    Term.(
      term_result'
        (const run $ protocol $ f $ workload $ clients $ failures $ topology $ duration
         $ warmup $ seed $ csv))

let () = exit (Cmd.eval cmd)
