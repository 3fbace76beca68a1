(* Fixture replica runtime for the r09_runtime_* and r10_runtime_*
   pairs.  None of its functions is a handler, so linting this file on
   its own reports nothing: each violation below is reachable only from
   a protocol handler that calls into it, and must still be reported. *)

(* Verifies a client request without charging for it (R10). *)
let admit t ctx r =
  ignore ctx;
  if Keys.verify_request t.keys r then Queue.push r t.pending

(* The same check, priced. *)
let admit_priced t ctx r =
  Engine.charge ctx (Cost_model.Tally.note "rsa_verify" Cost_model.rsa_verify);
  if Keys.verify_request t.keys r then Queue.push r t.pending

(* Sends whatever the caller's builder makes; a promise-bearing message
   needs its WAL record synced on the caller's path (R9). *)
let relay t ctx ~seq = send t ctx ~dst:0 (t.promise_msg ~seq)
