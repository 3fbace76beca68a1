(* R10 negative twin: the runtime helper charges for its check. *)
let on_request t ctx r = Runtime.admit_priced t.rt ctx r
