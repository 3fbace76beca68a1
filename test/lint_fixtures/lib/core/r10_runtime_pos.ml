(* R10 positive through the runtime: the handler prices nothing itself,
   and the runtime helper it calls verifies the request unpriced. *)
let on_request t ctx r = Runtime.admit t.rt ctx r
