(* One run of one workload. *)

let run (opts : Common.opts) =
  match opts.workload with
  | "plan-batch" | "exact-ilp" -> Offline.run opts
  | "serve-hits" -> Serve.run_hits opts
  | "serve-fill" -> Serve.run_fill opts
  | w -> invalid_arg ("unknown workload " ^ w)
