(** The planning pipeline: a {!Protocol.spec} to a synthesis, an
    outcome and the outcome JSON.  The daemon, [pdw] and the bench
    harness all run it through here.

    The pipeline: resolve the benchmark (or parse the inline assay),
    apply the park set, synthesize — the motivating example on its
    hand-built Fig. 2 layout, everything else on a fresh synthesized
    chip — then optimize with the requested method and serialize via
    [Json_export.outcome].  Every job synthesizes fresh, so a served
    plan is byte-identical to the single-shot CLI on the same spec;
    repeat-request speed comes from the plan cache above, not from
    sharing mutable synthesis state between workers. *)

(** [resolve ?park source] is the synthesized chip and baseline
    schedule of [source] with the operations in [park] (default none)
    parked, or a user-facing error: an unknown benchmark name (the
    message lists every name in [Pdw_assay.Benchmarks.catalog]), an
    assay parse failure or a rejected park set. *)
val resolve :
  ?park:int list -> Protocol.source -> (Pdw_synth.Synthesis.t, string) result

(** [optimize spec s] runs the planner [spec] selects on [s]: PDW with
    [spec.config], or the DAWO baseline. *)
val optimize :
  Protocol.spec -> Pdw_synth.Synthesis.t -> Pdw_wash.Wash_plan.outcome

(** [encode outcome] is the outcome JSON text a plan reply carries and
    [pdw run --json] prints. *)
val encode : Pdw_wash.Wash_plan.outcome -> string

(** [plan spec] is [encode (optimize spec s)] for [s] the [resolve] of
    [spec]'s source and park set, or [resolve]'s error.  Never raises
    for bad input; planner bugs propagate as exceptions for the
    server's retry logic to classify. *)
val plan : Protocol.spec -> (string, string) result

(** [plan] plus the request's own stage timings — monotonic wall
    milliseconds of the same spans [Trace] aggregates, as
    [(stage, ms)] in execution order (["synthesize"], then
    ["optimize"] unless resolution failed).  The server threads these
    into its per-request [Reqtrace] records. *)
val plan_timed :
  Protocol.spec -> (string, string) result * (string * float) list
