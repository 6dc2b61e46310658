(** JSON export of optimization results, for downstream tooling
    (dashboards, chip drivers, regression tracking), as
    {!Pdw_obs.Json.t} values.  The printed text is what [pdw run --json]
    emits and what the planning service serves byte for byte: it
    round-trips exactly through {!Pdw_obs.Json.parse} and
    {!Pdw_obs.Json.to_string}. *)

(** {!Pdw_obs.Json.to_string}. *)
val to_string : Pdw_obs.Json.t -> string

val metrics : Metrics.t -> Pdw_obs.Json.t

(** Every entry with timing, kind, path cells and (for washes) targets. *)
val schedule : Pdw_synth.Schedule.t -> Pdw_obs.Json.t

(** The full outcome: benchmark stats, metrics, schedule, washes,
    convergence diagnostics. *)
val outcome : Wash_plan.outcome -> Pdw_obs.Json.t
