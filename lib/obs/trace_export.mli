(** Export recorded spans and counters.

    Two sinks: the Chrome trace-event JSON format — load the file at
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto} to browse
    the span hierarchy per domain on a timeline — and a plain-text
    summary that aggregates spans by call path into a tree with call
    counts, total and self wall time, followed by every non-zero
    counter and gauge. *)

(** The Chrome trace as a JSON string: one complete ("ph":"X") event
    per span with microsecond timestamps relative to [Trace.epoch],
    [pid] 1 and the recording domain's id as [tid], plus a top-level
    ["counters"] object with the final value of every non-zero cell. *)
val chrome_json : unit -> string

(** [write_chrome path] writes [chrome_json] to [path] followed by a
    newline. *)
val write_chrome : string -> unit

(** Print the per-path span tree (count, total ms, self ms — self being
    total minus the time in child spans) and the counter table. *)
val summary : Format.formatter -> unit

(** The planner's stage spans, in pipeline order: synthesis, the four
    PDW phases, the LP core and the router's flush.  The HTML run
    report and [BENCH_solver.json] both break a run down by these. *)
val stage_names : string list

(** [stage_totals ~names ()] sums recorded span durations by name,
    returning [(name, total_ms)] in the order of [names], omitting
    names never recorded.  [since] skips the first [since] recorded
    events, so a harness can report one job's stages while an outer
    [--trace] keeps the full buffer (default 0). *)
val stage_totals : ?since:int -> names:string list -> unit -> (string * float) list

(** [stage_allocs ~names ()] sums recorded span allocation deltas by
    name, returning [(name, (minor_words, major_words))] in the order of
    [names], omitting names never recorded.  Nested spans with listed
    names double-count their common allocations, exactly as
    [stage_totals] double-counts their common time. *)
val stage_allocs :
  ?since:int ->
  names:string list ->
  unit ->
  (string * (float * float)) list
