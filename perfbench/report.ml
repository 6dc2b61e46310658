(* What a run measured, and how it is printed: a human-readable block,
   then the one-line JSON result the benchmark contract requires as the
   last line of standard output. *)

module Json = Pdw_obs.Json

type t = {
  workload : string;
  seed : int;
  setups : float list;  (** seconds of each repeated set-up *)
  plans_per_s : float;
  latency : Samples.t;
      (** ms, verified plans only: per plan offline, from the due time
          in serve-fill's open loop, from the send in serve-hits' closed
          loop *)
  open_loop : Samples.t option;  (** serve-hits' open-loop phase, from the due time *)
  attempted : int;
  failed : int;
  error_rate : float;
  summary : Check.summary;
  peak_rss_mb : float;
  lag_ms_p99 : float;  (** how late the open-loop generator sent, 0 offline *)
  mismatches : int;  (** outputs that differ from their reference *)
  sum_check : (float * float) option;  (** traced: self-time sum and mean latency, ms per plan *)
  layers : (string * float) list;
  failures : string list;  (** inputs or requests that failed, with the reason *)
  worse : string list;  (** inputs where PDW's objective exceeds DAWO's *)
}

(* Layer self times must add up to the measured latency within this
   share; the residue is the benchmark span's own bookkeeping. *)
let sum_tolerance = 0.05

let sum_ok t =
  match t.sum_check with
  | None -> true
  | Some (self, lat) -> lat > 0.0 && Float.abs (self -. lat) /. lat <= sum_tolerance

(* [correct]: every output matched its reference and, when traced, the
   layer budget adds up.  Failed operations are counted in [failed]
   and listed; they do not make the measurement itself wrong. *)
let correct t = t.mismatches = 0 && sum_ok t

let setup_s t = Samples.median_of_list t.setups

let end_to_end t =
  let s = t.summary in
  [
    ("setup_s", "s", setup_s t);
    ("plans_per_s", "1/s", t.plans_per_s);
    ("latency_ms_p50", "ms", Samples.quantile t.latency 0.5);
    ("ok_share", "ratio", 1.0 -. t.error_rate);
    ("objective_mean", "1", s.objective_mean);
    ("n_wash_mean", "count", s.n_wash_mean);
    ("l_wash_mm_mean", "mm", s.l_wash_mm_mean);
    ("t_assay_s_mean", "s", s.t_assay_s_mean);
    ( "pdw_not_worse_share", "ratio",
      if s.compared = 0 then nan else 1.0 -. (float_of_int s.worse /. float_of_int s.compared) );
    ("peak_rss_mb", "MB", t.peak_rss_mb);
  ]

(* Every per-layer metric with its unit, in BENCHMARK.json's order. *)
let per_layer_metrics =
  [
    ("synthesis.ms_per_plan", "ms");
    ("router.flush.self_ms", "ms");
    ("synth.router.covering_searches", "count");
    ("synth.router.pairs_lb_pruned", "count");
    ("synth.router.flush_memo_hit_ratio", "ratio");
    ("synth.scheduler.jobs", "count");
    ("pdw.ms_per_plan", "ms");
    ("plan.necessity.self_ms", "ms");
    ("plan.grouping.self_ms", "ms");
    ("plan.paths.self_ms", "ms");
    ("plan.reschedule.self_ms", "ms");
    ("pdw.router.flush.self_ms", "ms");
    ("core.plan.rounds", "count");
    ("core.plan.wash_groups", "count");
    ("core.occupancy.hit_ratio", "ratio");
    ("gc.minor_words_per_plan", "words");
    ("simplex.solve.self_ms", "ms");
    ("bb.node.self_ms", "ms");
    ("lp.simplex.pivots", "count");
    ("lp.bb.nodes_expanded", "count");
    ("lp.simplex.warm_share", "ratio");
    ("json_export.ms_per_plan", "ms");
    ("dawo.ms_per_plan", "ms");
    ("validate.ms_per_plan", "ms");
    ("json.parse_us", "us");
    ("protocol.request_of_json_us", "us");
    ("protocol.digest_us", "us");
    ("plan_cache.find_us", "us");
    ("protocol.reply_to_string_us", "us");
    ("client.reply_parse_us", "us");
    ("server.wall_ms_p50", "ms");
    ("client.gap_ms_p50", "ms");
    ("server.queue_wait_ms_p99", "ms");
    ("server.service_ms_p50", "ms");
    ("plan_cache.hit_ratio", "ratio");
    ("plan_cache.evictions", "count");
    ("plan_store.writes", "count");
    ("admission.shed", "count");
    ("loadgen.lag_ms_p99", "ms");
    ("trace.overhead_ratio", "ratio");
  ]

let per_layer t =
  List.map
    (fun (name, unit) -> (name, unit, Option.value (List.assoc_opt name t.layers) ~default:0.0))
    per_layer_metrics

(* JSON has no NaN: a metric the run could not measure is null. *)
let number v = if Float.is_finite v then Json.Float v else Json.Null

let result_line t ~traced =
  let metrics = if traced then per_layer t else end_to_end t in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (correct t));
         ("attempted", Json.Int t.attempted);
         ("failed", Json.Int t.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, unit, v) ->
                  (name, Json.Obj [ ("value", number v); ("unit", Json.Str unit) ]))
                metrics) );
       ])

let print t ~traced =
  let s = t.summary in
  Printf.printf "perfbench %s seed=%d traced=%b\n" t.workload t.seed traced;
  Printf.printf "  set-ups (s): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") t.setups));
  Printf.printf "  attempted %d, failed %d, output mismatches %d\n" t.attempted t.failed t.mismatches;
  Printf.printf "  latency samples %d, beyond p99 %d; p90 %.4g, p99.9 %.4g, max %.4g ms\n"
    (Samples.count t.latency) (Samples.beyond t.latency 0.99) (Samples.quantile t.latency 0.9)
    (Samples.quantile t.latency 0.999) (Samples.quantile t.latency 1.0);
  Option.iter
    (fun l ->
      Printf.printf "  open loop from due time: %d samples, p50 %.4g, p99 %.4g ms\n" (Samples.count l)
        (Samples.quantile l 0.5) (Samples.quantile l 0.99))
    t.open_loop;
  if t.lag_ms_p99 > 0.0 then Printf.printf "  open-loop send lag p99 %.4f ms\n" t.lag_ms_p99;
  Printf.printf "  inputs %d: %d failed, PDW worse than DAWO on %d of %d compared\n" s.inputs s.failed
    s.worse s.compared;
  if not traced then begin
    List.iter (fun (name, unit, v) -> Printf.printf "  %-22s %14.6g %s\n" name v unit) (end_to_end t);
    (* Reported but not in the result line: the p99 of the served
       workloads varied too much between runs to hold a bound, and the
       two shares, whose complements [ok_share] and
       [pdw_not_worse_share] are gated instead because they are never
       zero. *)
    Printf.printf "  %-22s %14.6g ms\n" "latency_ms_p99" (Samples.quantile t.latency 0.99);
    Printf.printf "  %-22s %14.6g ratio\n" "error_rate" t.error_rate;
    Printf.printf "  %-22s %14.6g ratio\n" "pdw_worse_share"
      (if s.compared = 0 then nan else float_of_int s.worse /. float_of_int s.compared)
  end
  else begin
    List.iter (fun (name, unit, v) -> Printf.printf "  %-34s %14.6g %s\n" name v unit) (per_layer t);
    match t.sum_check with
    | Some (self, lat) ->
      Printf.printf "  sum check: layer self times %.4f ms vs latency %.4f ms per plan (%s, tolerance %g)\n"
        self lat (if sum_ok t then "ok" else "FAILED") sum_tolerance
    | None -> ()
  end;
  List.iter (Printf.printf "  failed: %s\n") t.failures;
  List.iter (Printf.printf "  pdw>dawo: %s\n") t.worse;
  print_endline (result_line t ~traced)
