(* What every workload shares: options, repeated set-up, tracing, and
   the planner-layer figures. *)

module Trace = Pdw_obs.Trace
module Counters = Pdw_obs.Counters
module Clock = Pdw_obs.Clock

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  size : Inputs.size;
  pdw : string option;  (** the [pdw] executable, for the served workloads *)
  dir : string;  (** run directory: daemon files and the span dump *)
}

(* Set-up runs this many times; the run keeps the last state and
   reports the median time, so one slow start does not move [setup_s]. *)
let setup_repeats = 9

let repeat_setup ~setup ~teardown =
  let rec go k acc =
    let t0 = Clock.now () in
    let st = setup () in
    let dt = Clock.now () -. t0 in
    if k = 1 then (st, List.rev (dt :: acc))
    else begin
      teardown st;
      go (k - 1) (dt :: acc)
    end
  in
  go setup_repeats []

(* Spans and counters on, on the monotonic clock every duration in the
   service is read from. *)
let start_tracing () =
  Trace.set_clock Clock.now;
  Trace.reset ();
  Counters.reset ();
  Trace.set_enabled true;
  Counters.set_enabled true

let stop_tracing () =
  Trace.set_enabled false;
  Counters.set_enabled false

(* Write every recorded span once, at the end of the run. *)
let dump_spans opts =
  Daemon.mkdir_p opts.dir;
  let path = Filename.concat opts.dir (Printf.sprintf "spans-%s-seed%d.json" opts.workload opts.seed) in
  Pdw_obs.Trace_export.write_chrome path

let split_at n xs =
  let rec go i acc = function
    | x :: rest when i < n -> go (i + 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go 0 [] xs

(* [plan_spans]: spans of [spanned_plans] plans (the timed phase
   offline, the check phase when serving); [check_spans]: the check
   phase's DAWO and validation spans; [tally]: the check phase's
   counts. *)
let planner_layers ~(plan_spans : Layers.t) ~spanned_plans ~(check_spans : Layers.t) ~(tally : Check.tally) =
  let plans = max 1 tally.plans in
  let per_plan name = float_of_int (Check.count tally name) /. float_of_int plans in
  let ratio hit miss =
    let h = Check.count tally hit and m = Check.count tally miss in
    if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)
  in
  let self name = Layers.self_per_plan plan_spans name ~plans:spanned_plans in
  [
    ("synthesis.ms_per_plan", Layers.ms_per_call plan_spans "synthesis");
    ("router.flush.self_ms", Layers.self_in_layer plan_spans ~layer:"synthesis" "router.flush" ~plans:spanned_plans);
    ("synth.router.covering_searches", per_plan "synth.router.covering_searches");
    ("synth.router.pairs_lb_pruned", per_plan "synth.router.pairs_lb_pruned");
    ("synth.router.flush_memo_hit_ratio", ratio "synth.router.flush_memo_hits" "synth.router.flush_memo_misses");
    ("synth.scheduler.jobs", per_plan "synth.scheduler.jobs");
    ("pdw.ms_per_plan", Layers.ms_per_call plan_spans "pdw");
    ("plan.necessity.self_ms", self "plan.necessity");
    ("plan.grouping.self_ms", self "plan.grouping");
    ("plan.paths.self_ms", self "plan.paths");
    ("plan.reschedule.self_ms", self "plan.reschedule");
    ("pdw.router.flush.self_ms", Layers.self_in_layer plan_spans ~layer:"pdw" "router.flush" ~plans:spanned_plans);
    ("core.plan.rounds", per_plan "core.plan.rounds");
    ("core.plan.wash_groups", per_plan "core.plan.wash_groups");
    ("core.occupancy.hit_ratio", ratio "core.occupancy.hits" "core.occupancy.misses");
    ("gc.minor_words_per_plan", tally.minor_words /. float_of_int plans);
    ("simplex.solve.self_ms", self "simplex.solve");
    ("bb.node.self_ms", self "bb.node");
    ("lp.simplex.pivots", per_plan "lp.simplex.pivots");
    ("lp.bb.nodes_expanded", per_plan "lp.bb.nodes_expanded");
    ("lp.simplex.warm_share", ratio "lp.simplex.solves.warm" "lp.simplex.solves.cold");
    ("json_export.ms_per_plan", Layers.ms_per_call plan_spans "json_export");
    ("dawo.ms_per_plan", Layers.ms_per_call check_spans "dawo");
    ("validate.ms_per_plan", Layers.ms_per_call check_spans "validate");
  ]

let failures verdicts =
  Array.to_list verdicts
  |> List.filter_map (fun (v : Check.verdict) ->
         Option.map (fun why -> Printf.sprintf "%s: %s" v.label why) v.failure)

let worse verdicts =
  Array.to_list verdicts
  |> List.filter_map (fun (v : Check.verdict) ->
         match v.quality, v.dawo with
         | Some q, Ok d when q.objective > d ->
           Some (Printf.sprintf "%s: PDW %.2f > DAWO %.2f" v.label q.objective d)
         | _ -> None)

let spec_outcomes inputs verdicts =
  List.concat
    (List.mapi
       (fun i (input : Inputs.input) ->
         match verdicts.(i).Check.bytes with Some b -> [ (input.spec, b) ] | None -> [])
       (Array.to_list inputs))
