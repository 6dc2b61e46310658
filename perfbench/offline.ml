(* plan-batch and exact-ilp: one process plans every input in a closed
   loop, a fixed number of passes sized to the measured seconds.  A plan
   is timed from synthesis to encoded outcome.  Every pass must
   reproduce the first pass's bytes; the check phase then decides which
   inputs failed. *)

module Clock = Pdw_obs.Clock
module Trace = Pdw_obs.Trace

type state = { inputs : Inputs.input array; resolved : (Pipeline.resolved, string) result array }

let inputs_of (opts : Common.opts) =
  match opts.workload with
  | "plan-batch" -> Inputs.plan_batch ~size:opts.size ~seed:opts.seed
  | "exact-ilp" -> Inputs.exact_ilp ~size:opts.size ~seed:opts.seed
  | w -> invalid_arg ("Offline: " ^ w)

(* Set-up: generate and resolve the inputs, then warm up on sixteen
   plans, which starts the router's worker domains: plan-batch's first
   sixteen inputs (the thirteen named assays and three ILP variants) and
   exact-ilp's every variant twice, since the seed's draw of variants
   would otherwise change the solver work of the set-up.  Planning
   dominates the set-up time, so it varies no more than the plans do. *)
let setup (opts : Common.opts) () =
  let inputs = Array.of_list (inputs_of opts) in
  let resolved = Array.map (fun (i : Inputs.input) -> Pipeline.resolve i.spec) inputs in
  let warmup =
    match opts.workload with
    | "exact-ilp" -> Inputs.exact_ilp_warmup ()
    | _ -> Inputs.take 16 (Array.to_list inputs)
  in
  List.iter
    (fun (i : Inputs.input) ->
      match Pipeline.resolve i.spec with
      | Ok r -> ( try ignore (Pipeline.plan i.spec r) with _ -> ())
      | Error _ -> ())
    warmup;
  { inputs; resolved }

type timed = {
  wall_s : float;
  attempts : int array;  (** per input *)
  samples : (int * float) list;  (** (input, ms) of every plan returned *)
  raised : bool array;
  bytes : string option array;  (** the first returned outcome text *)
  mismatches : int;  (** later passes whose text differed from the first *)
  attempt_ms : float;  (** summed time of every attempt, raises included *)
}

(* Whole passes per measured second, about what the baseline host
   planned.  A run plans a fixed number of passes rather than stopping
   at a deadline, so a seed always makes the same attempts and the
   counts of attempted and failed plans repeat exactly; on a faster or
   slower host the run takes less or more time. *)
let passes_per_s = function "plan-batch" -> 0.35 | _ -> 1.0

let passes (opts : Common.opts) ~seconds =
  max 1 (int_of_float (Float.round (passes_per_s opts.workload *. seconds)))

let measure st ~passes =
  let n = Array.length st.inputs in
  let attempts = Array.make n 0 and raised = Array.make n false and bytes = Array.make n None in
  let samples = ref [] and mismatches = ref 0 and attempt_ms = ref 0.0 in
  let t0 = Clock.now () in
  for k = 0 to (passes * n) - 1 do
    let i = k mod n in
    attempts.(i) <- attempts.(i) + 1;
    (match st.resolved.(i) with
     | Error _ -> ()
     | Ok r ->
       let t = Clock.now () in
       let result = try Ok (Pipeline.plan st.inputs.(i).spec r) with e -> Error e in
       let ms = (Clock.now () -. t) *. 1000.0 in
       attempt_ms := !attempt_ms +. ms;
       (match result with
        | Ok (_, b) ->
          samples := (i, ms) :: !samples;
          (match bytes.(i) with
           | None -> bytes.(i) <- Some b
           | Some first -> if not (String.equal first b) then incr mismatches)
        | Error _ -> raised.(i) <- true))
  done;
  { wall_s = Clock.now () -. t0; attempts; samples = List.rev !samples; raised; bytes;
    mismatches = !mismatches; attempt_ms = !attempt_ms }

(* The timed passes against the check pass: an input is consistent
   when both returned the same text or both failed to return one. *)
let inconsistent (t : timed) (verdicts : Check.verdict array) i =
  (t.raised.(i) && t.bytes.(i) <> None)
  ||
  match t.bytes.(i), verdicts.(i).bytes with
  | Some a, Some b -> not (String.equal a b)
  | Some _, None -> true
  | None, Some _ -> t.raised.(i)
  | None, None -> false

let tally_timed (t : timed) verdicts =
  let bad i = verdicts.(i).Check.failure <> None || inconsistent t verdicts i in
  let latency = Samples.create () in
  List.iter (fun (i, ms) -> if not (bad i) then Samples.add latency ms) t.samples;
  let attempted = Array.fold_left ( + ) 0 t.attempts in
  let failed = ref t.mismatches in
  Array.iteri (fun i a -> if bad i then failed := !failed + a) t.attempts;
  let mismatches =
    t.mismatches
    + Array.fold_left ( + ) 0 (Array.init (Array.length t.attempts) (fun i -> if inconsistent t verdicts i then 1 else 0))
  in
  (latency, attempted, !failed, mismatches)

let run (opts : Common.opts) =
  let st, setups = Common.repeat_setup ~setup:(setup opts) ~teardown:ignore in
  let half = passes opts ~seconds:(opts.seconds /. 2.0) in
  let measured, traced_half =
    if not opts.traced then (measure st ~passes:(passes opts ~seconds:opts.seconds), None)
    else begin
      let untraced = measure st ~passes:half in
      Common.start_tracing ();
      let traced = measure st ~passes:half in
      (untraced, Some traced)
    end
  in
  let peak_rss_mb = Daemon.self_peak_rss_mb () in
  let n_timed = Trace.num_events () in
  let verdicts, tally = Check.run st.inputs in
  let latency, attempted, failed, mismatches =
    let ((lat, a, f, m) as untraced) = tally_timed measured verdicts in
    match traced_half with
    | None -> untraced
    | Some th ->
      let _, a', f', m' = tally_timed th verdicts in
      (lat, a + a', f + f', m + m')
  in
  let plans_per_s h =
    let lat, _, _, _ = tally_timed h verdicts in
    float_of_int (Samples.count lat) /. h.wall_s
  in
  let layers, sum_check =
    match traced_half with
    | None -> ([], None)
    | Some th ->
      let timed_events, check_events = Common.split_at n_timed (Trace.events ()) in
      Common.stop_tracing ();
      Common.dump_spans opts;
      let timed = Layers.aggregate ~roots:Layers.plan_roots timed_events in
      let checked = Layers.aggregate ~roots:Layers.check_roots check_events in
      let timed_plans = Layers.count timed "bench.plan" in
      let planner =
        Common.planner_layers ~plan_spans:timed ~spanned_plans:timed_plans ~check_spans:checked ~tally
      in
      let service = Micro.service_calls (Common.spec_outcomes st.inputs verdicts) in
      ( planner @ service @ [ ("trace.overhead_ratio", plans_per_s measured /. plans_per_s th) ],
        Some (Layers.self_sum timed ~plans:timed_plans, th.attempt_ms /. float_of_int (max 1 timed_plans)) )
  in
  let summary = Check.summarize verdicts in
  {
    Report.workload = opts.workload;
    seed = opts.seed;
    setups;
    plans_per_s = plans_per_s measured;
    latency;
    open_loop = None;
    attempted;
    failed;
    error_rate = float_of_int summary.failed /. float_of_int summary.inputs;
    summary;
    peak_rss_mb;
    lag_ms_p99 = 0.0;
    mismatches;
    sum_check;
    layers;
    failures = Common.failures verdicts;
    worse = Common.worse verdicts;
  }
