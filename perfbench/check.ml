(* The untimed check phase.  Every input goes once more through the
   pipeline, and each PDW plan through [Schedule.violations] and
   [Validate.outcome]; DAWO plans the same synthesis for the Eq. (26)
   comparison.  Nothing is filtered: a raise, a violation or a finding
   marks the input failed, and the report prints it. *)

module Counters = Pdw_obs.Counters
module Schedule = Pdw_synth.Schedule
module Metrics = Pdw_wash.Metrics

type quality = { objective : float; n_wash : int; l_wash_mm : float; t_assay : int }

type verdict = {
  label : string;
  bytes : string option;  (** PDW outcome text, when the pipeline returned one *)
  failure : string option;  (** why the input failed, if it did *)
  quality : quality option;  (** metrics of a PDW plan that passed every check *)
  dawo : (float, string) result;  (** DAWO objective, or why it raised *)
}

(* Failure reasons are cited on one line, cut to a readable length. *)
let first_line s =
  let s = match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s in
  if String.length s <= 160 then s else String.sub s 0 157 ^ "..."

let quality_of (m : Metrics.t) =
  { objective = m.objective; n_wash = m.n_wash; l_wash_mm = m.l_wash_mm; t_assay = m.t_assay }

(* Per-plan counts of the planner layers, accumulated only around the
   synthesize/optimize/encode calls so DAWO and validation do not mix
   in.  [minor_words] is the planning domain's minor allocation. *)
type tally = { counts : (string, int) Hashtbl.t; mutable minor_words : float; mutable plans : int }

let tally () = { counts = Hashtbl.create 32; minor_words = 0.0; plans = 0 }

let count t name = Option.value (Hashtbl.find_opt t.counts name) ~default:0

let planned t f =
  let snap = Counters.snapshot () in
  let w0 = Gc.minor_words () in
  let finish () =
    t.minor_words <- t.minor_words +. (Gc.minor_words () -. w0);
    t.plans <- t.plans + 1;
    List.iter
      (fun (name, kind, v) ->
        if kind = Counters.Counter then Hashtbl.replace t.counts name (count t name + v))
      (Counters.delta ~since:snap)
  in
  Fun.protect ~finally:finish f

let check_one t (input : Inputs.input) =
  let fail ?bytes ?(dawo = Error "not run") why =
    { label = input.label; bytes; failure = Some why; quality = None; dawo }
  in
  match Pipeline.resolve input.spec with
  | Error m -> fail ("resolve: " ^ m)
  | Ok r -> (
    match planned t (fun () ->
        let s = Pipeline.synthesize r in
        let o = Pipeline.optimize input.spec s in
        (s, o, Pipeline.encode o))
    with
    | exception e -> fail ("raise: " ^ first_line (Printexc.to_string e))
    | s, o, bytes ->
      let dawo =
        match Pipeline.dawo s with
        | d -> Ok d.Pdw_wash.Wash_plan.metrics.objective
        | exception e -> Error (first_line (Printexc.to_string e))
      in
      let report = Pipeline.validate o in
      match Schedule.violations o.Pdw_wash.Wash_plan.schedule, report.findings with
      | v :: _, _ -> fail ~bytes ~dawo ("violation: " ^ v)
      | [], f :: _ ->
        fail ~bytes ~dawo (Printf.sprintf "validate: %s: %s" f.check (first_line f.detail))
      | [], [] ->
        { label = input.label; bytes = Some bytes; failure = None;
          quality = Some (quality_of o.metrics); dawo })

(* When counting, the check pass runs the router's flush on one
   domain: with several, the shared incumbent prunes a run-dependent
   number of port pairs, so the [synth.router.*] counts and the planning
   domain's allocation would vary by a few per plan, although the plans
   stay byte-identical. *)
let run inputs =
  let counting = Counters.enabled () in
  if counting then Pdw_synth.Router.set_flush_domains 1;
  let t = tally () in
  let verdicts =
    Fun.protect
      ~finally:(fun () ->
        if counting then
          Pdw_synth.Router.set_flush_domains (min 4 (Domain.recommended_domain_count ())))
      (fun () -> Array.map (check_one t) inputs)
  in
  (verdicts, t)

let pdw_worse v =
  match v.quality, v.dawo with
  | Some q, Ok d -> q.objective > d
  | _ -> false

(* Plan-quality summary over one pass of the inputs: deterministic for
   a seed, because the inputs are. *)
type summary = {
  inputs : int;
  failed : int;
  compared : int;  (** inputs where both planners returned a valid plan *)
  worse : int;
  objective_mean : float;
  n_wash_mean : float;
  l_wash_mm_mean : float;
  t_assay_s_mean : float;
}

let summarize verdicts =
  let ok = Array.to_list verdicts |> List.filter_map (fun v -> v.quality) in
  let mean f =
    match ok with
    | [] -> nan
    | _ -> List.fold_left (fun acc q -> acc +. f q) 0.0 ok /. float_of_int (List.length ok)
  in
  let compared =
    Array.fold_left
      (fun acc v -> match v.quality, v.dawo with Some _, Ok _ -> acc + 1 | _ -> acc)
      0 verdicts
  in
  {
    inputs = Array.length verdicts;
    failed = Array.fold_left (fun acc v -> if v.failure <> None then acc + 1 else acc) 0 verdicts;
    compared;
    worse = Array.fold_left (fun acc v -> if pdw_worse v then acc + 1 else acc) 0 verdicts;
    objective_mean = mean (fun q -> q.objective);
    n_wash_mean = mean (fun q -> float_of_int q.n_wash);
    l_wash_mm_mean = mean (fun q -> q.l_wash_mm);
    t_assay_s_mean = mean (fun q -> float_of_int q.t_assay);
  }
