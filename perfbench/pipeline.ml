(* The planning pipeline of [Pdw_service.Engine.plan] — resolve,
   synthesize, optimize, encode — called through the layers' public
   entry points, with one benchmark span around each call.  Spans are
   no-ops unless [Trace] is enabled, so the untraced run times exactly
   these calls. *)

module Protocol = Pdw_service.Protocol
module Benchmarks = Pdw_assay.Benchmarks
module Sequencing_graph = Pdw_assay.Sequencing_graph
module Synthesis = Pdw_synth.Synthesis
module Pdw = Pdw_wash.Pdw
module Dawo = Pdw_wash.Dawo
module Json_export = Pdw_wash.Json_export
module Validate = Pdw_check.Validate

let span name f = Pdw_obs.Trace.with_span ~cat:"bench" name f

type resolved = { bench : Benchmarks.t; fig2 : bool }

(* As in [Engine]: a named benchmark or an inline assay text, parked
   operations applied before synthesis, and the motivating example on
   the hand-built Fig. 2 chip. *)
let resolve (spec : Protocol.spec) =
  let parked b =
    if spec.park = [] then b
    else { b with Benchmarks.graph = Sequencing_graph.mark_parked b.Benchmarks.graph spec.park }
  in
  match spec.source with
  | Protocol.Benchmark name -> (
    match Benchmarks.find name with
    | Some b ->
      Ok { bench = parked b; fig2 = String.lowercase_ascii name = "motivating" }
    | None -> Error (Printf.sprintf "unknown benchmark %S" name))
  | Protocol.Inline text -> (
    match Pdw_assay.Assay_parser.parse text with
    | Ok b -> Ok { bench = parked b; fig2 = false }
    | Error m -> Error m)

let synthesize r =
  span "synthesis" (fun () ->
      let layout =
        if r.fig2 then Some (Pdw_biochip.Layout_builder.fig2_layout ()) else None
      in
      Synthesis.synthesize ?layout r.bench)

let optimize (spec : Protocol.spec) s =
  span "pdw" (fun () ->
      match spec.method_ with
      | `Pdw -> Pdw.optimize ~config:spec.config s
      | `Dawo -> Dawo.optimize s)

let encode o = span "json_export" (fun () -> Json_export.to_string (Json_export.outcome o))

(* One timed plan: synthesize -> optimize -> encode. *)
let plan spec r =
  span "bench.plan" (fun () ->
      let o = optimize spec (synthesize r) in
      (o, encode o))

let dawo s = span "dawo" (fun () -> Dawo.optimize s)
let validate o = span "validate" (fun () -> Validate.outcome o)
