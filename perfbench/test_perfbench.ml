(* The benchmark's own tests: every workload prints every metric
   BENCHMARK.json names, with its unit; two runs on one seed agree on
   every count and plan-quality figure; and the reply verifier catches
   a corrupted byte.  Takes the pdw executable as its argument. *)

open Perfbench
module Json = Pdw_obs.Json
module Protocol = Pdw_service.Protocol

let pdw = ref ""

let opts ?(seed = 7) ?(traced = false) workload =
  {
    Common.workload;
    seed;
    seconds = 0.4;
    traced;
    size = Inputs.Tiny;
    pdw = Some !pdw;
    dir = Printf.sprintf ".perfbench-test-%d" (Unix.getpid ());
  }

let benchmark_json =
  lazy
    (match Json.parse (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all) with
     | Ok j -> j
     | Error m -> failwith m)

let declared section =
  match Option.bind (Json.member section (Lazy.force benchmark_json)) Json.to_list with
  | Some ms ->
    List.map
      (fun m ->
        let str k = Option.get (Option.bind (Json.member k m) Json.to_str) in
        (str "name", str "unit"))
      ms
  | None -> failwith ("BENCHMARK.json: no " ^ section)

(* The result line carries exactly the declared metrics, in order,
   each with its declared unit. *)
let printed_metrics line =
  match Json.parse line with
  | Ok (Json.Obj fields) -> (
    Alcotest.(check (list string)) "result keys" [ "correct"; "attempted"; "failed"; "metrics" ]
      (List.map fst fields);
    match List.assoc "metrics" fields with
    | Json.Obj ms ->
      List.map
        (fun (name, m) -> (name, Option.get (Option.bind (Json.member "unit" m) Json.to_str)))
        ms
    | _ -> Alcotest.fail "metrics is not an object")
  | _ -> Alcotest.fail ("not a JSON object: " ^ line)

let prints_every_metric workload () =
  List.iter
    (fun traced ->
      let r = Run.run (opts ~traced workload) in
      Alcotest.(check bool) "correct" true (Report.correct r);
      Alcotest.(check bool) "attempted" true (r.attempted >= 1);
      let section = if traced then "per_layer" else "end_to_end" in
      Alcotest.(check (list (pair string string)))
        (section ^ " metrics") (declared section)
        (printed_metrics (Report.result_line r ~traced)))
    [ false; true ]

(* Counts, attempts and plan quality are functions of the seed alone. *)
let repeatable workload ~traced () =
  let a = Run.run (opts ~traced workload) and b = Run.run (opts ~traced workload) in
  Alcotest.(check bool) "plan-quality summary" true (a.summary = b.summary);
  Alcotest.(check (pair int int)) "attempted, failed" (a.attempted, a.failed) (b.attempted, b.failed);
  Alcotest.(check (list string)) "failures" a.failures b.failures;
  Alcotest.(check (list string)) "pdw>dawo" a.worse b.worse;
  let counts (r : Report.t) =
    List.filter
      (fun (name, unit, _) ->
        (unit = "count" || unit = "ratio" || unit = "words") && name <> "trace.overhead_ratio")
      (Report.per_layer r)
  in
  Alcotest.(check (list (triple string string (float 0.0)))) "counts" (counts a) (counts b);
  let quality (r : Report.t) =
    List.filter (fun (name, _, _) -> not (List.mem name [ "setup_s"; "plans_per_s"; "latency_ms_p50"; "latency_ms_p99"; "peak_rss_mb" ]))
      (Report.end_to_end r)
  in
  Alcotest.(check (list (triple string string (float 0.0)))) "quality" (quality a) (quality b)

let outcome = lazy (Result.get_ok (Pdw_service.Engine.plan (Protocol.spec (Protocol.Benchmark "motivating"))))

let reply outcome =
  Protocol.reply_to_string
    (Protocol.Plan
       { cached = true; coalesced = false; tier = Protocol.Memory; digest = String.make 32 'a'; wall_ms = 0.125; outcome })

let flip s i = String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) s

let verifier_catches_corruption () =
  let expected = Lazy.force outcome in
  let good = reply expected in
  (match Verify.check ~expected good with
   | Verify.Match { wall_ms; cached } ->
     Alcotest.(check (float 0.0)) "wall_ms" 0.125 wall_ms;
     Alcotest.(check bool) "cached" true cached
   | _ -> Alcotest.fail "a correct reply must match");
  let body = String.length good - String.length expected - 1 in
  List.iter
    (fun i ->
      match Verify.check ~expected (flip good i) with
      | Verify.Match _ -> Alcotest.failf "corrupted byte %d went unnoticed" i
      | _ -> ())
    [ body; body + (String.length expected / 2); String.length good - 2; String.length good - 1; 3 ];
  (match Verify.check ~expected (String.sub good 0 (String.length good - 10) ^ "}") with
   | Verify.Mismatch -> ()
   | _ -> Alcotest.fail "a truncated outcome must be a mismatch");
  (match Verify.check ~expected (Protocol.reply_to_string (Protocol.Error "boom")) with
   | Verify.Refused "error" -> ()
   | _ -> Alcotest.fail "an error reply must be refused");
  (* The tally counts the corrupted reply as a failed, mismatched
     request, which makes the run's result incorrect. *)
  let inputs = [| { Inputs.label = "motivating"; spec = Protocol.spec (Protocol.Benchmark "motivating") } |] in
  let verdicts, _ = Check.run inputs in
  let r verdict = { Serve.idx = 0; due = 0.0; sent = 0.0; at = 0.001; verdict } in
  let t =
    Serve.tally ~from_due:true ~verdicts ~inputs
      [ r (Serve.classify (Ok expected) good); r (Serve.classify (Ok expected) (flip good body)) ]
  in
  Alcotest.(check (pair int int)) "attempted, failed" (2, 1) (t.attempted, t.failed);
  Alcotest.(check int) "mismatches" 1 t.mismatches;
  Alcotest.(check int) "latency samples" 1 (Samples.count t.latency)

(* Self time is duration minus direct children, found by interval and
   path; the self times of a tree add up to its root's duration. *)
let self_times () =
  let ev name ts dur path =
    { Pdw_obs.Trace.name; cat = ""; ts; dur; tid = 0; path; args = []; minor_words = 0.0; major_words = 0.0 }
  in
  let events =
    [ ev "b" 0.1 0.3 [ "a"; "b" ]; ev "d" 0.55 0.1 [ "a"; "c"; "d" ]; ev "c" 0.5 0.2 [ "a"; "c" ];
      ev "a" 0.0 1.0 [ "a" ]; ev "a" 2.0 0.5 [ "a" ] ]
  in
  let agg = Layers.aggregate ~roots:[ "a" ] events in
  let self name = (Option.get (Layers.find agg name)).self_ms in
  List.iter
    (fun (name, want) -> Alcotest.(check (float 1e-9)) name want (self name))
    [ ("a", 1000.0); ("b", 300.0); ("c", 100.0); ("d", 100.0) ];
  Alcotest.(check (float 1e-9)) "sum" 750.0 (Layers.self_sum agg ~plans:2)

(* A span called from two layers is split by the layer span it runs
   in, and counted once in the sum. *)
let self_times_by_layer () =
  let ev name ts dur path =
    { Pdw_obs.Trace.name; cat = ""; ts; dur; tid = 0; path; args = []; minor_words = 0.0; major_words = 0.0 }
  in
  let events =
    [ ev "bench.plan" 0.0 1.0 [ "bench.plan" ]; ev "synthesis" 0.0 0.5 [ "bench.plan"; "synthesis" ];
      ev "router.flush" 0.1 0.3 [ "bench.plan"; "synthesis"; "router.flush" ];
      ev "pdw" 0.5 0.5 [ "bench.plan"; "pdw" ]; ev "plan.paths" 0.6 0.3 [ "bench.plan"; "pdw"; "plan.paths" ];
      ev "router.flush" 0.7 0.1 [ "bench.plan"; "pdw"; "plan.paths"; "router.flush" ] ]
  in
  let agg = Layers.aggregate ~roots:Layers.plan_roots events in
  let in_layer layer = Layers.self_in_layer agg ~layer "router.flush" ~plans:1 in
  Alcotest.(check (float 1e-9)) "synthesis" 300.0 (in_layer "synthesis");
  Alcotest.(check (float 1e-9)) "pdw" 100.0 (in_layer "pdw");
  Alcotest.(check (float 1e-9)) "by name" 400.0 (Option.get (Layers.find agg "router.flush")).self_ms;
  Alcotest.(check (float 1e-9)) "sum" 1000.0 (Layers.self_sum agg ~plans:1)

let () =
  pdw := Sys.argv.(1);
  at_exit (fun () -> Daemon.rm_rf (opts "").dir);
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perfbench"
    [
      ( "metrics",
        List.map
          (fun w -> Alcotest.test_case w `Slow (prints_every_metric w))
          [ "plan-batch"; "exact-ilp"; "serve-hits"; "serve-fill" ] );
      ( "repeatable",
        [
          Alcotest.test_case "plan-batch traced" `Slow (repeatable "plan-batch" ~traced:true);
          Alcotest.test_case "exact-ilp traced" `Slow (repeatable "exact-ilp" ~traced:true);
          Alcotest.test_case "serve-fill" `Slow (repeatable "serve-fill" ~traced:false);
        ] );
      ("verify", [ Alcotest.test_case "corrupted reply byte" `Quick verifier_catches_corruption ]);
      ( "layers",
        [
          Alcotest.test_case "self times" `Quick self_times;
          Alcotest.test_case "self times by layer" `Quick self_times_by_layer;
        ] );
    ]
