(* The command-line surface, driven through the built executables:
   [pdw run --json] prints exactly [Engine.plan] of the same spec, [pdw
   list] and the unknown-benchmark hint name every benchmark
   [Benchmarks.find] resolves, the bench harness's usage names every
   job, and [bench compare] holds its router-work budget.  Takes the pdw
   and bench executables as its arguments. *)

module Benchmarks = Pdw_assay.Benchmarks
module Engine = Pdw_service.Engine
module Protocol = Pdw_service.Protocol

let pdw = ref ""
let bench = ref ""

(* [run exe args] is the exit code, stdout and stderr of [exe args]. *)
let run exe args =
  let capture () =
    let path = Filename.temp_file "test_cli" ".txt" in
    (path, Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600)
  in
  let out_path, out_fd = capture () in
  let err_path, err_fd = capture () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out_fd
      err_fd
  in
  Unix.close out_fd;
  Unix.close err_fd;
  let _, status = Unix.waitpid [] pid in
  let slurp path =
    let text = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    text
  in
  let code = match status with Unix.WEXITED c -> c | _ -> -1 in
  (code, slurp out_path, slurp err_path)

let contains text sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length text && (String.sub text i n = sub || go (i + 1))
  in
  go 0

(* Every name [Benchmarks.find] resolves. *)
let benchmark_names () =
  "Motivating"
  :: List.map fst (Benchmarks.all () @ Benchmarks.extra () @ Benchmarks.storage ())

let test_run_json_is_engine_plan () =
  List.iter
    (fun (args, spec) ->
      let label = String.concat " " args in
      let code, out, _ = run !pdw args in
      Alcotest.(check int) (label ^ ": exit") 0 code;
      match Engine.plan spec with
      | Ok plan -> Alcotest.(check string) label (plan ^ "\n") out
      | Error m -> Alcotest.fail m)
    [
      ([ "run"; "motivating"; "--json" ], Protocol.spec (Protocol.Benchmark "motivating"));
      ([ "run"; "pcr"; "--json" ], Protocol.spec (Protocol.Benchmark "pcr"));
      ( [ "run"; "storageburst"; "--json" ],
        Protocol.spec (Protocol.Benchmark "storageburst") );
      ( [ "run"; "pcr"; "--json"; "--method"; "dawo" ],
        Protocol.spec ~method_:`Dawo (Protocol.Benchmark "pcr") );
    ]

let test_list_names_every_benchmark () =
  let code, out, _ = run !pdw [ "list" ] in
  Alcotest.(check int) "exit" 0 code;
  let listed =
    String.split_on_char '\n' out
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match String.index_opt l '|' with
           | Some i -> String.trim (String.sub l 0 i)
           | None -> Alcotest.failf "unexpected list row %S" l)
  in
  Alcotest.(check (list string)) "listed names" (benchmark_names ()) listed;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " resolves") true
        (Benchmarks.find name <> None))
    listed

let test_unknown_benchmark_hint () =
  let code, _, err = run !pdw [ "run"; "nosuch" ] in
  Alcotest.(check int) "exit" 1 code;
  List.iter
    (fun name ->
      Alcotest.(check bool) ("hint names " ^ name) true (contains err name))
    (benchmark_names ())

let test_bench_usage_names_every_job () =
  let code, out, _ = run !bench [ "nosuch" ] in
  Alcotest.(check int) "exit" 1 code;
  List.iter
    (fun job ->
      Alcotest.(check bool) ("usage names " ^ job) true
        (contains out ("|" ^ job ^ "|") || contains out ("|" ^ job ^ "]")))
    [ "table2"; "fig4"; "fig5"; "motivating"; "ablate"; "archcompare";
      "ilppaths"; "scale"; "sensitivity"; "binding"; "batch"; "ports";
      "speed"; "storage"; "perf"; "serve"; "fleet" ]

(* [bench compare]'s router-work budget: a single-domain snapshot may
   not run more than 1.1x the baseline's covering searches; with any
   other domain count the counts vary run to run and the gate stands
   aside. *)
let test_compare_router_budget () =
  let snapshot ~domains ~searches =
    let path = Filename.temp_file "bench_solver" ".json" in
    let entry = {|{"wall_ms": 1, "n_wash": 1, "l_wash_mm": 1, "t_assay_s": 1}|} in
    Out_channel.with_open_text path (fun oc ->
        Printf.fprintf oc
          {|{"schema": "pathdriver-wash/bench-solver/v4", "domains": %d,
  "benchmarks": [], "optimize_wall_ms": 1,
  "exact_ilp": {"warm_start": %s, "cold_start": %s},
  "counters": {"synth.router.covering_searches": %d}}|}
          domains entry entry searches);
    path
  in
  let base = snapshot ~domains:1 ~searches:100 in
  List.iter
    (fun (label, domains, searches, want) ->
      let next = snapshot ~domains ~searches in
      let code, out, _ = run !bench [ "compare"; base; next ] in
      Sys.remove next;
      Alcotest.(check int) label want code;
      Alcotest.(check bool) (label ^ ": names the budget") (want = 1)
        (contains out "FAIL router covering_searches"))
    [
      ("within budget", 1, 110, 0);
      ("over budget", 1, 111, 1);
      ("two domains, skipped", 2, 500, 0);
    ];
  Sys.remove base

let () =
  pdw := Sys.argv.(1);
  bench := Sys.argv.(2);
  Alcotest.run ~argv:[| Sys.argv.(0) |] "cli"
    [
      ( "pdw",
        [
          Alcotest.test_case "run --json is Engine.plan" `Quick
            test_run_json_is_engine_plan;
          Alcotest.test_case "list names every benchmark" `Quick
            test_list_names_every_benchmark;
          Alcotest.test_case "unknown benchmark hint" `Quick
            test_unknown_benchmark_hint;
        ] );
      ( "bench",
        [
          Alcotest.test_case "usage names every job" `Quick
            test_bench_usage_names_every_job;
          Alcotest.test_case "compare router-work budget" `Quick
            test_compare_router_budget;
        ] );
    ]
