(* The benchmark's command line:

     main.exe --workload W --seed N --seconds S --trace 0|1 [--pdw PATH]

   prints a human-readable block and, as its last line, the JSON result.
   [run.sh] builds the program from source and supplies [--pdw]. *)

let workloads = [ "plan-batch"; "exact-ilp"; "serve-hits"; "serve-fill" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let pdw = ref None in
  let spec =
    [
      ("--workload", Arg.Symbol (workloads, ( := ) workload), " workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 1 reports the per-layer metrics instead");
      ("--pdw", Arg.String (fun p -> pdw := Some p), "PATH the pdw executable (served workloads)");
    ]
  in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench";
  if !workload = "" || (!trace <> 0 && !trace <> 1) || !seconds <= 0.0 then begin
    prerr_endline "perfbench: give --workload, --trace 0|1 and positive --seconds";
    exit 2
  end;
  let opts =
    {
      Perfbench.Common.workload = !workload;
      seed = !seed;
      seconds = !seconds;
      traced = !trace = 1;
      size = Perfbench.Inputs.Full;
      pdw = !pdw;
      dir = ".perfbench";
    }
  in
  (* A run must end within 180 s; past this budget it stops, tearing
     down the daemon on the way out, and prints no result. *)
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> failwith "run exceeded its time budget"));
  ignore (Unix.alarm 170);
  match Perfbench.Run.run opts with
  | report -> Perfbench.Report.print report ~traced:opts.traced
  | exception e ->
    Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
    exit 1
