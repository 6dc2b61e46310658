(* serve-hits and serve-fill: a separate [pdw serve] daemon driven by
   the verifying load generator.  Every reply is byte-checked against a
   local [Engine.plan] of its spec, and every spec also goes through the
   check phase, so a served plan that violates the schedule or fails
   validation counts as failed like an offline one. *)

module Engine = Pdw_service.Engine
module Protocol = Pdw_service.Protocol
module Json = Pdw_obs.Json
module Clock = Pdw_obs.Clock
module Trace = Pdw_obs.Trace

(* serve-hits: phase 1 is an open loop at a rate the daemon keeps up
   with even when the host is contended (the closed loop then fell from
   ~22,000 to ~8,000 requests/s, and at 5000 requests/s the open loop's
   median jumped tenfold in 2 of 10 runs); phase 2 saturates with two
   connections of [hits_depth] requests in flight each. *)
let hits_rate = 2000.0
let hits_conns = 2
let hits_depth = 8

(* serve-fill: phase 1, [fill_open_share] of the seconds, is an open
   loop at about a third of the single worker's planning capacity for
   these assays, so the queue stays short and the host's speed swings
   are not amplified by queueing; it gives the latency.  Phase 2
   sends [fill_closed_rate] requests per second of the rest, about what
   the worker planned per second on the baseline host, as a closed loop
   of [fill_depth] requests in flight on the one connection, which
   keeps the worker busy; it gives the throughput.  Both phases send a
   fixed number of distinct assays, so a seed always plans the same
   inputs and the counts and plan quality repeat exactly. *)
let fill_rate = 50.0
let fill_open_share = 0.7
let fill_closed_rate = 140.0
let fill_depth = 4
let fill_warmup = 16

type reply = { idx : int; due : float; sent : float; at : float; verdict : Verify.verdict }

let expected_of (input : Inputs.input) =
  match Engine.plan input.spec with
  | r -> r
  | exception e -> Error ("raise: " ^ Check.first_line (Printexc.to_string e))

let classify expected bytes =
  match expected with
  | Ok e -> Verify.check ~expected:e bytes
  | Error _ -> (
    (* The local plan failed: a plan reply is wrong, a refusal agrees. *)
    match Verify.status_of bytes with "ok" -> Verify.Mismatch | s -> Verify.Refused s)

(* Stats counters the run reads before and after the measured phase. *)
type stats = { hits : int; misses : int; evictions : int; writes : int; shed : int; json : Json.t }

let rec lookup j = function
  | [] -> Some j
  | k :: rest -> Option.bind (Json.member k j) (fun v -> lookup v rest)

let read_stats conn =
  let reply = Loadgen.request conn (Json.to_string (Protocol.request_to_json Protocol.Stats)) in
  let j =
    match Option.bind (Result.to_option (Json.parse reply)) (Json.member "stats") with
    | Some j -> j
    | None -> failwith ("stats reply: " ^ reply)
  in
  let int path = Option.value (Option.bind (lookup j path) Json.to_int) ~default:0 in
  {
    hits = int [ "cache"; "hits" ];
    misses = int [ "cache"; "misses" ];
    evictions = int [ "cache"; "evictions" ];
    writes = int [ "cache"; "store"; "writes" ];
    shed = int [ "queue"; "shed" ];
    json = j;
  }

let stat_float (s : stats) path = Option.value (Option.bind (lookup s.json path) Json.to_float) ~default:nan

let server_layers ~(before : stats) ~(after : stats) =
  let d f = float_of_int (f after - f before) in
  let lookups = d (fun s -> s.hits) +. d (fun s -> s.misses) in
  [
    ("server.queue_wait_ms_p99", stat_float after [ "queue_wait_ms"; "p99" ]);
    ("server.service_ms_p50", stat_float after [ "service_ms"; "p50" ]);
    ("plan_cache.hit_ratio", if lookups = 0.0 then 0.0 else d (fun s -> s.hits) /. lookups);
    ("plan_cache.evictions", d (fun s -> s.evictions));
    ("plan_store.writes", d (fun s -> s.writes));
    ("admission.shed", d (fun s -> s.shed));
  ]

(* Served requests against the check phase: a request fails when its
   reply was refused or wrong, or when its spec's plan failed a check. *)
type tally = {
  attempted : int;
  failed : int;
  mismatches : int;
  latency : Samples.t;
  wall : Samples.t;  (** server-side [wall_ms] of each verified reply *)
  gap : Samples.t;  (** client latency from send minus [wall_ms] *)
  completed : int;
  refusals : string list;
}

let tally ~from_due ~(verdicts : Check.verdict array) ~(inputs : Inputs.input array) replies =
  let latency = Samples.create () and wall = Samples.create () and gap = Samples.create () in
  let failed = ref 0 and mismatches = ref 0 and completed = ref 0 and refusals = ref [] in
  List.iter
    (fun r ->
      match r.verdict with
      | Verify.Match { wall_ms; _ } when verdicts.(r.idx).failure = None ->
        incr completed;
        Samples.add latency ((r.at -. if from_due then r.due else r.sent) *. 1000.0);
        Samples.add wall wall_ms;
        Samples.add gap (((r.at -. r.sent) *. 1000.0) -. wall_ms)
      | Verify.Match _ -> incr failed
      | Verify.Mismatch ->
        incr failed;
        incr mismatches;
        refusals := Printf.sprintf "%s: reply bytes differ from Engine.plan" inputs.(r.idx).label :: !refusals
      | Verify.Refused s ->
        incr failed;
        refusals := Printf.sprintf "%s: %s reply" inputs.(r.idx).label s :: !refusals)
    replies;
  {
    attempted = List.length replies;
    failed = !failed;
    mismatches = !mismatches;
    latency;
    wall;
    gap;
    completed = !completed;
    refusals = List.sort_uniq compare !refusals;
  }

(* The check phase of a served workload: the pipeline must agree with
   [Engine.plan], byte for byte, on every spec. *)
let disagreements expected (verdicts : Check.verdict array) =
  let n = ref 0 in
  Array.iteri
    (fun i (v : Check.verdict) ->
      match expected.(i), v.bytes with
      | Ok e, Some b when String.equal e b -> ()
      | Error _, None -> ()
      | _ -> incr n)
    verdicts;
  !n


let base_report ?open_loop (opts : Common.opts) ~setups ~verdicts ~(t : tally) ~plans_per_s ~peak_rss_mb ~lag
    ~mismatches ~layers ~sum_check =
  {
    Report.workload = opts.workload;
    seed = opts.seed;
    setups;
    plans_per_s;
    latency = t.latency;
    open_loop;
    attempted = t.attempted;
    failed = t.failed;
    error_rate = (if t.attempted = 0 then nan else float_of_int t.failed /. float_of_int t.attempted);
    summary = Check.summarize verdicts;
    peak_rss_mb;
    lag_ms_p99 = Samples.quantile lag 0.99;
    mismatches;
    sum_check;
    layers;
    failures = Common.failures verdicts @ t.refusals;
    worse = Common.worse verdicts;
  }

let pdw_exe (opts : Common.opts) =
  match opts.pdw with Some p -> p | None -> failwith "the served workloads need --pdw PATH"

(* Per-layer figures of a served run.  The planner runs in the daemon,
   untraced, so the planner layers come from the check phase, which
   plans the same specs locally; [measured] is the traced phase's
   tally. *)
let served_layers ~check_events ~ctally ~inputs ~verdicts ~before ~after ~(measured : tally) ~lag
    ~overhead =
  let checked_plan = Layers.aggregate ~roots:Layers.plan_roots check_events in
  let checked = Layers.aggregate ~roots:Layers.check_roots check_events in
  Common.planner_layers ~plan_spans:checked_plan ~spanned_plans:ctally.Check.plans ~check_spans:checked
    ~tally:ctally
  @ Micro.service_calls (Common.spec_outcomes inputs verdicts)
  @ server_layers ~before ~after
  @ [
      ("server.wall_ms_p50", Samples.quantile measured.wall 0.5);
      ("client.gap_ms_p50", Samples.quantile measured.gap 0.5);
      ("loadgen.lag_ms_p99", Samples.quantile lag 0.99);
      ("trace.overhead_ratio", overhead);
    ]

(* --- serve-hits ----------------------------------------------------- *)

type hits = {
  daemon : Daemon.t;
  conns : Loadgen.conn list;
  inputs : Inputs.input array;
  bytes : string array;
  expected : (string, string) result array;
}

let teardown_conns conns daemon =
  List.iter Loadgen.close conns;
  Daemon.stop daemon

(* Set-up: spawn the daemon and plan the working set twice at once:
   the daemon plans every spec into its cache while a second domain
   computes the expected outcomes locally. *)
let hits_setup (opts : Common.opts) () =
  let inputs = Array.of_list (Inputs.serve_hits ~size:opts.size ~seed:opts.seed) in
  let bytes = Array.map (fun (i : Inputs.input) -> Inputs.request_bytes i.spec) inputs in
  let daemon = Daemon.spawn ~pdw:(pdw_exe opts) ~dir:opts.dir ~name:(Printf.sprintf "hits-%d" (Unix.getpid ())) in
  match
    let conns = List.init hits_conns (fun _ -> Loadgen.connect daemon.socket) in
    let local = Domain.spawn (fun () -> Array.map expected_of inputs) in
    let order = Array.init (Array.length inputs) Fun.id in
    ignore
      (Loadgen.open_loop (List.hd conns) ~rate:Float.max_float ~order ~bytes ~lag:(Samples.create ())
         (fun _ ~at:_ _ -> ()));
    { daemon; conns; inputs; bytes; expected = Domain.join local }
  with
  | st -> st
  | exception e ->
    Daemon.kill daemon;
    raise e

let hits_measure st ~seconds ~lag =
  let c0 = List.hd st.conns in
  let n = Array.length st.inputs in
  let replies = ref [] in
  let on_reply (p : Loadgen.pending) ~at bytes =
    replies := { idx = p.idx; due = p.due; sent = p.sent; at; verdict = classify st.expected.(p.idx) bytes } :: !replies
  in
  let requests = max 1 (int_of_float (hits_rate *. seconds /. 2.0)) in
  let order = Array.init requests (fun i -> i mod n) in
  ignore (Loadgen.open_loop c0 ~rate:hits_rate ~order ~bytes:st.bytes ~lag on_reply);
  let open_replies = !replies in
  replies := [];
  let counter = ref 0 in
  let next () = let k = !counter mod n in incr counter; Some k in
  let wall =
    Loadgen.closed_loop st.conns ~depth:hits_depth ~seconds:(seconds /. 2.0) ~next ~bytes:st.bytes on_reply
  in
  (open_replies, !replies, wall)

(* A synchronous request per spec, one span tree each: the traced
   budget whose self times must add up to the client latency. *)
let hits_budget st =
  let c0 = List.hd st.conns in
  let total = ref 0.0 and n = 200 in
  for i = 0 to n - 1 do
    let k = i mod Array.length st.inputs in
    let t0 = Clock.now () in
    Trace.with_span ~cat:"bench" "client.request" (fun () ->
        ignore (Loadgen.send c0 ~idx:k ~due:t0 st.bytes.(k));
        Loadgen.receive c0 (fun _ ~at:_ b -> ignore (classify st.expected.(k) b)));
    total := !total +. ((Clock.now () -. t0) *. 1000.0)
  done;
  !total /. float_of_int n

let run_hits (opts : Common.opts) =
  let st, setups =
    Common.repeat_setup ~setup:(hits_setup opts) ~teardown:(fun st -> teardown_conns st.conns st.daemon)
  in
  let lag = Samples.create () in
  let pps (_, closed, wall) ~verdicts =
    let t = tally ~from_due:false ~verdicts ~inputs:st.inputs closed in
    float_of_int t.completed /. wall
  in
  let main, traced_half, before, after, budget, peak_rss_mb =
    Fun.protect ~finally:(fun () -> teardown_conns st.conns st.daemon) @@ fun () ->
    let c0 = List.hd st.conns in
    let before = read_stats c0 in
    let main, traced_half =
      if not opts.traced then (hits_measure st ~seconds:opts.seconds ~lag, None)
      else begin
        let untraced = hits_measure st ~seconds:(opts.seconds /. 2.0) ~lag:(Samples.create ()) in
        Common.start_tracing ();
        let traced = hits_measure st ~seconds:(opts.seconds /. 2.0) ~lag in
        (untraced, Some traced)
      end
    in
    let after = read_stats c0 in
    let budget = if opts.traced then Some (hits_budget st) else None in
    (main, traced_half, before, after, budget, Daemon.peak_rss_mb st.daemon.pid)
  in
  let n_timed = Trace.num_events () in
  let verdicts, ctally = Check.run st.inputs in
  let disagree = disagreements st.expected verdicts in
  let open_r, closed_r, _ = main in
  let t_open = tally ~from_due:true ~verdicts ~inputs:st.inputs open_r in
  let t_closed = tally ~from_due:false ~verdicts ~inputs:st.inputs closed_r in
  (* The gated latency is the closed loop's: on a contended 2-core host
     the open loop's median measured how long the idle daemon and client
     took to be scheduled (0.29 to 1.37 ms across ten seeds at 2000
     requests/s), so it is reported beside it instead. *)
  let t =
    { t_closed with
      attempted = t_open.attempted + t_closed.attempted;
      failed = t_open.failed + t_closed.failed;
      refusals = List.sort_uniq compare (t_open.refusals @ t_closed.refusals) }
  in
  let layers, sum_check =
    match traced_half, budget with
    | Some th, Some lat ->
      let timed_events, check_events = Common.split_at n_timed (Trace.events ()) in
      Common.stop_tracing ();
      Common.dump_spans opts;
      let requests = Layers.aggregate ~roots:Layers.request_roots timed_events in
      let _, th_closed, _ = th in
      let th_t = tally ~from_due:false ~verdicts ~inputs:st.inputs th_closed in
      ( served_layers ~check_events ~ctally ~inputs:st.inputs ~verdicts ~before ~after ~measured:th_t ~lag
          ~overhead:(pps main ~verdicts /. pps th ~verdicts),
        Some (Layers.self_sum requests ~plans:(Layers.count requests "client.request"), lat) )
    | _ -> ([], None)
  in
  base_report ~open_loop:t_open.latency opts ~setups ~verdicts ~t ~plans_per_s:(pps main ~verdicts) ~peak_rss_mb ~lag
    ~mismatches:(t_open.mismatches + t_closed.mismatches + disagree) ~layers ~sum_check

(* --- serve-fill ----------------------------------------------------- *)

type fill = {
  f_daemon : Daemon.t;
  conn : Loadgen.conn;
  f_inputs : Inputs.input array;  (** one distinct assay per measured request *)
  f_bytes : string array;
  mutable cursor : int;
}

let fill_open_requests seconds = max 1 (int_of_float (Float.round (fill_rate *. seconds *. fill_open_share)))
let fill_closed_requests seconds =
  max 1 (int_of_float (Float.round (fill_closed_rate *. seconds *. (1.0 -. fill_open_share))))

(* Set-up: spawn the daemon and plan a few assays from a disjoint
   stream, so worker start-up and first-plan costs stay out of the
   measurement. *)
let fill_setup (opts : Common.opts) () =
  let n = fill_open_requests opts.seconds + fill_closed_requests opts.seconds in
  let inputs = Array.of_list (Inputs.serve_fill ~seed:opts.seed n) in
  let bytes = Array.map (fun (i : Inputs.input) -> Inputs.request_bytes i.spec) inputs in
  let warmup =
    Inputs.serve_fill_warmup ~seed:opts.seed (match opts.size with Inputs.Full -> fill_warmup | Tiny -> 2)
  in
  let daemon = Daemon.spawn ~pdw:(pdw_exe opts) ~dir:opts.dir ~name:(Printf.sprintf "fill-%d" (Unix.getpid ())) in
  match
    let conn = Loadgen.connect daemon.socket in
    List.iter (fun (i : Inputs.input) -> ignore (Loadgen.request conn (Inputs.request_bytes i.spec))) warmup;
    { f_daemon = daemon; conn; f_inputs = inputs; f_bytes = bytes; cursor = 0 }
  with
  | st -> st
  | exception e ->
    Daemon.kill daemon;
    raise e

type fill_phases = {
  open_raw : (Loadgen.pending * float * string) list;
  closed_raw : (Loadgen.pending * float * string) list;
  closed_wall : float;
}

(* Both phases over [seconds], each request a fresh assay. *)
let fill_measure st ~seconds ~lag =
  let take m =
    let m = min (Array.length st.f_inputs - st.cursor) m in
    let first = st.cursor in
    st.cursor <- st.cursor + m;
    (first, m)
  in
  let collect raw p ~at bytes = raw := (p, at, bytes) :: !raw in
  let open_raw = ref [] and closed_raw = ref [] in
  let first, m = take (fill_open_requests seconds) in
  ignore
    (Loadgen.open_loop st.conn ~rate:fill_rate ~order:(Array.init m (fun i -> first + i)) ~bytes:st.f_bytes ~lag
       (collect open_raw));
  let first, m = take (fill_closed_requests seconds) in
  let sent = ref 0 in
  let next () = if !sent < m then (incr sent; Some (first + !sent - 1)) else None in
  let closed_wall =
    Loadgen.closed_loop [ st.conn ] ~depth:fill_depth ~seconds:Float.infinity ~next ~bytes:st.f_bytes
      (collect closed_raw)
  in
  { open_raw = List.rev !open_raw; closed_raw = List.rev !closed_raw; closed_wall }

let run_fill (opts : Common.opts) =
  let st, setups =
    Common.repeat_setup ~setup:(fill_setup opts) ~teardown:(fun st -> teardown_conns [ st.conn ] st.f_daemon)
  in
  let lag = Samples.create () in
  let phases, before, after, peak_rss_mb =
    Fun.protect ~finally:(fun () -> teardown_conns [ st.conn ] st.f_daemon) @@ fun () ->
    let before = read_stats st.conn in
    let phases =
      if not opts.traced then [ fill_measure st ~seconds:opts.seconds ~lag ]
      else begin
        let untraced = fill_measure st ~seconds:(opts.seconds /. 2.0) ~lag:(Samples.create ()) in
        Common.start_tracing ();
        [ untraced; fill_measure st ~seconds:(opts.seconds /. 2.0) ~lag ]
      end
    in
    let after = read_stats st.conn in
    (phases, before, after, Daemon.peak_rss_mb st.f_daemon.pid)
  in
  let n_timed = Trace.num_events () in
  let inputs = Array.sub st.f_inputs 0 st.cursor in
  (* Untraced, the expected outcomes are computed on a second domain
     beside the check pass; traced, in sequence, so the check pass's
     counters see only its own plans. *)
  let expected, (verdicts, ctally) =
    if opts.traced then
      let expected = Array.map expected_of inputs in
      (expected, Check.run inputs)
    else begin
      let local = Domain.spawn (fun () -> Array.map expected_of inputs) in
      let checked = Check.run inputs in
      (Domain.join local, checked)
    end
  in
  let disagree = disagreements expected verdicts in
  let replies_of raw =
    List.map
      (fun ((p : Loadgen.pending), at, bytes) ->
        { idx = p.idx; due = p.due; sent = p.sent; at; verdict = classify expected.(p.idx) bytes })
      raw
  in
  (* Latency comes from the open loop, throughput from the closed one. *)
  let tally_of ~from_due raw = tally ~from_due ~verdicts ~inputs (replies_of raw) in
  let pps ph = float_of_int (tally_of ~from_due:false ph.closed_raw).completed /. ph.closed_wall in
  let all =
    let o = tally_of ~from_due:true (List.concat_map (fun ph -> ph.open_raw) phases) in
    let c = tally_of ~from_due:false (List.concat_map (fun ph -> ph.closed_raw) phases) in
    { o with
      attempted = o.attempted + c.attempted;
      failed = o.failed + c.failed;
      mismatches = o.mismatches + c.mismatches;
      refusals = List.sort_uniq compare (o.refusals @ c.refusals) }
  in
  let layers, sum_check =
    match phases with
    | [ untraced; traced ] ->
      let _, check_events = Common.split_at n_timed (Trace.events ()) in
      Common.stop_tracing ();
      Common.dump_spans opts;
      ( served_layers ~check_events ~ctally ~inputs ~verdicts ~before ~after ~measured:(tally_of ~from_due:true traced.open_raw) ~lag
          ~overhead:(pps untraced /. pps traced),
        None )
    | _ -> ([], None)
  in
  let main = List.hd phases in
  base_report opts ~setups ~verdicts ~t:all ~plans_per_s:(pps main) ~peak_rss_mb ~lag
    ~mismatches:(all.mismatches + disagree) ~layers ~sum_check
