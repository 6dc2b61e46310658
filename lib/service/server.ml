module Json = Pdw_obs.Json
module Counters = Pdw_obs.Counters
module Trace = Pdw_obs.Trace
module Histogram = Pdw_obs.Histogram
module Clock = Pdw_obs.Clock
module Reqtrace = Pdw_obs.Reqtrace
module Expo = Pdw_obs.Expo
module Domain_pool = Pdw_pool.Domain_pool

let c_requests = Counters.counter "service.requests"
let c_coalesced = Counters.counter "service.coalesced"
let c_timeouts = Counters.counter "service.timeouts"
let c_retries = Counters.counter "service.retries"

type config = {
  socket_path : string;
  workers : int;
  queue_limit : int;
  cache_capacity : int;
  job_timeout_ms : int;
  max_retries : int;
  store_dir : string option;
  store_max_bytes : int;
}

let default_config ~socket_path =
  {
    socket_path;
    workers = 2;
    queue_limit = 64;
    cache_capacity = 256;
    job_timeout_ms = 60_000;
    max_retries = 1;
    store_dir = None;
    store_max_bytes = 256 * 1024 * 1024;
  }

(* One planning job, shared by every coalesced waiter.  Waiters poll
   [state] under [lock] (OCaml's Condition has no timed wait, and the
   per-request timeout must fire even if the worker never finishes). *)
type job_state = Running | Finished of (string, string) result

type job = {
  digest : string;
  enqueued_at : float;  (* [Clock.now_ms] at admission *)
  mutable state : job_state;
  (* Written by the worker under [lock] before [state] flips to
     [Finished], so any waiter that observes the result also sees the
     job's own timing breakdown. *)
  mutable queue_ms : float;  (* admission to worker pickup *)
  mutable stage_ms : (string * float) list;  (* Engine.plan_timed stages *)
  lock : Mutex.t;
}

type counts = {
  mutable submitted : int;
  mutable completed : int;
  mutable coalesced : int;
  mutable timeouts : int;
  mutable errors : int;
  mutable burns : int;
}

(* One shard per worker domain.  A request's digest picks its shard;
   everything the request mutates — the coalescing table, the admission
   slots, the tallies, the latency histograms — belongs to that shard
   alone, so two requests on different shards never share a lock, and
   the planner job lands on the shard's own worker queue.  The
   histograms are lock-free even within a shard, and merge exactly
   across shards for the aggregate stats/metrics views. *)
type shard = {
  sid : int;
  jobs : (string, job) Hashtbl.t;  (* in-flight jobs, for coalescing *)
  jobs_lock : Mutex.t;
  adm : Admission.t;  (* bounded queued+running slots for this shard *)
  counts : counts;
  h_latency : Histogram.t;  (* submit wall time, accept to reply (ms) *)
  h_queue : Histogram.t;  (* admission to worker pickup (ms) *)
  h_service : Histogram.t;  (* worker compute time per job (ms) *)
  counts_lock : Mutex.t;
}

type t = {
  cfg : config;
  cache : Plan_cache.t;
  pool : Domain_pool.t;
  shards : shard array;
  shard_limit : int;  (* per-shard admission bound *)
  burn_rr : int Atomic.t;  (* burns carry no digest; spread them *)
  req_ids : int Atomic.t;  (* request ids, minted at accept *)
  ring : Reqtrace.ring;  (* recent finished submits *)
  listener : Listener.t;
}

let config t = t.cfg

(* Monotonic milliseconds: every duration below is a difference of two
   of these, immune to NTP steps (see [Pdw_obs.Clock]). *)
let now_ms = Clock.now_ms

let shard_for t digest =
  t.shards.(Hashtbl.hash digest mod Array.length t.shards)

(* --- metrics -------------------------------------------------------- *)

let with_counts sh f =
  Mutex.lock sh.counts_lock;
  f sh.counts;
  Mutex.unlock sh.counts_lock

(* A per-shard snapshot, taken under that shard's locks only.  The
   aggregate the stats endpoint reports is the field-wise sum of these
   snapshots — internally consistent by construction (totals equal the
   sum of the shard rows they are printed next to). *)
type shard_snapshot = {
  snap_counts : counts;  (* a private copy *)
  snap_in_flight : int;
  snap_depth_peak : int;
  snap_shed : int;
}

let snapshot_shard sh =
  Mutex.lock sh.counts_lock;
  let c = sh.counts in
  let snap_counts =
    {
      submitted = c.submitted;
      completed = c.completed;
      coalesced = c.coalesced;
      timeouts = c.timeouts;
      errors = c.errors;
      burns = c.burns;
    }
  in
  Mutex.unlock sh.counts_lock;
  {
    snap_counts;
    snap_in_flight = Admission.in_flight sh.adm;
    snap_depth_peak = Admission.peak sh.adm;
    snap_shed = Admission.shed_count sh.adm;
  }

(* The merged view of one per-shard histogram family: exact bucket-wise
   sum, order-independent. *)
let merged_hist t f =
  Array.fold_left
    (fun acc sh -> Histogram.merge acc (f sh))
    (Histogram.like (f t.shards.(0)))
    t.shards

type telemetry = {
  latency : Histogram.t;
  queue_wait : Histogram.t;
  service : Histogram.t;
}

let telemetry t =
  {
    latency = merged_hist t (fun sh -> sh.h_latency);
    queue_wait = merged_hist t (fun sh -> sh.h_queue);
    service = merged_hist t (fun sh -> sh.h_service);
  }

(* Peak queued+running depth per shard, for the serve bench's scaling
   report. *)
let shard_depth_peaks t =
  Array.to_list (Array.map (fun sh -> Admission.peak sh.adm) t.shards)

(* Shed replies report the *global* picture — total in-flight jobs and
   the effective limit across every shard — so their client-visible
   semantics match the configured [queue_limit], not the internal
   per-shard split. *)
let total_in_flight t =
  Array.fold_left (fun acc sh -> acc + Admission.in_flight sh.adm) 0 t.shards

let global_limit t = t.shard_limit * Array.length t.shards

let stats_json t =
  let snaps = Array.map snapshot_shard t.shards in
  let cache_shards = Plan_cache.shard_stats t.cache in
  let cache = Plan_cache.stats t.cache in
  let pend = Domain_pool.pending_per_worker t.pool in
  let qpeaks = Domain_pool.peak_per_worker t.pool in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 snaps in
  let in_flight = sum (fun s -> s.snap_in_flight) in
  let shed = sum (fun s -> s.snap_shed) in
  let depth_peak =
    Array.fold_left (fun acc s -> max acc s.snap_depth_peak) 0 snaps
  in
  let tel = telemetry t in
  let hist_summary h =
    Json.Obj
      [
        ("samples", Json.Int (Histogram.count h));
        ("mean", Json.Float (Histogram.mean h));
        ("p50", Json.Float (Histogram.quantile h 0.50));
        ("p95", Json.Float (Histogram.quantile h 0.95));
        ("p99", Json.Float (Histogram.quantile h 0.99));
      ]
  in
  let cache_shard_json (s : Plan_cache.stats) =
    Json.Obj
      [
        ("hits", Json.Int s.hits);
        ("misses", Json.Int s.misses);
        ("evictions", Json.Int s.evictions);
        ("promotions", Json.Int s.promotions);
        ("demotions", Json.Int s.demotions);
        ("length", Json.Int s.length);
      ]
  in
  let shard_json i s =
    Json.Obj
      [
        ("id", Json.Int i);
        ("in_flight", Json.Int s.snap_in_flight);
        ("depth_peak", Json.Int s.snap_depth_peak);
        ("shed", Json.Int s.snap_shed);
        ("pending", Json.Int (if i < Array.length pend then pend.(i) else 0));
        ( "queue_peak",
          Json.Int (if i < Array.length qpeaks then qpeaks.(i) else 0) );
        ("submitted", Json.Int s.snap_counts.submitted);
        ("completed", Json.Int s.snap_counts.completed);
        ("coalesced", Json.Int s.snap_counts.coalesced);
        ("timeouts", Json.Int s.snap_counts.timeouts);
        ("errors", Json.Int s.snap_counts.errors);
        ("burns", Json.Int s.snap_counts.burns);
        ( "cache",
          if i < Array.length cache_shards then cache_shard_json cache_shards.(i)
          else
            cache_shard_json
              {
                hits = 0;
                misses = 0;
                evictions = 0;
                promotions = 0;
                demotions = 0;
                length = 0;
                capacity = 0;
              } );
      ]
  in
  Json.Obj
    [
      ("version", Json.Str Version.version);
      ("workers", Json.Int t.cfg.workers);
      ("uptime_s", Json.Float (Listener.uptime_s t.listener));
      ( "queue",
        Json.Obj
          [
            ("in_flight", Json.Int in_flight);
            ("pending", Json.Int (Array.fold_left ( + ) 0 pend));
            ("limit", Json.Int (t.shard_limit * Array.length t.shards));
            ("shard_limit", Json.Int t.shard_limit);
            ("depth_peak", Json.Int depth_peak);
            ("shed", Json.Int shed);
          ] );
      ( "cache",
        Json.Obj
          ([
             ("hits", Json.Int cache.Plan_cache.hits);
             ("misses", Json.Int cache.misses);
             ("evictions", Json.Int cache.evictions);
             ("promotions", Json.Int cache.promotions);
             ("demotions", Json.Int cache.demotions);
             ("length", Json.Int cache.length);
             ("capacity", Json.Int cache.capacity);
             ("hit_rate", Json.Float (Plan_cache.hit_rate cache));
           ]
          @
          match Plan_cache.store_stats t.cache with
          | None -> []
          | Some (st : Plan_store.stats) ->
            [
              ( "store",
                Json.Obj
                  [
                    ("hits", Json.Int st.hits);
                    ("misses", Json.Int st.misses);
                    ("writes", Json.Int st.writes);
                    ("evictions", Json.Int st.evictions);
                    ("corrupt", Json.Int st.corrupt);
                    ("entries", Json.Int st.entries);
                    ("bytes", Json.Int st.bytes);
                    ("max_bytes", Json.Int st.max_bytes);
                  ] );
            ]) );
      ( "requests",
        Json.Obj
          [
            ("submitted", Json.Int (sum (fun s -> s.snap_counts.submitted)));
            ("completed", Json.Int (sum (fun s -> s.snap_counts.completed)));
            ("coalesced", Json.Int (sum (fun s -> s.snap_counts.coalesced)));
            ("timeouts", Json.Int (sum (fun s -> s.snap_counts.timeouts)));
            ("errors", Json.Int (sum (fun s -> s.snap_counts.errors)));
            ("burns", Json.Int (sum (fun s -> s.snap_counts.burns)));
          ] );
      ("latency_ms", hist_summary tel.latency);
      ("queue_wait_ms", hist_summary tel.queue_wait);
      ("service_ms", hist_summary tel.service);
      ( "shards",
        Json.Arr (Array.to_list (Array.mapi shard_json snaps)) );
    ]

(* Prometheus text exposition of the full telemetry surface.  Merged
   families ([pdw_*]) are exact bucket/field sums of the per-shard
   families ([pdw_shard_*{shard=…}]) — scrapers and the CI smoke test
   can assert the shard rows sum to the totals.  Worker families
   ([pdw_worker_*{worker=…}]) carry each domain's queue and GC story;
   allocation words are cumulative, so their rate() is allocation
   throughput. *)
let metrics_text t =
  let e = Expo.create () in
  let snaps = Array.map snapshot_shard t.shards in
  let fl = float_of_int in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 snaps in
  let shard_label i = ("shard", string_of_int i) in
  Expo.gauge e ~name:"pdw_uptime_seconds"
    ~help:"Seconds since the server started"
    [ ([], Listener.uptime_s t.listener) ];
  Expo.gauge e ~name:"pdw_workers"
    ~help:"Configured worker domains (= shards)"
    [ ([], fl t.cfg.workers) ];
  (* Request tallies: one merged counter per kind, plus the per-shard
     breakdown in a single labelled family. *)
  let kinds =
    [
      ("submitted", fun (c : counts) -> c.submitted);
      ("completed", fun c -> c.completed);
      ("coalesced", fun c -> c.coalesced);
      ("timeouts", fun c -> c.timeouts);
      ("errors", fun c -> c.errors);
      ("burns", fun c -> c.burns);
    ]
  in
  List.iter
    (fun (kind, get) ->
      Expo.counter e
        ~name:(Printf.sprintf "pdw_requests_%s_total" kind)
        ~help:(Printf.sprintf "Requests %s, summed over shards" kind)
        [ ([], fl (sum (fun s -> get s.snap_counts))) ])
    kinds;
  Expo.counter e ~name:"pdw_requests_shed_total"
    ~help:"Requests refused by admission control, summed over shards"
    [ ([], fl (sum (fun s -> s.snap_shed))) ];
  Expo.counter e ~name:"pdw_shard_requests_total"
    ~help:"Per-shard request tallies by kind"
    (List.concat
       (Array.to_list
          (Array.mapi
             (fun i s ->
               List.map
                 (fun (kind, get) ->
                   ([ shard_label i; ("kind", kind) ], fl (get s.snap_counts)))
                 kinds
               @ [ ([ shard_label i; ("kind", "shed") ], fl s.snap_shed) ])
             snaps)));
  (* Queue and cache state. *)
  Expo.gauge e ~name:"pdw_queue_in_flight"
    ~help:"Jobs admitted and not yet released (queued + running)"
    [ ([], fl (sum (fun s -> s.snap_in_flight))) ];
  Expo.gauge e ~name:"pdw_queue_limit"
    ~help:"Effective global admission limit"
    [ ([], fl (t.shard_limit * Array.length t.shards)) ];
  Expo.gauge e ~name:"pdw_queue_depth_peak"
    ~help:"Deepest any shard's admission window has been"
    [ ([], fl (Array.fold_left (fun a s -> max a s.snap_depth_peak) 0 snaps)) ];
  let cache_shards = Plan_cache.shard_stats t.cache in
  let csum f = Array.fold_left (fun acc s -> acc + f s) 0 cache_shards in
  Expo.counter e ~name:"pdw_cache_hits_total" ~help:"Plan-cache hits"
    [ ([], fl (csum (fun (s : Plan_cache.stats) -> s.hits))) ];
  Expo.counter e ~name:"pdw_cache_misses_total" ~help:"Plan-cache misses"
    [ ([], fl (csum (fun s -> s.misses))) ];
  Expo.counter e ~name:"pdw_cache_evictions_total"
    ~help:"Plans evicted to admit fresher ones"
    [ ([], fl (csum (fun s -> s.evictions))) ];
  Expo.counter e ~name:"pdw_cache_promotions_total"
    ~help:"Store-tier hits copied up into the memory tier"
    [ ([], fl (csum (fun s -> s.promotions))) ];
  Expo.counter e ~name:"pdw_cache_demotions_total"
    ~help:"Plans written through to the persistent store tier"
    [ ([], fl (csum (fun s -> s.demotions))) ];
  Expo.gauge e ~name:"pdw_cache_length" ~help:"Plans currently cached"
    [ ([], fl (csum (fun s -> s.length))) ];
  Expo.gauge e ~name:"pdw_cache_capacity" ~help:"Plan-cache capacity"
    [ ([], fl (csum (fun s -> s.capacity))) ];
  (match Plan_cache.store_stats t.cache with
  | None -> ()
  | Some (st : Plan_store.stats) ->
    Expo.counter e ~name:"pdw_store_hits_total"
      ~help:"Persistent plan-store hits (CRC-verified reads)"
      [ ([], fl st.hits) ];
    Expo.counter e ~name:"pdw_store_misses_total"
      ~help:"Persistent plan-store misses"
      [ ([], fl st.misses) ];
    Expo.counter e ~name:"pdw_store_writes_total"
      ~help:"Plans persisted to the store (atomic tmp+rename)"
      [ ([], fl st.writes) ];
    Expo.counter e ~name:"pdw_store_evictions_total"
      ~help:"Store files unlinked to hold the byte budget"
      [ ([], fl st.evictions) ];
    Expo.counter e ~name:"pdw_store_corrupt_total"
      ~help:"Store files that failed CRC/length checks (deleted)"
      [ ([], fl st.corrupt) ];
    Expo.gauge e ~name:"pdw_store_entries" ~help:"Plans on disk"
      [ ([], fl st.entries) ];
    Expo.gauge e ~name:"pdw_store_bytes" ~help:"Store bytes on disk"
      [ ([], fl st.bytes) ]);
  (* Latency story: merged histograms plus the per-shard request-wall
     family (same bucket boundaries, so the rows sum to the total). *)
  let tel = telemetry t in
  Expo.histogram e ~name:"pdw_request_latency_ms"
    ~help:"Submit wall time, accept to reply (ms), merged over shards"
    tel.latency;
  Expo.histogram e ~name:"pdw_queue_wait_ms"
    ~help:"Admission to worker pickup (ms), merged over shards"
    tel.queue_wait;
  Expo.histogram e ~name:"pdw_service_ms"
    ~help:"Worker compute time per job (ms), merged over shards"
    tel.service;
  Expo.histograms e ~name:"pdw_shard_request_latency_ms"
    ~help:"Per-shard submit wall time (ms)"
    (Array.to_list
       (Array.mapi
          (fun i sh -> ([ shard_label i ], sh.h_latency))
          t.shards));
  (* Worker domains: queue state and the worker's own GC counters. *)
  let ws = Domain_pool.worker_stats t.pool in
  let per_worker get =
    Array.to_list
      (Array.mapi
         (fun i (w : Domain_pool.worker_stats) ->
           ([ ("worker", string_of_int i) ], get w))
         ws)
  in
  Expo.counter e ~name:"pdw_worker_jobs_done_total"
    ~help:"Jobs completed by each worker domain"
    (per_worker (fun w -> fl w.jobs_done));
  Expo.counter e ~name:"pdw_worker_minor_words_total"
    ~help:"Cumulative minor-heap words allocated by each worker domain"
    (per_worker (fun w -> w.minor_words));
  Expo.counter e ~name:"pdw_worker_major_words_total"
    ~help:"Cumulative major-heap words allocated by each worker domain"
    (per_worker (fun w -> w.major_words));
  Expo.gauge e ~name:"pdw_worker_queue_pending"
    ~help:"Jobs waiting in each worker's private queue"
    (per_worker (fun w -> fl w.pending));
  Expo.gauge e ~name:"pdw_worker_queue_peak"
    ~help:"Deepest each worker's queue has been at enqueue time"
    (per_worker (fun w -> fl w.peak));
  Expo.gauge e ~name:"pdw_worker_live"
    ~help:"Whether the worker's lazily-spawned domain exists (0/1)"
    (per_worker (fun w -> if w.live then 1.0 else 0.0));
  Expo.counter e ~name:"pdw_reqtrace_seen_total"
    ~help:"Finished submits noted in the recent-requests ring"
    [ ([], fl (Reqtrace.seen t.ring)) ];
  (* The process-global Pdw_obs.Counters registry, one labelled family
     per kind (planner internals: pivots, cache probes, retries…). *)
  let cells = Counters.all () in
  let row (n, _, v) = ([ ("name", n) ], fl v) in
  (match List.filter (fun (_, k, _) -> k = Counters.Counter) cells with
  | [] -> ()
  | cs ->
    Expo.counter e ~name:"pdw_internal_total"
      ~help:"Process-global Pdw_obs.Counters counters, by name"
      (List.map row cs));
  (match List.filter (fun (_, k, _) -> k = Counters.Gauge) cells with
  | [] -> ()
  | gs ->
    Expo.gauge e ~name:"pdw_internal_gauge"
      ~help:"Process-global Pdw_obs.Counters gauges, by name"
      (List.map row gs));
  Expo.contents e

let recent_requests t = Reqtrace.recent t.ring

(* --- the job machinery ---------------------------------------------- *)

(* Wait for [job] to finish, polling its state until [deadline_ms].
   1 ms granularity: coarse against planner runtimes, and waiters are
   systhreads, so the polls just interleave with real work. *)
let wait_job job ~deadline_ms =
  let rec loop () =
    Mutex.lock job.lock;
    let state = job.state in
    Mutex.unlock job.lock;
    match state with
    | Finished r -> Some r
    | Running ->
      if now_ms () >= deadline_ms then None
      else begin
        Thread.delay 0.001;
        loop ()
      end
  in
  loop ()

let new_job digest =
  {
    digest;
    enqueued_at = now_ms ();
    state = Running;
    queue_ms = 0.0;
    stage_ms = [];
    lock = Mutex.create ();
  }

let finish_job job result =
  Mutex.lock job.lock;
  job.state <- Finished result;
  Mutex.unlock job.lock

(* [Protocol.reply_to_string] splices outcome text verbatim into the
   wire frame, relying on Json_export's byte-identical parse/print
   round-trip.  That invariant is checked here, once per *computed*
   plan — not on every reply — so a violation (engine drift, truncated
   bytes) surfaces as a loud per-request error instead of a corrupt
   frame served from the cache forever after. *)
let validate_outcome outcome =
  match Json.parse outcome with
  | Ok j when String.equal (Json.to_string j) outcome -> Ok outcome
  | Ok _ -> Error "internal: plan outcome is not round-trip-canonical JSON"
  | Error m ->
    Error (Printf.sprintf "internal: plan outcome is not valid JSON: %s" m)

(* The worker side of one submit: plan with bounded retry, publish to
   the cache, wake the waiters, give the shard's admission slot back.
   The worker also owns the job's timing story — how long it waited in
   the queue, how long each engine stage took — written into the job
   before the result is published, so waiters read both together. *)
let run_plan_job t sh job spec ~registered ~cache_write =
  let picked_up = now_ms () in
  let queue_ms = Float.max 0.0 (picked_up -. job.enqueued_at) in
  Histogram.record sh.h_queue queue_ms;
  let rec attempt k =
    match Engine.plan_timed spec with
    | result -> result
    | exception e ->
      if k < t.cfg.max_retries then begin
        Counters.incr c_retries;
        attempt (k + 1)
      end
      else
        ( Error
            (Printf.sprintf "planner failed after %d attempt(s): %s" (k + 1)
               (Printexc.to_string e)),
          [] )
  in
  let result, stages = attempt 0 in
  let result = Result.bind result validate_outcome in
  Histogram.record sh.h_service (now_ms () -. picked_up);
  (match result with
  | Ok outcome when cache_write -> Plan_cache.add t.cache job.digest outcome
  | _ -> ());
  (* Publish before deregistering: a request that finds the job in the
     table just as it finishes reads [Finished] instantly; one that
     misses the table re-checks the cache-filled path on its own. *)
  Mutex.lock job.lock;
  job.queue_ms <- queue_ms;
  job.stage_ms <- stages;
  job.state <- Finished result;
  Mutex.unlock job.lock;
  if registered then begin
    Mutex.lock sh.jobs_lock;
    Hashtbl.remove sh.jobs job.digest;
    Mutex.unlock sh.jobs_lock
  end;
  Admission.release sh.adm;
  with_counts sh (fun c ->
      match result with
      | Ok _ -> c.completed <- c.completed + 1
      | Error _ -> c.errors <- c.errors + 1)

(* Decide, atomically against other submissions on the same shard, what
   this request does: join an in-flight twin, start a fresh job, or
   shed. *)
type admission_outcome =
  | Joined of job
  | Started of job
  | Refused

let admit_submit t sh spec digest ~no_cache =
  Mutex.lock sh.jobs_lock;
  let outcome =
    match
      if no_cache then None else Hashtbl.find_opt sh.jobs digest
    with
    | Some job -> Joined job
    | None ->
      if Admission.try_admit sh.adm then begin
        let job = new_job digest in
        if not no_cache then Hashtbl.add sh.jobs digest job;
        Domain_pool.submit_to t.pool sh.sid (fun () ->
            run_plan_job t sh job spec ~registered:(not no_cache)
              ~cache_write:(not no_cache));
        Started job
      end
      else Refused
  in
  Mutex.unlock sh.jobs_lock;
  outcome

let handle_submit t spec ~no_cache =
  let t0 = now_ms () in
  Counters.incr c_requests;
  let id = 1 + Atomic.fetch_and_add t.req_ids 1 in
  let digest = Protocol.digest spec in
  let sh = shard_for t digest in
  (* Every exit path notes one record in the recent-requests ring (and
     the slow-request ledger, when armed): the request's id, outcome
     and stage-by-stage timing. *)
  let note outcome total_ms stages =
    Reqtrace.note t.ring
      { Reqtrace.id; digest; shard = sh.sid; outcome; total_ms; stages }
  in
  with_counts sh (fun c -> c.submitted <- c.submitted + 1);
  let cache_hit =
    if no_cache then None else Plan_cache.find_tier t.cache digest
  in
  let t_cache = now_ms () in
  match cache_hit with
  | Some (outcome, cache_tier) ->
    let wall_ms = t_cache -. t0 in
    let tier =
      match cache_tier with
      | Plan_cache.Memory -> Protocol.Memory
      | Plan_cache.Store -> Protocol.Store
    in
    Histogram.record sh.h_latency wall_ms;
    note Reqtrace.Hit wall_ms [ ("cache", wall_ms) ];
    Protocol.Plan
      { cached = true; coalesced = false; tier; digest; wall_ms; outcome }
  | None -> (
    match admit_submit t sh spec digest ~no_cache with
    | Refused ->
      let wall_ms = now_ms () -. t0 in
      note Reqtrace.Shed wall_ms
        [ ("cache", t_cache -. t0); ("admission", wall_ms -. (t_cache -. t0)) ];
      Protocol.Shed { in_flight = total_in_flight t; limit = global_limit t }
    | (Joined job | Started job) as adm -> (
      let t_adm = now_ms () in
      let coalesced =
        match adm with Joined _ -> true | _ -> false
      in
      if coalesced then begin
        with_counts sh (fun c -> c.coalesced <- c.coalesced + 1);
        Counters.incr c_coalesced
      end;
      let front_stages =
        [ ("cache", t_cache -. t0); ("admission", t_adm -. t_cache) ]
      in
      match
        wait_job job ~deadline_ms:(t0 +. float_of_int t.cfg.job_timeout_ms)
      with
      | None ->
        with_counts sh (fun c -> c.timeouts <- c.timeouts + 1);
        Counters.incr c_timeouts;
        let wall_ms = now_ms () -. t0 in
        note Reqtrace.Timeout wall_ms
          (front_stages @ [ ("wait", wall_ms -. (t_adm -. t0)) ]);
        Protocol.Timeout { after_ms = t.cfg.job_timeout_ms }
      | Some result ->
        let t_done = now_ms () in
        let wall_ms = t_done -. t0 in
        (* The job's own breakdown was published under its lock before
           [Finished]; a coalesced waiter shares the planner stages of
           the job it joined. *)
        let stages =
          front_stages
          @ [ ("queue", job.queue_ms) ]
          @ job.stage_ms
          @ [ ("wait", t_done -. t_adm) ]
        in
        (match result with
        | Error m ->
          note Reqtrace.Failed wall_ms stages;
          Protocol.Error m
        | Ok outcome ->
          Histogram.record sh.h_latency wall_ms;
          note
            (if coalesced then Reqtrace.Coalesced else Reqtrace.Planned)
            wall_ms stages;
          Protocol.Plan
            {
              cached = false;
              coalesced;
              tier = Protocol.Planned;
              digest;
              wall_ms;
              outcome;
            })))

(* [burn] occupies a worker and an admission slot for [ms] — synthetic
   load with a deterministic duration, for backpressure tests and the
   serve benchmark's shed scenario.  Burns carry no digest, so they
   round-robin across shards. *)
let handle_burn t ~ms =
  let k = Atomic.fetch_and_add t.burn_rr 1 in
  let sh = t.shards.(k mod Array.length t.shards) in
  if Admission.try_admit sh.adm then begin
    let job = new_job "" in
    Domain_pool.submit_to t.pool sh.sid (fun () ->
        Histogram.record sh.h_queue
          (Float.max 0.0 (now_ms () -. job.enqueued_at));
        Unix.sleepf (float_of_int ms /. 1000.0);
        Histogram.record sh.h_service (float_of_int ms);
        finish_job job (Ok "");
        Admission.release sh.adm;
        with_counts sh (fun c -> c.burns <- c.burns + 1));
    (* A burn waits as long as it burns, plus the normal job timeout for
       its turn in the queue. *)
    let deadline_ms =
      now_ms () +. float_of_int (ms + t.cfg.job_timeout_ms)
    in
    match wait_job job ~deadline_ms with
    | Some _ -> Protocol.Burned { ms }
    | None ->
      with_counts sh (fun c -> c.timeouts <- c.timeouts + 1);
      Protocol.Timeout { after_ms = ms + t.cfg.job_timeout_ms }
  end
  else
    Protocol.Shed { in_flight = total_in_flight t; limit = global_limit t }

(* --- the front end ---------------------------------------------------- *)

let handle t req =
  Trace.with_span "service.request" @@ fun () ->
  match req with
  | Protocol.Ping -> Protocol.Pong
  | Protocol.Version -> Protocol.Version_reply Version.version
  | Protocol.Hello { version; rev } ->
    Protocol.answer_hello ~role:"server" ~version ~rev
  | Protocol.Stats -> Protocol.Stats_reply (stats_json t)
  | Protocol.Metrics -> Protocol.Metrics_reply (metrics_text t)
  | Protocol.Shutdown ->
    Listener.initiate_stop t.listener;
    Protocol.Bye
  | Protocol.Burn { ms } -> handle_burn t ~ms
  | Protocol.Submit { spec; no_cache } -> handle_submit t spec ~no_cache

let start cfg =
  (* The daemon is the one place counters are always worth their single
     fetch-and-add: the scrape surface exports the registry, and a
     daemon with dark internals is strictly worse than one a scraper
     can read. *)
  Counters.set_enabled true;
  (* The serving hot path allocates multi-KB reply strings at request
     rate, and every minor collection stops the world across all
     domains — at the default minor-heap size the daemon spends a
     visible fraction of its time at that barrier.  A bigger nursery
     (4M words, ~32 MB per domain on 64-bit) trades a little memory for
     far fewer global pauses.  Never shrink a user-raised setting. *)
  (let gc = Gc.get () in
   let want = 4 * 1024 * 1024 in
   if gc.Gc.minor_heap_size < want then
     Gc.set { gc with Gc.minor_heap_size = want });
  let listener = Listener.bind cfg.socket_path in
  let workers = max 1 cfg.workers in
  (* Per-shard bound, rounded up: the effective global limit is
     [shard_limit * workers], never below the configured intent. *)
  let shard_limit = (max 1 cfg.queue_limit + workers - 1) / workers in
  let mk_counts () =
    {
      submitted = 0;
      completed = 0;
      coalesced = 0;
      timeouts = 0;
      errors = 0;
      burns = 0;
    }
  in
  let store =
    Option.map
      (fun dir -> Plan_store.open_ ~dir ~max_bytes:cfg.store_max_bytes ())
      cfg.store_dir
  in
  let t =
    {
      cfg;
      cache =
        Plan_cache.create ~capacity:cfg.cache_capacity ~shards:workers ?store
          ();
      pool = Domain_pool.create ~size:workers ~dedicated:true ();
      shards =
        Array.init workers (fun sid ->
            {
              sid;
              jobs = Hashtbl.create 64;
              jobs_lock = Mutex.create ();
              adm = Admission.create ~limit:shard_limit;
              counts = mk_counts ();
              h_latency = Histogram.create ();
              h_queue = Histogram.create ();
              h_service = Histogram.create ();
              counts_lock = Mutex.create ();
            });
      shard_limit;
      burn_rr = Atomic.make 0;
      req_ids = Atomic.make 0;
      ring = Reqtrace.create_ring ();
      listener;
    }
  in
  (* Handling is deferred to the resolver, so a batch is answered one
     frame at a time, in order, with the replies streaming out as the
     batch bound fills. *)
  Listener.serve listener
    ~dispatch:(fun _raw req () -> Protocol.reply_to_string (handle t req))
    ~on_shutdown:ignore
    ~on_stop:(fun () ->
      (* Running jobs finish; queued jobs die with their waiters. *)
      Domain_pool.shutdown t.pool);
  t

let wait t = Listener.wait t.listener
let stop t = Listener.stop t.listener
